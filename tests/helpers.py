"""Shared random generators and independent oracles for the test suite.

The homology oracles are dense linear algebra over F_p (row elimination,
kernels, rank-nullity), plus the boundary-matrix column reduction that the
library's cohomology engine replaced; none calls the library's reduction
or reads the face table a complex keeps.  The face-index oracle is the
tuple-keyed validation that the integer-coded index replaced, the `.flt`
and `.dgm` oracles the per-line readers that the bulk ones replaced, the
bar-order oracle the Python sort key that `Barcode` replaced by the order
of its bars, and the diagram oracle makes one point per bar.  The point
table and the Morse oracles are the dict of checked points and the loops
over a degree's points that the array-backed diagram replaced, each
degree's rows found by the whole-column mask (`in_degree_reference`) that
the binary search replaced, and each lifetime compared with eps in
rational arithmetic (`lifetime_over`).  The bottleneck oracle decides
feasibility on the complete diagonal-slot graph with its own augmenting-path
matcher and never calls the library's cost matrices or its Hopcroft-Karp
matching, and the exact bottleneck oracle tries every partial matching in
rational arithmetic; the edge-list reference is the boolean-mask
construction that the finite class's edge listing replaced.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Tuple

import numpy as np

from pershom import (
    POS_INF,
    Barcode,
    ComplexValidationError,
    DiagramPoint,
    DuplicateSimplexError,
    FilteredComplex,
    Interval,
    MissingFaceError,
    MorseReport,
    NonFiniteValueError,
    NonMonotoneError,
    PersistenceDiagram,
    PreconditionViolated,
    lower_star,
    quadrant_count,
)
from pershom.bottleneck import _diagonal_cost, _pair_cost
from pershom.filtration import facets
from pershom.io import FormatError


_TIES = (-math.inf, -0.0, 0.0, 1.0, math.inf)


def random_diagram_rows(
    rng: random.Random,
    max_points: int = 50,
    max_degree: int = 4,
    essential_rate: float = 0.15,
    neg_inf_rate: float = 0.0,
    low: float = -10.0,
    high: float = 10.0,
    tie_rate: float = 0.0,
    mults: Tuple[int, ...] = (1, 1, 1, 2, 3),
) -> List[Tuple[int, float, float, int]]:
    """The (degree, p, q, multiplicity) rows of a random diagram, with
    continuous coordinates (ties have measure zero).  With ``tie_rate``,
    that share of the rows repeats an earlier point or takes its endpoints
    from -inf, -0.0, 0.0, 1.0 and inf."""
    rows = []
    for _ in range(rng.randint(0, max_points)):
        d = rng.randint(0, max_degree)
        p = rng.uniform(low, high)
        if rng.random() < neg_inf_rate:
            p = -math.inf
        if rng.random() < essential_rate:
            q = math.inf
        else:
            q = p + rng.uniform(1e-3, high - low) if p != -math.inf else rng.uniform(low, high)
        mult = rng.choice(mults)
        if tie_rate and rng.random() < tie_rate:
            if rows and rng.random() < 0.5:
                d, p, q, _ = rng.choice(rows)
            else:
                p, q = sorted(rng.sample(_TIES, 2))
                q = q if p < q else 1.0  # -0.0 and 0.0 drawn together
        rows.append((d, p, q, mult))
    return rows


def random_diagram(rng: random.Random, **shape) -> PersistenceDiagram:
    """A random diagram of `random_diagram_rows`, a repeated point summing
    its multiplicities."""
    table = {}
    for d, p, q, mult in random_diagram_rows(rng, **shape):
        bucket = table.setdefault(d, {})
        key = (p, q)
        bucket[key] = bucket.get(key, 0) + mult
    return PersistenceDiagram(table)


def random_filtered_complex(rng: random.Random, max_simplices: int = 40) -> FilteredComplex:
    """A random face-closed monotone complex with vertices, edges, triangles."""
    n = rng.randint(3, 8)
    entries: List[Tuple[Tuple[int, ...], float]] = []
    values = {}
    for v in range(n):
        values[(v,)] = rng.uniform(0.0, 1.0)
        entries.append(((v,), values[(v,)]))
    edges = list(combinations(range(n), 2))
    rng.shuffle(edges)
    for e in edges[: rng.randint(0, len(edges))]:
        if len(entries) >= max_simplices:
            break
        value = max(values[(e[0],)], values[(e[1],)]) + rng.uniform(0.0, 0.5)
        values[e] = value
        entries.append((e, value))
    triangles = [
        t
        for t in combinations(range(n), 3)
        if all(f in values for f in combinations(t, 2))
    ]
    rng.shuffle(triangles)
    for t in triangles[: rng.randint(0, len(triangles))]:
        if len(entries) >= max_simplices:
            break
        value = max(values[f] for f in combinations(t, 2)) + rng.uniform(0.0, 0.5)
        values[t] = value
        entries.append((t, value))
    return FilteredComplex(entries)


def random_rips(rng: random.Random, max_dim: int = 2, ties: bool = False, radius: float = 0.6) -> FilteredComplex:
    """A Rips-like filtration: the clique complex, up to dimension
    ``max_dim``, of the edges no longer than ``radius`` among 8-14 random
    points in the unit square.  Vertices come at 0 and every other simplex
    at its longest edge; with ``ties`` the lengths are rounded to tenths,
    so that values repeat within and across dimensions."""
    n = rng.randint(8, 14)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    length = {}
    for e in combinations(range(n), 2):
        d = math.dist(points[e[0]], points[e[1]])
        if ties:
            d = round(d, 1)
        if d <= radius:
            length[e] = d
    entries = [((v,), 0.0) for v in range(n)] + list(length.items())
    for size in range(3, max_dim + 2):
        for s in combinations(range(n), size):
            edges = list(combinations(s, 2))
            if all(e in length for e in edges):
                entries.append((s, max(map(length.__getitem__, edges))))
    return FilteredComplex(entries)


def random_closed_entries(
    rng: random.Random, max_dim: int = 8, tops: int = 3, extra_vertices: int = 0
) -> List[Tuple[Tuple[int, ...], float]]:
    """A face-closed monotone complex, shuffled, as (simplex, value) entries.

    Vertex ids are sparse, up to 10**9.  One simplex of dimension ``max_dim``
    and ``tops - 1`` random smaller ones come with all their faces, beside
    ``extra_vertices`` further vertices; so the complex has exactly
    max_dim + 1 + extra_vertices vertices.  Values come from a few ties,
    -0.0 and 0.0 among them, raised to the max of the faces.
    """
    pool = rng.sample(range(10**9), max_dim + 1 + extra_vertices)
    simplices = {(v,) for v in pool}
    tops = [pool[: max_dim + 1]] + [rng.sample(pool, rng.randint(1, max_dim + 1)) for _ in range(tops - 1)]
    for top in tops:
        for size in range(2, len(top) + 1):
            simplices.update(combinations(sorted(top), size))
    values = {}
    for simplex in sorted(simplices, key=len):
        value = rng.choice([-0.0, 0.0, 0.5, 1.0])
        for face in combinations(simplex, len(simplex) - 1) if len(simplex) > 1 else ():
            value = max(value, values[face])
        values[simplex] = value
    entries = list(values.items())
    rng.shuffle(entries)
    return entries


def validate_oracle(entries) -> Tuple[tuple, List[List[int]]]:
    """The tuple-keyed validation that the integer-coded face index replaced.

    Checks each entry (a nonempty strictly increasing simplex, a finite
    value), then duplicates, then every facet in input order, raising what
    ``FilteredComplex`` raises; returns the canonical order and each
    simplex's cofacets as position * 2 + parity of the omitted vertex.
    """
    checked = []
    for verts, t in entries:
        simplex, value = tuple(map(int, verts)), float(t)
        if not simplex:
            raise ValueError("empty simplex")
        if any(a >= b for a, b in zip(simplex, simplex[1:])):
            raise ValueError(f"vertices must be strictly increasing, got {simplex}")
        if not math.isfinite(value):
            raise NonFiniteValueError(simplex, value)
        checked.append((simplex, value))
    order = tuple(sorted(checked, key=lambda e: (e[1], len(e[0]), e[0])))
    index = {simplex: i for i, (simplex, _) in enumerate(order)}
    if len(index) < len(order):
        seen = set()
        raise DuplicateSimplexError(next(s for s, _ in checked if s in seen or seen.add(s)))
    cofacets: List[List[int]] = [[] for _ in order]
    for simplex, _ in checked:
        j = index[simplex]
        for i in range(len(simplex) if len(simplex) > 1 else 0):
            face = simplex[:i] + simplex[i + 1:]
            k = index.get(face)
            if k is None:
                raise MissingFaceError(simplex, face)
            if k > j:
                raise NonMonotoneError(simplex, face)
            cofacets[k].append(2 * j + i % 2)
    return order, cofacets


def parse_filtration_oracle(text: str, source: str = "<filtration>") -> FilteredComplex:
    """The per-line `.flt` reader that the bulk one replaced: each content
    line is split, checked and converted on its own, the first defective
    line raising; the complex is built from (vertices, value) pairs, and a
    defect of the complex is reported at the last line holding the simplex
    it names."""
    entries, linenos = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "simplex" or len(fields) < 3:
            raise FormatError(source, lineno, f"expected 'simplex <value> <v0> [v1 ...]', got {line!r}")
        try:
            value = float(fields[1])
            verts = sorted(map(int, fields[2:]))
            if verts[0] < 0:
                raise ValueError("vertex ids must be nonnegative")
            if len(set(verts)) != len(verts):
                raise ValueError(f"repeated vertex in {verts}")
        except ValueError as exc:
            raise FormatError(source, lineno, str(exc)) from exc
        entries.append((verts, value))
        linenos.append(lineno)
    try:
        return FilteredComplex(entries)
    except ComplexValidationError as exc:
        line_of = {tuple(verts): lineno for (verts, _), lineno in zip(entries, linenos)}
        raise FormatError(source, line_of[exc.simplex], str(exc)) from exc


def parse_diagram_oracle(text: str, source: str = "<diagram>") -> PersistenceDiagram:
    """The per-line `.dgm` reader that the bulk one replaced: each content
    line is split, checked and made a point on its own, the first defective
    line raising; a repeated point sums its multiplicities."""
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise FormatError(source, lineno, f"expected '<degree> <p> <q> <multiplicity>', got {line!r}")
        try:
            degree = int(fields[0])
            point = DiagramPoint(float(fields[1]), float(fields[2]))
            mult = int(fields[3])
            if mult < 1:
                raise ValueError(f"requires multiplicity >= 1, got {mult}")
        except ValueError as exc:
            raise FormatError(source, lineno, str(exc)) from exc
        bucket = table.setdefault(degree, {})
        bucket[point] = bucket.get(point, 0) + mult
    return PersistenceDiagram(table)


def bar_key(bar):
    """The canonical order of bars as an explicit sort key: the degree, then
    the interval's endpoints and flags.  ``Barcode`` sorts its bars by value
    in this order, stably, so equal bars keep their input order."""
    degree, iv = bar
    return (degree, iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)


class BarcodeOracle:
    """A barcode as a tuple of (int, Interval) bars, sorted stably by
    `bar_key`, each operation a loop over the bars: the oracle for the
    array-backed `Barcode`."""

    def __init__(self, bars):
        self.bars = tuple(sorted(((int(d), iv) for d, iv in bars), key=bar_key))

    def __eq__(self, other):
        return self.bars == other.bars

    def __hash__(self):
        return hash(self.bars)

    def __repr__(self):
        return "Barcode({" + ", ".join(f"{d}: {iv}" for d, iv in self.bars) + "})"

    def text(self) -> str:
        return "".join(f"{d} {iv}\n" for d, iv in self.bars)

    @staticmethod
    def contains(iv: Interval, t: float) -> bool:
        """Membership by the endpoint comparisons, apart from `Interval.contains`."""
        return (iv.lo < t or (iv.lo == t and iv.lo_closed)) and (t < iv.hi or (t == iv.hi and iv.hi_closed))

    def rank(self, d: int, s: float, t: float) -> int:
        return sum(1 for degree, iv in self.bars if degree == d and self.contains(iv, s) and self.contains(iv, t))

    def radical(self) -> "BarcodeOracle":
        return BarcodeOracle((d, Interval(iv.lo, iv.hi, False, iv.hi_closed))
                             for d, iv in self.bars if not iv.is_singleton)

    def witness(self, d: int) -> Tuple[float, float]:
        finite = [x for degree, iv in self.bars if degree == d for x in iv[:2] if math.isfinite(x)]
        return (min(finite) - 1.0, max(finite) + 1.0) if finite else (0.0, 0.0)


def diagram_oracle(barcode: Barcode) -> PersistenceDiagram:
    """One point per non-singleton bar, counted into a table by (p, q)."""
    table = {}
    for d, iv in barcode:
        if iv.lo != iv.hi:
            bucket = table.setdefault(d, {})
            bucket[float(iv.lo), float(iv.hi)] = bucket.get((float(iv.lo), float(iv.hi)), 0) + 1
    return PersistenceDiagram(table)


def point_table_oracle(rows) -> Dict[int, Dict[DiagramPoint, int]]:
    """The per-point table that the array diagram replaced: each row's point
    made a checked DiagramPoint and counted in a dict, so a repeated point
    sums its multiplicities under its first key, each degree then sorted."""
    table = {}
    for d, p, q, mult in rows:
        bucket = table.setdefault(d, {})
        point = DiagramPoint(p, q)
        bucket[point] = bucket.get(point, 0) + mult
    return {d: dict(sorted(table[d].items())) for d in sorted(table)}


def table_repr_oracle(table) -> str:
    parts = []
    for d, bucket in table.items():
        inner = ", ".join(f"{pt}" if m == 1 else f"{pt}x{m}" for pt, m in bucket.items())
        parts.append(f"{d}: {{{inner}}}")
    return f"PersistenceDiagram({'; '.join(parts)})"


def table_format_oracle(table) -> str:
    return "".join(f"{d} {p!r} {q!r} {mult}\n" for d, bucket in table.items() for (p, q), mult in bucket.items())


def in_degree_reference(value, d: int) -> Tuple[np.ndarray, ...]:
    """The columns after the degree of a `Barcode`'s or a `PersistenceDiagram`'s
    degree-d rows, by a mask over the whole degree column that compares each
    degree as a Python int: the lookup that the binary search replaced."""
    degree, *rest = value._columns
    kept = np.array([x == d for x in degree.tolist()], bool)
    return tuple(column[kept] for column in rest)


def _items_oracle(diagram: PersistenceDiagram, d: int):
    """The degree-d (point, multiplicity) pairs by the mask reference; none below degree 0."""
    if d < 0:
        return []
    p, q, mult = in_degree_reference(diagram, d)
    return [(DiagramPoint(x, y), m) for x, y, m in zip(p.tolist(), q.tolist(), mult.tolist())]


def lifetime_over(p: float, q: float, eps: float) -> bool:
    """Whether the exact lifetime q - p is over eps, in `Fraction`s; an
    infinite endpoint makes the lifetime infinite, over every finite eps,
    and no lifetime is over an infinite eps."""
    if math.isinf(eps):
        return False
    if math.isinf(p) or math.isinf(q):
        return True
    return Fraction(q) - Fraction(p) > Fraction(eps)


def quadrant_count_oracle(diagram: PersistenceDiagram, d: int, x: float, y: float) -> int:
    return sum(m for pt, m in diagram.items(d) if pt.p < x and y < pt.q)


def cap_finiteness_bound_oracle(diagram: PersistenceDiagram, d: int, eps: float, t0: float, t1: float):
    """The band count and the sum of one quadrant count per grid corner,
    the loop that the two binary searches per point replaced."""
    steps = math.ceil(2 * (t1 - t0) / eps)
    lhs = sum(m for pt, m in diagram.items(d) if t0 <= pt.p and pt.q <= t1 and lifetime_over(pt.p, pt.q, eps))
    rhs = sum(quadrant_count(diagram, d, t0 + i * eps / 2, t0 + i * eps / 2 + eps / 2) for i in range(steps + 1))
    return lhs, rhs


def cap_number_at_oracle(diagram: PersistenceDiagram, d: int, t: float, eps: float) -> int:
    if not math.isfinite(t):
        return 0
    total = 0
    for pt, mult in _items_oracle(diagram, d - 1):
        if pt.q == t and math.isfinite(pt.p) and lifetime_over(pt.p, t, eps):
            total += mult
    for pt, mult in _items_oracle(diagram, d):
        if pt.p == t and math.isfinite(pt.q) and lifetime_over(t, pt.q, eps):
            total += mult
    return total


def cap_number_oracle(diagram: PersistenceDiagram, d: int, eps: float) -> int:
    total = 0
    for pt, mult in _items_oracle(diagram, d - 1):
        if math.isfinite(pt.q) and lifetime_over(pt.p, pt.q, eps):
            total += mult
    for pt, mult in _items_oracle(diagram, d):
        if pt.p != -math.inf and lifetime_over(pt.p, pt.q, eps):
            total += mult
    return total


def essential_dimension_oracle(diagram: PersistenceDiagram, d: int) -> int:
    return sum(m for pt, m in _items_oracle(diagram, d) if math.isinf(pt.q))


def nu_oracle(diagram: PersistenceDiagram, d: int, eps: float) -> int:
    return sum(m for pt, m in _items_oracle(diagram, d)
               if math.isfinite(pt.p) and math.isfinite(pt.q) and lifetime_over(pt.p, pt.q, eps))


def morse_check_oracle(diagram: PersistenceDiagram, eps: float, n_max: int) -> MorseReport:
    """The Morse report from the per-point counts, with no check of the
    identity or of the partial sums; a -inf birth raises as `morse_check` does."""
    for d in diagram.degrees():
        for pt, _ in diagram.items(d):
            if pt.p == -math.inf:
                raise PreconditionViolated(d, pt)
    rows = tuple((d, cap_number_oracle(diagram, d, eps), essential_dimension_oracle(diagram, d),
                  nu_oracle(diagram, d, eps)) for d in range(n_max + 1))
    sums, s = [], 0
    for _, m_eps, p_d, _ in rows:
        s = m_eps - p_d - s
        sums.append(s)
    return MorseReport(eps, rows, tuple(sums))


def grid_lower_star(rng: random.Random, n: int = 10, levels: int = 3) -> FilteredComplex:
    """Lower-star filtration of a few integer levels on a triangulated
    n x n grid, where many bars repeat."""
    simplices = set()
    for v in (i * n + j for i in range(n - 1) for j in range(n - 1)):
        for triangle in ((v, v + 1, v + n), (v + 1, v + n, v + n + 1)):
            simplices.update(s for size in (1, 2, 3) for s in combinations(triangle, size))
    return lower_star({v: float(rng.randrange(levels)) for v in range(n * n)}, sorted(simplices))


def perturb_filtration(
    complex_: FilteredComplex, rng: random.Random, delta: float
) -> Tuple[FilteredComplex, float]:
    """Jitter each value by at most delta, then restore monotonicity by
    pushing every simplex up to the max of its faces.

    The fix keeps the perturbed filtration within delta of the original in
    sup norm; the achieved sup difference is returned alongside.
    """
    jittered = {
        simplex: value + rng.uniform(-delta, delta)
        for simplex, value in complex_.simplices
    }
    fixed = {}
    for simplex in sorted(jittered, key=len):
        value = jittered[simplex]
        for k in range(1, len(simplex)):
            for face in combinations(simplex, k):
                value = max(value, fixed[face])
        fixed[simplex] = value
    original = dict(complex_.simplices)
    achieved = max(abs(fixed[s] - original[s]) for s in fixed)
    return FilteredComplex([(s, fixed[s]) for s, _ in complex_.simplices]), achieved


def perturbed_diagram_pair(rng: random.Random, n: int, degree: int = 0) -> Tuple[PersistenceDiagram, PersistenceDiagram]:
    """A diagram of n finite points in the unit square's upper half and a
    perturbed copy: the copy drops about a tenth of the points, moves the
    rest by up to 0.02 in each coordinate and adds short-lived points until
    it has n again, so that the bottleneck answer sits far above zero and
    far below the largest candidate.  Both share two essential points."""
    base = [(b, b + rng.uniform(0.02, 0.5)) for b in (rng.random() for _ in range(n))]
    copy = []
    for p, q in base:
        if rng.random() < 0.1:
            continue
        p2, q2 = p + rng.uniform(-0.02, 0.02), q + rng.uniform(-0.02, 0.02)
        if p2 < q2:
            copy.append((p2, q2))
    while len(copy) < n:
        b = rng.random()
        copy.append((b, b + rng.uniform(0.001, 0.03)))
    essential = [(rng.random(), math.inf) for _ in range(2)]
    return PersistenceDiagram({degree: base + essential}), PersistenceDiagram({degree: copy + essential})


def random_cover_sets(
    rng: random.Random, max_sets: int = 8, max_elements: int = 12, max_set_size: int = 6
):
    """Random cover data as (name, elements) pairs over a small ground set."""
    ground = list(range(rng.randint(1, max_elements)))
    n_sets = rng.randint(1, max_sets)
    sets = []
    for i in range(n_sets):
        size = rng.randint(0, min(max_set_size, len(ground)))
        sets.append((f"U{i}", rng.sample(ground, size)))
    return sets, ground


def closure(maximal) -> FilteredComplex:
    """The complex at value 0 of every nonempty face of the given simplices."""
    faces = set()
    for raw in maximal:
        verts = tuple(sorted(set(raw)))
        for k in range(1, len(verts) + 1):
            faces.update(combinations(verts, k))
    return FilteredComplex((face, 0.0) for face in faces)


def assert_built_as_by_pairs(complex_) -> None:
    """A complex equals the one `FilteredComplex` builds from its (simplex,
    value) pairs: the same simplices, flat arrays (values and dtypes) and
    face table."""
    reference = FilteredComplex(list(complex_.simplices))
    assert repr(complex_.simplices) == repr(reference.simplices)
    for ours, theirs in zip(complex_._arrays + complex_._table, reference._arrays + reference._table):
        assert type(ours) is type(theirs) and ours.dtype == theirs.dtype
        if ours.dtype == object:  # exact Python ints beyond int64
            assert ours.tolist() == theirs.tolist()
        else:
            assert ours.tobytes() == theirs.tobytes()


def is_face_closed(simplices) -> bool:
    """Whether a set of vertex tuples holds every codimension-1 face of each member."""
    present = set(simplices)
    return all(face in present for s in present if len(s) > 1 for face in combinations(s, len(s) - 1))


def alive_bars(barcode, d: int, t: float) -> int:
    """Bars of degree d alive at t under the closed-left/open-right reading."""
    count = 0
    for degree, iv in barcode:
        if degree != d:
            continue
        lo = iv.lo.float_value
        hi = iv.hi.float_value
        if lo <= t < hi:
            count += 1
    return count


def grid_module_rank(bars, s: float, t: float) -> int:
    """Independent oracle: numpy rank of the structure map of the module
    spanned by ``bars`` presented on the two-point grid {s, t}."""
    alive_s = [i for i, iv in enumerate(bars) if iv.contains(s)]
    alive_t = [i for i, iv in enumerate(bars) if iv.contains(t)]
    if not alive_s or not alive_t:
        return 0
    mat = np.zeros((len(alive_t), len(alive_s)))
    for col, i in enumerate(alive_s):
        if i in alive_t:
            mat[alive_t.index(i), col] = 1.0
    return int(np.linalg.matrix_rank(mat))


def gf_rank(matrix: np.ndarray, field) -> int:
    """Rank of an integer matrix over F_p by row elimination."""
    if matrix.size == 0:
        return 0
    p = field.p
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * field.inv(int(a[rank, col])) % p
        below = a[rank + 1 :, col] != 0
        if below.any():
            a[rank + 1 :][below] = (
                a[rank + 1 :][below] - np.outer(a[rank + 1 :, col][below], a[rank])
            ) % p
        rank += 1
        if rank == rows:
            break
    return rank


def boundary_matrix(simplices, dim: int) -> np.ndarray:
    """Signed incidence matrix from dim-simplices into their facets."""
    rows = sorted(s for s in simplices if len(s) == dim)
    cols = sorted(s for s in simplices if len(s) == dim + 1)
    row_index = {s: i for i, s in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, simplex in enumerate(cols):
        for i, face in enumerate(facets(simplex)):
            mat[row_index[face], j] = 1 if i % 2 == 0 else -1
    return mat


def betti_numbers_oracle(simplices, field) -> Tuple[int, ...]:
    """Dense rank-nullity Betti numbers of a face-closed simplex set, in the
    shape of ``homology_ranks``: one entry per degree up to the top one, or
    ``(0,)`` when empty."""
    if not simplices:
        return (0,)
    top = max(len(s) for s in simplices) - 1
    counts = [sum(1 for s in simplices if len(s) == d + 1) for d in range(top + 1)]
    ranks = [gf_rank(boundary_matrix(simplices, d + 1), field) for d in range(top + 1)]
    return tuple(
        counts[d] - (ranks[d - 1] if d > 0 else 0) - (ranks[d] if d < top else 0)
        for d in range(top + 1)
    )


def sublevel(complex_, t: float) -> Tuple[tuple, ...]:
    """The simplices of a complex with value at most t, in input order."""
    return tuple(s for s, v in complex_.simplices if v <= t)


def betti_oracle_at(complex_, t: float, d: int, field) -> int:
    """Dense dim H_d of the sublevel complex at t, the oracle for ``betti_at``."""
    betti = betti_numbers_oracle(sublevel(complex_, t), field)
    return betti[d] if 0 <= d < len(betti) else 0


def persistence_oracle(complex_, field) -> Barcode:
    """Barcode by left-to-right reduction of the boundary matrix (homology),
    the oracle for the library's cohomology reduction with clearing."""
    order = sorted(complex_.simplices, key=lambda e: (e[1], len(e[0]), e[0]))
    index = {simplex: i for i, (simplex, _) in enumerate(order)}
    p = field.p
    columns = []
    pivot_of_row = {}
    paired = set()
    bars = []
    for j, (simplex, value) in enumerate(order):
        col = {index[face]: (1 if i % 2 == 0 else p - 1) for i, face in enumerate(facets(simplex))}
        while col:
            low = max(col)
            k = pivot_of_row.get(low)
            if k is None:
                break
            factor = col[low] * field.inv(columns[k][low]) % p
            for row, coeff in columns[k].items():
                updated = (col.get(row, 0) - factor * coeff) % p
                if updated:
                    col[row] = updated
                else:
                    col.pop(row, None)
        columns.append(col)
        if col:
            low = max(col)
            pivot_of_row[low] = j
            paired.add(low)
            birth_simplex, birth = order[low]
            degree = len(birth_simplex) - 1
            if birth < value:
                bars.append((degree, Interval.closed_open(birth, value)))
    for j, (simplex, value) in enumerate(order):
        if not columns[j] and j not in paired:
            bars.append((len(simplex) - 1, Interval.closed_open(value, POS_INF)))
    return Barcode(bars)


def gf_nullspace(mat: np.ndarray, field) -> np.ndarray:
    """Kernel basis (as columns) of an integer matrix over F_p, via RREF."""
    p = field.p
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i, c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * field.inv(int(a[r, c])) % p
        others = [i for i in range(rows) if i != r and a[i, c] != 0]
        if others:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = (-a[i, f]) % p
    return basis


def persistent_rank_oracle(complex_, d: int, s: float, t: float, field) -> int:
    """Independent oracle for rank(H_d(K_s) -> H_d(K_t)) over F_p.

    Computes dim Z_d(K_s) - dim(Z_d(K_s) & B_d(K_t)) directly from kernel
    and image linear algebra, with no reference to the reduction pairing.
    """
    sub_s = sublevel(complex_, s)
    sub_t = sublevel(complex_, t)
    cols_s = sorted(x for x in sub_s if len(x) == d + 1)
    cols_t = sorted(x for x in sub_t if len(x) == d + 1)
    if not cols_s:
        return 0
    kernel = gf_nullspace(boundary_matrix(sub_s, d), field)
    index_t = {x: i for i, x in enumerate(cols_t)}
    embedded = np.zeros((len(cols_t), kernel.shape[1]), dtype=np.int64)
    for row_s, simplex in enumerate(cols_s):
        embedded[index_t[simplex]] = kernel[row_s]
    boundaries = boundary_matrix(sub_t, d + 1)
    dim_z = int(gf_rank(embedded, field))
    rank_b = int(gf_rank(boundaries, field))
    dim_sum = int(gf_rank(np.hstack([embedded, boundaries % field.p]), field))
    dim_meet = dim_z + rank_b - dim_sum
    return dim_z - dim_meet


def _expanded(diagram: PersistenceDiagram, d: int):
    return [pt for pt, mult in diagram.items(d) for _ in range(mult)]


def _kuhn_matching_size(adjacency, n_right: int) -> int:
    """Maximum bipartite matching size by one augmenting-path search per
    left vertex (Kuhn's algorithm)."""
    match_right = [-1] * n_right

    def augment(u, seen) -> bool:
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_right[v] < 0 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    return sum(augment(u, set()) for u in range(len(adjacency)))


def class_edges_reference(cost: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray, cap: float):
    """The finite class's edges at or below cap, by the boolean masks that
    `bottleneck._class_edges` replaced: (values, left, right), the pairs row
    by row, then each A point to its own slot, then each B point; vertices
    as int32."""
    n, m = cost.shape
    within, near_a, near_b = cost <= cap, diag_a <= cap, diag_b <= cap
    values = np.concatenate((cost[within], diag_a[near_a], diag_b[near_b]))
    i, j = np.arange(n, dtype=np.int32), np.arange(m, dtype=np.int32)
    left = np.concatenate((i.repeat(np.count_nonzero(within, axis=1)), i[near_a], n + j[near_b]))
    right = np.concatenate((np.broadcast_to(j, (n, m))[within], m + i[near_a], j[near_b]))
    return values, left, right


def bottleneck_feasible_oracle(a: PersistenceDiagram, b: PersistenceDiagram, d: int, delta: float) -> bool:
    """Whether every degree-d point can be matched or sent to the diagonal
    within a finite delta, on the usual augmented graph: each point has a
    private diagonal slot and every slot of b joins every slot of a.

    Points of different infinity classes cost inf, so one graph covers all
    classes as long as delta is finite.
    """
    if math.isinf(delta):
        raise ValueError("the one-graph construction needs a finite delta")
    points_a, points_b = _expanded(a, d), _expanded(b, d)
    n, m = len(points_a), len(points_b)
    adjacency = []
    for i, x in enumerate(points_a):
        row = [j for j, y in enumerate(points_b) if _pair_cost(x, y) <= delta]
        if _diagonal_cost(x) <= delta:
            row.append(m + i)
        adjacency.append(row)
    for j, y in enumerate(points_b):
        row = [m + i for i in range(n)]
        if _diagonal_cost(y) <= delta:
            row.append(j)
        adjacency.append(row)
    return _kuhn_matching_size(adjacency, m + n) == n + m


def bottleneck_candidates(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> List[float]:
    """The finite realizable costs in degree d, sorted: 0, the diagonal
    costs and the pair costs."""
    points_a, points_b = _expanded(a, d), _expanded(b, d)
    costs = {0.0}
    costs.update(_diagonal_cost(pt) for pt in points_a + points_b)
    costs.update(_pair_cost(x, y) for x in points_a for y in points_b)
    return sorted(c for c in costs if math.isfinite(c))


def bottleneck_oracle(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> float:
    """Bottleneck distance in degree d: the least candidate the oracle finds
    feasible, by binary search, or inf when even the largest is not."""
    grid = bottleneck_candidates(a, b, d)
    if not bottleneck_feasible_oracle(a, b, d, grid[-1]):
        return math.inf
    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if bottleneck_feasible_oracle(a, b, d, grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    return grid[lo]


def bottleneck_exact_oracle(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> float:
    """Bottleneck distance in degree d between diagrams of finite points, in
    exact rational arithmetic over every partial matching (an A point goes
    to a B point or to the diagonal), rounded to a float once at the end."""
    points_a = [(Fraction(pt.p), Fraction(pt.q)) for pt in _expanded(a, d)]
    points_b = [(Fraction(pt.p), Fraction(pt.q)) for pt in _expanded(b, d)]
    best = math.inf
    for targets in product(range(-1, len(points_b)), repeat=len(points_a)):  # -1: the diagonal
        matched = [j for j in targets if j >= 0]
        if len(set(matched)) < len(matched):
            continue  # two A points on one B point
        costs = [max(abs(x[0] - points_b[j][0]), abs(x[1] - points_b[j][1])) if j >= 0 else (x[1] - x[0]) / 2
                 for x, j in zip(points_a, targets)]
        costs += [(y[1] - y[0]) / 2 for j, y in enumerate(points_b) if j not in matched]
        best = min(best, max(costs, default=Fraction(0)))
    return float(best)
