"""Finite filtered simplicial complexes and their persistent homology.

Simplices are strictly increasing integer tuples carrying a filtration
value; the complex must be face-closed and the values monotone under
inclusion.  A complex keeps its entries as flat vertex, size and value
arrays.  Construction codes each simplex as one integer, sorts them into
the canonical order (value, dimension, lexicographic vertices), where faces
precede cofaces, and keeps each simplex's cofacets as positions in it.
Persistence is persistent cohomology over a prime field, which has the pairs
of homology (de Silva, Morozov & Vejdemo-Johansson, *Dualities in persistent
(co)homology*, 2011), reduced with clearing as in Bauer's Ripser: the only
homology engine here.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from operator import ge, index
from typing import Callable, Collection, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .barcode import POS_INF, Barcode, Interval, integer_value, query_value
from .linalg import GF2, PrimeField

Simplex = Tuple[int, ...]


class ComplexValidationError(ValueError):
    """Base for defects of a filtered complex; ``simplex`` names the offender."""


class NonFiniteValueError(ComplexValidationError):
    def __init__(self, simplex: Simplex, value: float):
        self.simplex = simplex
        super().__init__(f"simplex {simplex} has {'a NaN' if math.isnan(value) else 'an infinite'} filtration value")


class DuplicateSimplexError(ComplexValidationError):
    def __init__(self, simplex: Simplex):
        self.simplex = simplex
        super().__init__(f"duplicate simplex {simplex}")


class _FaceError(ComplexValidationError):
    def __init__(self, simplex: Simplex, face: Simplex):
        self.simplex, self.face = simplex, face
        super().__init__(self.message.format(simplex, face))


class MissingFaceError(_FaceError):
    message = "simplex {} is missing its face {}"


class NonMonotoneError(_FaceError):
    message = "simplex {} has a later-born face {}"


class NonIntegerVertexError(ComplexValidationError):
    def __init__(self, simplex: Sequence[object]):
        self.simplex = simplex
        super().__init__(f"simplex {simplex} has a vertex id that is not an integer")


class MissingVertexValueError(ValueError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"no value for vertex {vertex}")


def _vertex_array(ids: Callable[[], Iterator[int]], count: int) -> np.ndarray:
    """The ``count`` vertex ids that ``ids()`` yields, as int64, or as exact
    Python ints when one is beyond int64 (``ids()`` is then called again)."""
    try:
        return np.fromiter(ids(), np.int64, count)
    except OverflowError:
        return np.fromiter(map(int, ids()), object, count)


def facets(simplex: Simplex) -> Tuple[Simplex, ...]:
    """All codimension-1 faces, omitting vertex 0 first (`combinations` omits the last first)."""
    return tuple(combinations(simplex, len(simplex) - 1))[::-1] if len(simplex) > 1 else ()


@dataclass(frozen=True)
class FilteredComplex:
    """A face-closed simplex list with finite values, monotone under
    inclusion, kept as flat (vertices, sizes, values) arrays; its simplex
    tuples are built on first use.  Vertex ids are integers: anything that
    `operator.index` takes.  Construction checks all of this, so every
    instance is valid; defects raise a `ComplexValidationError` naming the first offender."""

    simplices: Tuple[Tuple[Simplex, float], ...]

    def __init__(self, simplices: Iterable[Tuple[Sequence[int], float]]):
        rows, values = tuple(zip(*simplices)) or ((), ())
        sizes = np.fromiter(map(len, rows), np.intp, len(rows))
        try:  # operator.index refuses the floats and strings that int() would truncate or parse
            vertices = _vertex_array(lambda: map(index, chain.from_iterable(rows)), int(sizes.sum()))
        except TypeError as exc:
            for row in rows:
                try:
                    list(map(index, row))
                except TypeError:
                    raise NonIntegerVertexError(row) from exc
            raise
        self._validate(vertices, sizes, np.fromiter(values, float, len(rows)))

    @classmethod
    def _from_arrays(cls, *arrays: np.ndarray) -> "FilteredComplex":
        """The complex of flat (vertices, sizes, values) arrays."""
        self = object.__new__(cls)
        self._validate(*arrays)
        return self

    @classmethod
    def _from_rows(cls, rows: Collection[Simplex], values: np.ndarray) -> "FilteredComplex":
        """The complex of vertex tuples whose ids are already integers (made by
        the library or checked where they entered), with their values."""
        sizes = np.fromiter(map(len, rows), np.intp, len(rows))
        return cls._from_arrays(_vertex_array(lambda: chain.from_iterable(rows), int(sizes.sum())), sizes, values)

    def _validate(self, *arrays: np.ndarray) -> None:
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "_table", validate(self))

    def __getattr__(self, name: str):
        if name != "simplices":
            raise AttributeError(name)
        vertices, sizes, values = self._arrays  # built on first use
        ends = np.cumsum(sizes)
        rows = map(tuple, map(vertices.tolist().__getitem__, map(slice, (ends - sizes).tolist(), ends.tolist())))
        object.__setattr__(self, "simplices", tuple(zip(rows, values.tolist())))
        return self.simplices

    def __len__(self) -> int:
        return len(self._arrays[1])

    def values(self) -> Tuple[float, ...]:
        """Distinct filtration values, sorted."""
        return tuple(sorted(set(self._arrays[2].tolist())))

    def sorted_simplices(self) -> Tuple[Tuple[Simplex, float], ...]:
        """Canonical reduction order: (value, dimension, lexicographic)."""
        if "_order" not in self.__dict__:  # built on first use
            object.__setattr__(self, "_order", tuple(map(self.simplices.__getitem__, self._table[0])))
        return self._order


def validate(complex_: FilteredComplex) -> Tuple[array, np.ndarray, np.ndarray, array, array]:
    """Check every entry of the complex's flat arrays, then face-closure and
    monotonicity, naming the first offender in input order.  Return the
    canonical order (entry indices, sizes, values) and each simplex's
    cofacets, flat with offsets, coded as position * 2 + parity of the
    omitted vertex (the boundary sign).  With vertex ranks q_0 > ... > q_k
    from the largest vertex, a simplex is the integer sum_i C(q_i, k-i+1)
    (the combinatorial number system, as in Ripser); omitting vertex i
    subtracts C(q_i, k-i+1) and C(q_l, k-l+1) - C(q_l, k-l) for each l < i,
    so one cumulative sum gives every facet.  Codes are int64 where they
    fit, else Python ints."""
    vertices, sizes, values = complex_._arrays
    n = len(sizes)
    ids, q = np.unique(vertices, return_inverse=True)
    q = len(ids) - 1 - q  # ranks from the largest vertex
    seg = np.repeat(np.arange(n, dtype=np.int32), sizes)  # the entry of each vertex slot
    defects = (sizes == 0) | ~np.isfinite(values)
    defects[seg[1:][(seg[1:] == seg[:-1]) & (q[1:] >= q[:-1])]] = True  # ranks must fall
    if defects.any():
        simplex, value = complex_.simplices[int(defects.argmax())]
        if not simplex or any(map(ge, simplex, simplex[1:])):  # before the value, as listed
            raise ValueError(f"vertices must be strictly increasing, got {simplex}" if simplex else "empty simplex")
        raise NonFiniteValueError(simplex, value)
    width = int(sizes.max(initial=0))
    above = math.comb(len(ids), min(width, len(ids) // 2)) + 1  # above every code
    binom = np.zeros((len(ids), width + 1), np.int64 if above * width < 2**63 else object)  # keys <= width * above
    for j in range(width + 1):  # binom[r, j] = C(r, j), by Pascal's rule down each column
        binom[j:, j] = np.cumsum(binom[j - 1:-1, j - 1]) if j else 1
    ends = np.cumsum(sizes)
    starts, e = ends - sizes, np.repeat(ends - 1, sizes) - np.arange(len(q))  # e = k - i
    a, b = binom[q, e + 1], binom[q, e]
    del q, e  # few arrays of this length live at once
    key = sizes.astype(binom.dtype) * above - np.add.reduceat(a, starts)  # by size, then lexicographic
    a -= b
    face_key = np.cumsum(a)  # int64 may wrap here; the differences below are exact
    face_key -= np.repeat(face_key[starts] - a[starts], sizes)
    face_key += b  # code minus facet code
    del a, b
    face_key += np.repeat(key - above, sizes)
    slots = np.flatnonzero(np.repeat(sizes > 1, sizes))
    face_key = face_key[slots]
    perm = np.argsort(key)
    sorted_key = key[perm]
    if (sorted_key[1:] == sorted_key[:-1]).any():
        seen: set = set()  # `seen.add` returns None, so this names the first repeat
        raise DuplicateSimplexError(next(s for s, _ in complex_.simplices if s in seen or seen.add(s)))
    by_key = np.argsort(face_key)  # sorted needles search fast
    face_key = face_key[by_key]
    slots = slots[by_key]
    del by_key
    hit = np.minimum(np.searchsorted(sorted_key, face_key), n - 1)
    found = sorted_key[hit] == face_key
    del face_key, sorted_key
    rank = np.argsort(perm)  # by (size, lex)
    canon = np.argsort(np.unique(values, return_inverse=True)[1] * n + rank)  # (value, size, lex)
    rank[canon] = np.arange(n)  # now each entry's canonical position
    face, owner = rank[perm[hit]], seg[slots]
    del hit, seg
    coface = rank[owner]
    bad = ~found | (face > coface)  # a face sorts after its coface when its value is larger
    if bad.any():
        k = np.flatnonzero(bad)[slots[bad].argmin()]
        simplex, omitted = complex_.simplices[owner[k]][0], slots[k] - starts[owner[k]]
        raise (NonMonotoneError if found[k] else MissingFaceError)(simplex, facets(simplex)[omitted])
    coface *= 2
    slots -= starts[owner]  # the omitted vertex, whose parity is the boundary sign
    coface += slots % 2
    del slots, owner, found, bad
    offsets = array("q", np.concatenate(([0], np.cumsum(np.bincount(face, minlength=n)))).tobytes())
    coface = coface[np.argsort(face)]
    return array("q", canon.tobytes()), sizes[canon], values[canon], array("q", coface.tobytes()), offsets


def lower_star(vertex_values: Mapping[int, float], simplices: Iterable[Iterable[int]]) -> FilteredComplex:
    """Sublevel filtration of a vertex function: each simplex gets the max of its vertex values."""
    vertex_values = {v: float(t) for v, t in vertex_values.items()}
    simplices = [tuple(raw) for raw in simplices]
    for v in chain.from_iterable(simplices):
        if v not in vertex_values:
            raise MissingVertexValueError(v)
    return FilteredComplex((s, max(map(vertex_values.__getitem__, s), default=math.nan)) for s in simplices)


def compute_persistence(complex_: FilteredComplex, field: PrimeField = GF2) -> Barcode:
    """Barcode of the sublevel filtration's homology over F_p, all degrees.
    Finite bars are closed-left/open-right ``[b, e)``; unpaired cycles give
    essential bars ``[b, inf)``.  A pair born and killed at one value is in
    no sublevel set's homology, so it gives no bar."""
    _, sizes, values, _, _ = complex_._table
    pairs, essential = _reduce(complex_, len(sizes), field)
    dim, value = (sizes - 1).tolist(), values.tolist()
    born, died = zip(*pairs) if pairs else ((), ())
    counts = Counter(zip(map(dim.__getitem__, born), map(value.__getitem__, born), map(value.__getitem__, died)))
    counts.update(zip(map(dim.__getitem__, essential), map(value.__getitem__, essential), repeat(POS_INF)))
    bars = []  # counted first: one Interval per distinct bar, its repeats one shared tuple that Barcode keeps
    for (degree, birth, death), multiplicity in counts.items():
        if birth < death:
            bars += [(degree, Interval(birth, death, True, False))] * multiplicity
    return Barcode(bars)


def _reduce(complex_: FilteredComplex, n: int, field: PrimeField) -> Tuple[list, list]:
    """Cohomology reduction with clearing of the first n simplices of the
    canonical order: the (birth, death) position pairs and the unpaired
    positions, which are the essential bars.  Column j is the coboundary of
    simplex j within the prefix, its pivot its earliest cofacet; columns go
    by ascending dimension, each in reverse filtration order.  This reduces
    the anti-transposed boundary matrix, pairing j with its pivot as the
    boundary reduction pairs the pivot with j (de Silva, Morozov &
    Vejdemo-Johansson).  A death's column reduces to zero, so it is skipped
    (clearing); columns are scaled to pivot 1, so eliminations need no inverse."""
    (_, sizes, _, cofacets, offsets), p = complex_._table, field.p
    pairs, essential, deaths, sizes = [], [], set(), sizes[:n]
    limit = 2 * n  # cofacet codes at positions >= n lie outside the prefix
    for size in range(1, int(sizes.max(initial=0)) + 1):
        pivots: Dict[int, Dict[int, int]] = {}  # reduced columns by pivot; no later dimension reads them
        for j in np.flatnonzero(sizes == size)[::-1].tolist():
            if j in deaths:
                continue
            col = {c >> 1: (p - 1 if c & 1 else 1) for c in cofacets[offsets[j]:offsets[j + 1]] if c < limit}
            while col:
                low = min(col)
                other = pivots.get(low)
                if other is None:
                    break
                factor = col[low]
                for row, coeff in other.items():
                    updated = (col.get(row, 0) - factor * coeff) % p
                    if updated:
                        col[row] = updated
                    else:
                        del col[row]
            if col:
                scale = 1 if col[low] == 1 else field.inv(col[low])  # never inverts over F2
                pivots[low] = col if scale == 1 else {r: c * scale % p for r, c in col.items()}
                deaths.add(low)
                pairs.append((j, low))
            else:
                essential.append(j)
    return pairs, essential


def homology_ranks(complex_: FilteredComplex, field: PrimeField = GF2) -> Tuple[int, ...]:
    """Unreduced Betti numbers of the whole complex over F_p, one per degree
    up to the top one, (0,) when empty: its essential bars by degree."""
    sizes = complex_._table[1]
    essential = sizes[_reduce(complex_, len(sizes), field)[1]]
    return tuple(np.bincount(essential - 1, minlength=int(sizes.max(initial=1))).tolist())


def betti_at(complex_: FilteredComplex, t: float, d: int, field: PrimeField = GF2) -> int:
    """dim H_d of the sublevel complex at value t over F_p, by reducing that
    prefix of the canonical order.  A NaN t or a non-integer d raises ValueError."""
    t, d = query_value(t, "t"), integer_value(d, "degree")
    _, sizes, values, _, _ = complex_._table
    n = int(np.searchsorted(values, t, side="right"))
    return int(np.count_nonzero(sizes[_reduce(complex_, n, field)[1]] == d + 1))


def euler_profile(complex_: FilteredComplex) -> Tuple[Tuple[float, int], ...]:
    """Euler characteristic of the sublevel complex at each distinct value."""
    _, sizes, values, _, _ = complex_._table
    chi = np.cumsum(2 * (sizes % 2) - 1)  # +1 per even-dimensional simplex, -1 per odd
    return tuple(dict(zip(values.tolist(), chi.tolist())).items())  # the last chi at each value


__all__ = [
    "Simplex", "FilteredComplex", "ComplexValidationError", "NonFiniteValueError", "DuplicateSimplexError",
    "MissingFaceError", "NonMonotoneError", "NonIntegerVertexError", "MissingVertexValueError", "facets", "validate",
    "lower_star", "compute_persistence", "homology_ranks", "betti_at", "euler_profile",
]
