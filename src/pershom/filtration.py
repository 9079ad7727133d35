"""Finite filtered simplicial complexes and their persistent homology.

Simplices are strictly increasing integer tuples carrying a filtration
value; the complex must be face-closed and the values monotone under
inclusion.  A complex keeps its entries as flat vertex, size and value
arrays.  Construction codes each simplex as one integer, sorts them into
the canonical order (value, dimension, lexicographic vertices), where faces
precede cofaces, and keeps each simplex's cofacets as positions in it.

One engine, `_reduce`, finds the persistence pairs of that order over a
prime field once per complex and field; persistence, Betti numbers and
Dowker ranks all read them, as a prefix's pairing is the pairs inside it.
The pairing of a total order is unique, so it is found in three stages,
each taking what the one before left: apparent pairs in numpy (Bauer,
*Ripser*, 2021), degree 0 by union-find with the elder rule (Edelsbrunner,
Letscher & Zomorodian, 2002), and persistent cohomology, which has the pairs
of homology (de Silva, Morozov & Vejdemo-Johansson, *Dualities in persistent
(co)homology*, 2011), reduced with clearing over only the columns still
unpaired whose coboundary is not empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from operator import ge, index, is_
from typing import Collection, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .barcode import _TEXT, Barcode, _int_array, integer_value, query_value
from .diagram import PersistenceDiagram, _from_rows

Simplex = Tuple[int, ...]


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, the coefficients of the reduction; any
    prime 2 <= p < 2**31 is accepted."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", integer_value(self.p, "characteristic"))
        if not (2 <= self.p < 2**31):
            raise ValueError(f"characteristic out of range: {self.p}")
        if any(self.p % d == 0 for d in range(2, math.isqrt(self.p) + 1)):  # at most 46,339 divisions
            raise ValueError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)


GF2 = PrimeField(2)
GF3 = PrimeField(3)


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


class TextValueError(ComplexValidationError):
    """A filtration value that numpy would read silently: text, which it
    parses, or None, which it reads as NaN."""

    def __init__(self, simplex: Simplex, value: object):
        self.simplex = simplex
        given = "None" if value is None else f"the text {value!r}"
        super().__init__(f"simplex {simplex} has {given} as its filtration value, not a number")


class NonIntegerVertexError(ComplexValidationError):
    def __init__(self, simplex: Sequence[object]):
        self.simplex = simplex
        super().__init__(f"simplex {simplex} has a vertex id that is not an integer")


class MissingVertexValueError(ValueError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"no value for vertex {vertex}")


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
            vertices = _int_array(list(map(index, chain.from_iterable(rows))))
        except TypeError as exc:
            for row in rows:
                try:
                    list(map(index, row))
                except TypeError:
                    raise NonIntegerVertexError(row) from exc
            raise
        if any(map(is_, values, repeat(None))) or any(map(isinstance, values, repeat(_TEXT))):
            raise TextValueError(*next((row, v) for row, v in zip(rows, values) if v is None or isinstance(v, _TEXT)))
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
        return cls._from_arrays(_int_array(list(chain.from_iterable(rows))), sizes, values)

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
            object.__setattr__(self, "_order", tuple(map(self.simplices.__getitem__, self._table[0].tolist())))
        return self._order


def validate(complex_: FilteredComplex) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check every entry of the complex's flat arrays, then face-closure and
    monotonicity, naming the first offender in input order.  Return numpy
    arrays: the canonical order (int64 entry indices, sizes, values) and
    each simplex's cofacets, flat int64 with int64 offsets, coded as
    position * 2 + parity of the omitted vertex (the boundary sign); `_reduce`
    reads the last two through memoryviews.  With vertex ranks q_0 > ... >
    q_k from the largest vertex, a simplex is the integer sum_i C(q_i, k-i+1)
    (the combinatorial number system, as in Ripser); omitting vertex i
    subtracts C(q_i, k-i+1) and C(q_l, k-l+1) - C(q_l, k-l) for each l < i,
    so one cumulative sum gives every facet.  Codes are int64 where they
    fit, else Python ints.  Ids from 0 to below four per vertex slot are
    ranked by counting, others by sorting.  Each facet's cofacets, found as
    one run, move to its offset whole, in no set order."""
    vertices, sizes, values = complex_._arrays
    n = len(sizes)
    if vertices.dtype == np.int64 and len(vertices) and vertices.min() >= 0 and vertices.max() < 4 * len(vertices):
        upto = (np.bincount(vertices) > 0).cumsum()  # the ids up to each, counted
        count, q = int(upto[-1]), upto[-1] - upto[vertices]  # ranks from the largest vertex
    else:
        ids, q = np.unique(vertices, return_inverse=True)
        count, q = len(ids), len(ids) - 1 - q
    seg = np.repeat(np.arange(n, dtype=np.int32), sizes)  # the entry of each vertex slot
    defects = (sizes == 0) | ~np.isfinite(values)
    defects[seg[1:][(seg[1:] == seg[:-1]) & (q[1:] >= q[:-1])]] = True  # ranks must fall
    if defects.any():
        simplex, value = complex_.simplices[int(defects.argmax())]
        if not simplex or any(map(ge, simplex, simplex[1:])):  # before the value, as listed
            raise ValueError(f"vertices must be strictly increasing, got {simplex}" if simplex else "empty simplex")
        raise NonFiniteValueError(simplex, value)
    width = int(sizes.max(initial=0))
    above = math.comb(count, min(width, count // 2)) + 1  # above every code
    binom = np.zeros((count, width + 1), np.int64 if above * width < 2**63 else object)  # keys <= width * above
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
    rank = np.empty(n, np.intp)
    rank[perm] = np.arange(n)  # the inverse permutation: each entry's position by (size, lex)
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
    counts = np.bincount(face, minlength=n)
    offsets = np.concatenate(([0], counts.cumsum()))
    heads = np.concatenate((face[:1] >= 0, face[1:] != face[:-1])).nonzero()[0]  # face keys sorted: a run per face
    dest = np.arange(len(face))
    dest += (offsets[face[heads]] - heads).repeat(counts[face[heads]])
    placed = np.empty_like(coface)
    placed[dest] = coface
    return canon, sizes[canon], values[canon], placed, offsets


def lower_star(vertex_values: Mapping[int, float], simplices: Iterable[Iterable[int]]) -> FilteredComplex:
    """Sublevel filtration of a vertex function: each simplex gets the max of
    its vertex values.  A value given as text raises ValueError naming its vertex."""
    for v, t in vertex_values.items():
        if isinstance(t, _TEXT):  # `float` would parse it
            raise ValueError(f"vertex {v} has the text {t!r} as its value, not a number")
    vertex_values = {v: float(t) for v, t in vertex_values.items()}
    simplices = [tuple(raw) for raw in simplices]
    for v in chain.from_iterable(simplices):
        if v not in vertex_values:
            raise MissingVertexValueError(v)
    return FilteredComplex((s, max(map(vertex_values.__getitem__, s), default=math.nan)) for s in simplices)


def _bars(complex_: FilteredComplex, field: PrimeField) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degree, birth and death of each bar of the complex over F_p, the
    finite bars first, an essential bar's death +inf.  A pair born and
    killed at one value is in no sublevel set's homology, so a mask drops it."""
    _, sizes, values, _, _ = complex_._table
    born, died, essential = _pairs(complex_, field)
    kept = values[born] < values[died]
    born, died = born[kept], died[kept]
    births = np.concatenate((born, essential))
    return sizes[births] - 1, values[births], np.concatenate((values[died], np.full(len(essential), np.inf)))


def compute_persistence(complex_: FilteredComplex, field: PrimeField = GF2) -> Barcode:
    """Barcode of the sublevel filtration's homology over F_p, all degrees.
    Finite bars are closed-left/open-right ``[b, e)``; unpaired cycles give
    essential bars ``[b, inf)``.  A pair born and killed at one value is in
    no sublevel set's homology, so it gives no bar.  No Interval is made."""
    degree, birth, death = _bars(complex_, field)
    return Barcode._from_arrays(degree, birth, death, np.ones(len(degree), bool), np.zeros(len(degree), bool))


def persistence_diagram(complex_: FilteredComplex, field: PrimeField = GF2) -> PersistenceDiagram:
    """The persistence diagram of the complex over F_p, equal to
    ``diagram_of(compute_persistence(complex_, field))``: its bars, one row
    each, counted by the diagram's bulk constructor without a Barcode."""
    degree, birth, death = _bars(complex_, field)
    return _from_rows(degree, birth, death, np.ones(len(degree), np.int64))


def _column(cofacets: memoryview, offsets: memoryview, j: int, p: int) -> Dict[int, int]:
    """The coboundary of simplex j, read from memoryviews of the face table:
    each cofacet's position and its coefficient, +1 or -1 by the omitted vertex's parity."""
    return {c >> 1: (p - 1 if c & 1 else 1) for c in cofacets[offsets[j]:offsets[j + 1]]}


def _pairs(complex_: FilteredComplex, field: PrimeField) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_reduce` of the complex over F_p, run once per field and kept with the complex."""
    if not isinstance(field, PrimeField):  # every public reading of the pairs enters here
        raise TypeError(f"field must be a PrimeField, got {field!r}")
    kept = complex_.__dict__.setdefault("_pairs", {})  # by field.p, beside `simplices` and `_order`
    return kept[field.p] if field.p in kept else kept.setdefault(field.p, _reduce(complex_, field))


def _reduce(complex_: FilteredComplex, field: PrimeField) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Persistence pairs of the canonical order: the birth and the death
    positions of each pair, and the unpaired positions, which are the
    essential bars, each listed by ascending dimension, then descending
    (birth) position.  The pairing of a total order is unique, so three
    stages may each find part of it:

    1. Apparent pairs, in numpy: simplex j of dimension >= 1 pairs with its
       earliest cofacet c when j is c's latest facet (Bauer, *Ripser:
       efficient computation of Vietoris-Rips persistence barcodes*, 2021).
    2. Degree 0 by union-find over the edges that are not apparent births,
       in canonical order: an edge joining two components kills the root
       that comes later (the elder rule of Edelsbrunner, Letscher &
       Zomorodian, *Topological persistence and simplification*, 2002).
    3. Cohomology reduction with clearing (de Silva, Morozov &
       Vejdemo-Johansson, *Dualities in persistent (co)homology*, 2011), by
       ascending dimension, each in reverse filtration order, of only the
       columns not yet paired whose coboundary is not empty.  Column j is
       the coboundary of simplex j, its pivot its earliest cofacet.  Reduced
       columns are kept by pivot, scaled to pivot 1, so eliminations need no
       inverse; an apparent death met as a pivot gets its partner's column,
       built when first needed and negated when its pivot is -1 (never over
       F2).

    A column that reduces to zero, like one with an empty coboundary and no
    partner, is a cycle that nothing kills: every simplex left unpaired is essential."""
    (_, sizes, _, cofacets, offsets), p, n = complex_._table, field.p, len(complex_)
    face, coface = np.repeat(np.arange(n), np.diff(offsets)), cofacets >> 1
    cofacets, offsets = memoryview(cofacets), memoryview(offsets)  # `_column` slices Python ints out of these
    earliest, latest = np.full(n, n), np.full(n, -1)
    np.minimum.at(earliest, face, coface)
    np.maximum.at(latest, coface, face)
    births = np.flatnonzero((sizes > 1) & (earliest < n))
    births = births[latest[earliest[births]] == births]
    deaths = earliest[births]
    paired = np.zeros(n, bool)
    paired[births] = paired[deaths] = True
    birth_of = np.full(n, -1)
    birth_of[deaths] = births

    vertices, edges = np.flatnonzero(sizes == 1), np.flatnonzero(sizes == 2)
    vertex_index = np.cumsum(sizes == 1) - 1  # at each vertex's position, its index among the vertices
    on_edge = sizes[coface] == 2
    ends_of = vertex_index[face[on_edge][np.argsort(coface[on_edge], kind="stable")]].reshape(-1, 2)
    merging = ~paired[edges]  # an apparent birth closes a cycle, so it joins nothing
    parent, young, killers = list(range(len(vertices))), [], []
    for e, u, v in zip(edges[merging].tolist(), *ends_of[merging].T.tolist()):
        while u != parent[u]:
            parent[u] = u = parent[parent[u]]  # path halving
        while v != parent[v]:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u > v:
                u, v = v, u
            parent[v] = u
            young.append(v)
            killers.append(e)
    births, deaths = [births, vertices[young]], [deaths, np.array(killers, np.intp)]
    paired[births[1]] = paired[deaths[1]] = True

    for size in range(2, int(sizes.max(initial=0)) + 1):
        pivots: Dict[int, Dict[int, int]] = {}  # reduced columns by pivot; no later dimension reads them
        found, killed = [], []
        for j in np.flatnonzero((sizes == size) & ~paired & (earliest < n))[::-1].tolist():
            col = _column(cofacets, offsets, j, p)
            while col:
                low = min(col)
                other = pivots.get(low)
                if other is None:
                    partner = int(birth_of[low])
                    if partner < 0:
                        break
                    other = _column(cofacets, offsets, partner, p)
                    if other[low] != 1:
                        other = {row: p - coeff for row, coeff in other.items()}
                    pivots[low] = other
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
                found.append(j)
                killed.append(low)
        births.append(np.array(found, np.intp))
        deaths.append(np.array(killed, np.intp))
        paired[found] = paired[killed] = True

    births, deaths, essential = np.concatenate(births), np.concatenate(deaths), np.flatnonzero(~paired)
    order = np.lexsort((-births, sizes[births]))
    return births[order], deaths[order], essential[np.lexsort((-essential, sizes[essential]))]


def homology_ranks(complex_: FilteredComplex, field: PrimeField = GF2) -> Tuple[int, ...]:
    """Unreduced Betti numbers of the whole complex over F_p, one per degree
    up to the top one, (0,) when empty: its essential bars by degree."""
    sizes = complex_._table[1]
    essential = sizes[_pairs(complex_, field)[2]]
    return tuple(np.bincount(essential - 1, minlength=int(sizes.max(initial=1))).tolist())


def betti_at(complex_: FilteredComplex, t: float, d: int, field: PrimeField = GF2) -> int:
    """dim H_d of the sublevel complex at value t over F_p: the degree-d
    pairs of the kept pairing born in that prefix of the canonical order and
    killed after it, and its degree-d essential positions.  A NaN t or a
    non-integer d raises ValueError."""
    t, d = query_value(t, "t"), integer_value(d, "degree")
    _, sizes, values, _, _ = complex_._table
    n = int(np.searchsorted(values, t, side="right"))
    born, died, essential = _pairs(complex_, field)
    alive = (sizes[born] == d + 1) & (born < n) & (died >= n)
    return int(np.count_nonzero(alive) + np.count_nonzero(sizes[essential[essential < n]] == d + 1))


def euler_profile(complex_: FilteredComplex) -> Tuple[Tuple[float, int], ...]:
    """Euler characteristic of the sublevel complex at each distinct value."""
    _, sizes, values, _, _ = complex_._table
    chi = np.cumsum(2 * (sizes % 2) - 1)  # +1 per even-dimensional simplex, -1 per odd
    return tuple(dict(zip(values.tolist(), chi.tolist())).items())  # the last chi at each value


__all__ = [
    "PrimeField", "GF2", "GF3", "Simplex", "FilteredComplex", "ComplexValidationError", "NonFiniteValueError",
    "TextValueError", "DuplicateSimplexError", "MissingFaceError", "NonMonotoneError", "NonIntegerVertexError",
    "MissingVertexValueError", "facets", "validate", "lower_star", "compute_persistence", "persistence_diagram",
    "homology_ranks", "betti_at", "euler_profile",
]
