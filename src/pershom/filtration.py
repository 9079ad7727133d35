"""Finite filtered simplicial complexes and their persistent homology.

Simplices are strictly increasing integer tuples carrying a filtration
value; the complex must be face-closed and the values monotone under
inclusion.  Construction sorts them once into the canonical order (value,
dimension, lexicographic vertices), where faces precede cofaces whatever the
input listing, and keeps each simplex's cofacets as positions in it.

Persistence is persistent cohomology over a prime field, which has the
pairs of homology (de Silva, Morozov & Vejdemo-Johansson, *Dualities in
persistent (co)homology*, 2011), reduced with clearing as in Bauer's Ripser.
That one reduction is the only homology engine: the Betti numbers of a
complex are the counts of its essential bars.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import ge
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .barcode import POS_INF, Barcode, Interval
from .linalg import GF2, PrimeField

Simplex = Tuple[int, ...]


class ComplexValidationError(ValueError):
    """Base for defects of a filtered complex; ``simplex`` names the offender."""


class NonFiniteValueError(ComplexValidationError):
    def __init__(self, simplex: Simplex, value: float):
        self.simplex = simplex
        kind = "a NaN" if math.isnan(value) else "an infinite"
        super().__init__(f"simplex {simplex} has {kind} filtration value")


class DuplicateSimplexError(ComplexValidationError):
    def __init__(self, simplex: Simplex):
        self.simplex = simplex
        super().__init__(f"duplicate simplex {simplex}")


class MissingFaceError(ComplexValidationError):
    def __init__(self, simplex: Simplex, face: Simplex):
        self.simplex = simplex
        self.face = face
        super().__init__(f"simplex {simplex} is missing its face {face}")


class NonMonotoneError(ComplexValidationError):
    def __init__(self, simplex: Simplex, face: Simplex):
        self.simplex = simplex
        self.face = face
        super().__init__(f"simplex {simplex} has a later-born face {face}")


class MissingVertexValueError(ValueError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"no value for vertex {vertex}")


def _as_simplex(verts: Iterable[int]) -> Simplex:
    verts = tuple(map(int, verts))
    if not verts:
        raise ValueError("empty simplex")
    if any(map(ge, verts, verts[1:])):
        raise ValueError(f"vertices must be strictly increasing, got {verts}")
    return verts


def facets(simplex: Simplex) -> Tuple[Simplex, ...]:
    """All codimension-1 faces, in vertex-omission order."""
    if len(simplex) == 1:
        return ()
    # `combinations` lists them by omitting the last vertex first.
    return tuple(combinations(simplex, len(simplex) - 1))[::-1]


@dataclass(frozen=True)
class FilteredComplex:
    """A face-closed simplex list with finite values, monotone under
    inclusion.  Construction checks all of this, so every instance is valid;
    defects raise a `ComplexValidationError` naming the first offender."""

    simplices: Tuple[Tuple[Simplex, float], ...]

    def __init__(self, simplices: Iterable[Tuple[Iterable[int], float]]):
        entries = []
        for verts, t in simplices:
            simplex, value = _as_simplex(verts), float(t)
            if not math.isfinite(value):
                raise NonFiniteValueError(simplex, value)
            entries.append((simplex, value))
        object.__setattr__(self, "simplices", tuple(entries))
        object.__setattr__(self, "_table", validate(self))  # (canonical order, cofacets)

    def __len__(self) -> int:
        return len(self.simplices)

    def value_of(self, simplex: Simplex) -> float:
        return dict(self.simplices)[simplex]

    def values(self) -> Tuple[float, ...]:
        """Distinct filtration values, sorted."""
        return tuple(sorted({t for _, t in self.simplices}))

    def sorted_simplices(self) -> Tuple[Tuple[Simplex, float], ...]:
        """Canonical reduction order: (value, dimension, lexicographic)."""
        return self._table[0]

    def sublevel(self, t: float) -> Tuple[Simplex, ...]:
        return tuple(s for s, v in self.simplices if v <= t)


def validate(complex_: FilteredComplex) -> Tuple[Tuple[Tuple[Simplex, float], ...], List[List[int]]]:
    """Check face-closure and monotonicity, naming the first offender in input
    order; return the canonical order and each simplex's cofacets in it, coded
    as position * 2 + parity of the omitted vertex (the boundary sign)."""
    order = tuple(sorted(complex_.simplices, key=lambda e: (e[1], len(e[0]), e[0])))
    index = {simplex: i for i, (simplex, _) in enumerate(order)}
    if len(index) < len(order):
        seen: set = set()  # `seen.add` returns None, so this names the first repeat
        raise DuplicateSimplexError(next(s for s, _ in complex_.simplices if s in seen or seen.add(s)))
    cofacets: List[List[int]] = [()] * len(order)  # a list once a cofacet is found
    for simplex, _ in complex_.simplices:
        j = index[simplex]
        code, other = 2 * j, 2 * j + 1  # the parity flips with each omitted vertex
        for face in facets(simplex):
            k = index.get(face)
            if k is None:
                raise MissingFaceError(simplex, face)
            # A face sorts after its coface exactly when its value is larger.
            if k > j:
                raise NonMonotoneError(simplex, face)
            if cofacets[k]:
                cofacets[k].append(code)
            else:
                cofacets[k] = [code]
            code, other = other, code
    return order, cofacets


def lower_star(vertex_values: Mapping[int, float], simplices: Iterable[Iterable[int]]) -> FilteredComplex:
    """Sublevel filtration of a vertex function: each simplex gets the max
    of its vertex values."""
    vertex_values = {int(v): float(t) for v, t in vertex_values.items()}
    entries = []
    for raw in simplices:
        simplex = _as_simplex(raw)
        for v in simplex:
            if v not in vertex_values:
                raise MissingVertexValueError(v)
        entries.append((simplex, max(vertex_values[v] for v in simplex)))
    return FilteredComplex(entries)


def compute_persistence(
    complex_: FilteredComplex, field: PrimeField = GF2, keep_ephemeral: bool = False
) -> Barcode:
    """Barcode of the sublevel filtration's homology over F_p, all degrees.

    Finite bars are closed-left/open-right ``[b, e)``; unpaired cycles give
    essential bars ``[b, inf)``.  Zero-persistence pairings are dropped
    unless ``keep_ephemeral`` retains them as ``[v, v]`` singleton bars.
    """
    order = complex_.sorted_simplices()
    pairs, essential = _reduce(complex_, len(order), field)
    shared: Dict[Tuple[float, float], Interval] = {}  # equal bars share one immutable Interval
    bars = []
    for j, death in [(j, order[k][1]) for j, k in pairs] + [(j, POS_INF) for j in essential]:
        simplex, birth = order[j]
        if birth < death or keep_ephemeral:
            if (birth, death) not in shared:
                shared[birth, death] = Interval(birth, death, True, birth == death)  # [b, e) or [b, b]
            bars.append((len(simplex) - 1, shared[birth, death]))
    return Barcode(bars)


def _reduce(complex_: FilteredComplex, n: int, field: PrimeField) -> Tuple[list, list]:
    """Cohomology reduction with clearing of the first n simplices of the
    canonical order: the (birth, death) position pairs and the unpaired
    positions, which are the essential bars.

    Column j is the coboundary of simplex j within the prefix, its pivot its
    earliest cofacet.  Columns go by ascending dimension, each dimension in
    reverse filtration order: the reduction of the anti-transposed boundary
    matrix, which pairs j with its pivot as the boundary reduction pairs the
    pivot with j (de Silva, Morozov & Vejdemo-Johansson).  The column of a
    death reduces to zero, so it is skipped (clearing).  Stored columns are
    scaled to pivot coefficient 1, so an elimination needs no inverse.
    """
    (order, cofacets), p = complex_._table, field.p
    pairs, essential, deaths = [], [], set()
    limit = 2 * n  # cofacet codes at positions >= n lie outside the prefix
    # A stable sort keeps the reverse filtration order within each dimension.
    by_size = sorted(range(n - 1, -1, -1), key=lambda j: len(order[j][0]))
    for _, columns in groupby(by_size, key=lambda j: len(order[j][0])):
        pivots: Dict[int, Dict[int, int]] = {}  # reduced columns by pivot; no later dimension reads them
        for j in columns:
            if j in deaths:
                continue
            col = {c >> 1: (p - 1 if c & 1 else 1) for c in cofacets[j] if c < limit}
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
                scale = field.inv(col[low])
                pivots[low] = col if scale == 1 else {r: c * scale % p for r, c in col.items()}
                deaths.add(low)
                pairs.append((j, low))
            else:
                essential.append(j)
    return pairs, essential


def betti_numbers(simplices: Sequence[Simplex], field: PrimeField = GF2) -> Tuple[int, ...]:
    """Unreduced Betti numbers of a face-closed simplex set over F_p: with
    every simplex valued 0, the counts of unpaired simplices by degree."""
    complex_ = FilteredComplex((s, 0.0) for s in simplices)
    order = complex_.sorted_simplices()
    betti = [0] * (len(order[-1][0]) if order else 1)
    for j in _reduce(complex_, len(order), field)[1]:
        betti[len(order[j][0]) - 1] += 1
    return tuple(betti)


def betti_at(complex_: FilteredComplex, t: float, d: int, field: PrimeField = GF2) -> int:
    """dim H_d of the sublevel complex at value t over F_p, by reducing that
    prefix of the canonical order.  NaN raises ValueError."""
    if math.isnan(t):
        raise ValueError("betti_at requires a value that is not NaN")
    order = complex_.sorted_simplices()
    n = bisect_right(order, t, key=lambda e: e[1])
    return sum(1 for j in _reduce(complex_, n, field)[1] if len(order[j][0]) == d + 1)


def euler_profile(complex_: FilteredComplex) -> Tuple[Tuple[float, int], ...]:
    """Euler characteristic of the sublevel complex at each distinct value."""
    chi, profile = 0, {}
    for simplex, value in complex_.sorted_simplices():
        chi += 1 if len(simplex) % 2 else -1
        profile[value] = chi
    return tuple(profile.items())


__all__ = [
    "Simplex",
    "FilteredComplex",
    "ComplexValidationError",
    "NonFiniteValueError",
    "DuplicateSimplexError",
    "MissingFaceError",
    "NonMonotoneError",
    "MissingVertexValueError",
    "facets",
    "validate",
    "lower_star",
    "compute_persistence",
    "betti_numbers",
    "betti_at",
    "euler_profile",
]
