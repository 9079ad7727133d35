"""Finite filtered simplicial complexes and their persistent homology.

Simplices are strictly increasing integer tuples carrying a filtration
value; the complex must be face-closed and the values monotone under
inclusion.  Persistence is computed by left-to-right column reduction of
the boundary matrix over a prime field, with simplices ordered by
(value, dimension, lexicographic vertices) so faces always precede
cofaces and the output is independent of the input listing.  That one
reduction is the only homology engine: the Betti numbers of a complex
are the counts of its essential bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    verts = tuple(int(v) for v in verts)
    if not verts:
        raise ValueError("empty simplex")
    if any(a >= b for a, b in zip(verts, verts[1:])):
        raise ValueError(f"vertices must be strictly increasing, got {verts}")
    return verts


def facets(simplex: Simplex) -> Tuple[Simplex, ...]:
    """All codimension-1 faces, in vertex-omission order."""
    if len(simplex) == 1:
        return ()
    return tuple(simplex[:i] + simplex[i + 1 :] for i in range(len(simplex)))


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
        validate(self)

    def __len__(self) -> int:
        return len(self.simplices)

    def value_of(self, simplex: Simplex) -> float:
        return dict(self.simplices)[simplex]

    def values(self) -> Tuple[float, ...]:
        """Distinct filtration values, sorted."""
        return tuple(sorted({t for _, t in self.simplices}))

    def sorted_simplices(self) -> Tuple[Tuple[Simplex, float], ...]:
        """Canonical reduction order: (value, dimension, lexicographic)."""
        return tuple(sorted(self.simplices, key=lambda e: (e[1], len(e[0]), e[0])))

    def sublevel(self, t: float) -> Tuple[Simplex, ...]:
        return tuple(s for s, v in self.simplices if v <= t)


def validate(complex_: FilteredComplex) -> None:
    """Check face-closure and monotonicity, reporting the first offender."""
    values: Dict[Simplex, float] = {}
    for simplex, value in complex_.simplices:
        if simplex in values:
            raise DuplicateSimplexError(simplex)
        values[simplex] = value
    for simplex, value in complex_.simplices:
        for face in facets(simplex):
            if face not in values:
                raise MissingFaceError(simplex, face)
            if values[face] > value:
                raise NonMonotoneError(simplex, face)


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
    complex_: FilteredComplex,
    field: PrimeField = GF2,
    keep_ephemeral: bool = False,
) -> Barcode:
    """Barcode of the sublevel filtration's homology over F_p, all degrees.

    Finite bars are closed-left/open-right ``[b, e)``; unpaired cycles give
    essential bars ``[b, inf)``.  Zero-persistence pairings are dropped
    unless ``keep_ephemeral`` retains them as singleton bars for debugging.

    Parameters
    ----------
    complex_ : FilteredComplex
        Valid by construction.
    field : PrimeField
        Coefficient field, default F_2.
    keep_ephemeral : bool
        Keep ``[v, v]`` singleton bars for same-value pairings.
    """
    return _reduce(complex_.sorted_simplices(), field, keep_ephemeral)


def _reduce(order: Sequence[Tuple[Simplex, float]], field: PrimeField, keep_ephemeral: bool) -> Barcode:
    """The column reduction of `compute_persistence` over the entries of a
    valid complex, listed in an order that puts faces first."""
    index = {simplex: i for i, (simplex, _) in enumerate(order)}
    p = field.p

    # Reduced columns as {row index: nonzero coefficient} maps.
    columns: List[Dict[int, int]] = []
    pivot_of_row: Dict[int, int] = {}
    paired: set = set()
    bars = []

    for j, (simplex, value) in enumerate(order):
        col: Dict[int, int] = {}
        for i, face in enumerate(facets(simplex)):
            col[index[face]] = (1 if i % 2 == 0 else p - 1)
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
            elif keep_ephemeral:
                bars.append((degree, Interval.singleton(birth)))

    for j, (simplex, value) in enumerate(order):
        if not columns[j] and j not in paired:
            bars.append((len(simplex) - 1, Interval.closed_open(value, POS_INF)))
    return Barcode(bars)


def betti_numbers(simplices: Sequence[Simplex], field: PrimeField = GF2) -> Tuple[int, ...]:
    """Unreduced Betti numbers of a face-closed simplex set over F_p.

    Every simplex is born at 0, so every pairing has zero persistence and
    the barcode holds exactly the essential bars, one per homology class.
    """
    complex_ = FilteredComplex((s, 0.0) for s in simplices)
    return _betti([s for s, _ in complex_.simplices], field)


def _betti(simplices: Sequence[Simplex], field: PrimeField) -> Tuple[int, ...]:
    """`betti_numbers` of a face-closed simplex list, without checking it."""
    if not simplices:
        return (0,)
    order = sorted(((s, 0.0) for s in simplices), key=lambda e: (len(e[0]), e[0]))
    betti = [0] * len(order[-1][0])
    for d, _ in _reduce(order, field, False):
        betti[d] += 1
    return tuple(betti)


def betti_at(complex_: FilteredComplex, t: float, d: int, field: PrimeField = GF2) -> int:
    """dim H_d of the sublevel complex at value t, over F_p.

    Only the sublevel complex is reduced; being a sublevel set of a valid
    complex, it is valid too and is not checked again.  A NaN value raises
    ValueError.
    """
    if math.isnan(t):
        raise ValueError("betti_at requires a value that is not NaN")
    if d < 0:
        return 0
    betti = _betti(complex_.sublevel(t), field)
    return betti[d] if d < len(betti) else 0


def euler_profile(complex_: FilteredComplex) -> Tuple[Tuple[float, int], ...]:
    """Euler characteristic of the sublevel complex at each distinct value."""
    steps: Dict[float, int] = {}
    for simplex, value in complex_.simplices:
        steps[value] = steps.get(value, 0) + (-1) ** (len(simplex) - 1)
    out = []
    chi = 0
    for t in sorted(steps):
        chi += steps[t]
        out.append((t, chi))
    return tuple(out)


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
