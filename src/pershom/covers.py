"""Finite covers, nerve and Vietoris complexes, and the Dowker rank check.

The nerve records which subfamilies of cover sets intersect; the Vietoris
complex records which finite subsets of the ground set fit inside a single
cover element.  Both are `FilteredComplex`es with every simplex at value 0.
Each id is checked once, where it enters: by `Cover`, or made as a set
position; each complex is validated once, at construction, like any other.
Dowker's duality makes the two homotopy equivalent, and the testable shadow
of that here is degreewise equality of Betti numbers, which `dowker_check`
finds by reducing both complexes as one, their disjoint union.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from operator import index
from typing import FrozenSet, Hashable, Iterable, List, Sequence, Set, Tuple

import numpy as np

from .barcode import TooLargeError, query_value, real_array
from .filtration import GF2, FilteredComplex, PrimeField, Simplex, _pairs

# Most simplices `vietoris` may enumerate, counted as the nonempty subsets of
# each cover set, and `nerve`, counted as the nonempty subfamilies of the sets
# holding each element; two 13-element sets count 16,382, one 30-element set 2^30 - 1.
VIETORIS_LIMIT = 100_000


class CoverSetError(ValueError):
    """A defective cover set: ``index`` is its position, ``name`` its id."""

    def __init__(self, index: int, name: Hashable, message: str):
        self.index = index
        self.name = name
        super().__init__(message)


@dataclass(frozen=True)
class Cover:
    """A finite ground set and a sequence of named subsets.

    The union of the subsets may miss part of the ground set; uncovered
    elements are invisible to both the nerve and the Vietoris complex.  Ids
    are integers by `operator.index`, the vertex-id rule.  The first set with
    a non-integer element, a repeated id or an element outside the ground set
    raises `CoverSetError`; a non-integer ground id raises ValueError.
    """

    ground: FrozenSet[int]
    sets: Tuple[Tuple[Hashable, FrozenSet[int]], ...]

    def __init__(self, sets: Iterable[Tuple[Hashable, Iterable[int]]], ground: Iterable[int] = None):
        entries = []
        for position, (name, elems) in enumerate(sets):
            try:  # operator.index refuses the floats and strings that int() would truncate or parse
                entries.append((name, frozenset(map(index, elems))))
            except TypeError as exc:
                raise CoverSetError(position, name, f"cover set {name!r} has a non-integer element: {exc}") from None
        if ground is None:
            ground_set = frozenset().union(*(elems for _, elems in entries))
        else:
            try:
                ground_set = frozenset(map(index, ground))
            except TypeError as exc:
                raise ValueError(f"the ground set has a non-integer element: {exc}") from None
        seen = set()
        for position, (name, elems) in enumerate(entries):
            if name in seen:
                raise CoverSetError(position, name, f"duplicate cover set id {name!r}")
            if not elems <= ground_set:
                raise CoverSetError(position, name, f"cover set {name!r} is not contained in the ground set")
            seen.add(name)
        object.__setattr__(self, "ground", ground_set)
        object.__setattr__(self, "sets", tuple(entries))


def _refuse(what: str, bound: int) -> None:
    if bound > VIETORIS_LIMIT:
        raise TooLargeError(f"the {what} could have up to {bound} simplices, over {VIETORIS_LIMIT}")


def _ranked(members: Sequence[FrozenSet[int]], first: int) -> List[List[int]]:
    """Each set's elements, ascending, relabelled first + their rank among the covered elements."""
    covered = sorted(frozenset().union(*members))
    label = dict(zip(covered, range(first, first + len(covered))))
    return [sorted(map(label.__getitem__, elems)) for elems in members]


def _nerve_rows(ranked: Sequence[Sequence[int]]) -> List[Simplex]:
    """The subfamilies with a common element, as tuples of set positions,
    grown by one set at a time with each intersection a bit mask over the
    ranks; an intersection can only shrink, so faces come before cofaces."""
    masks = [sum(map((1).__lshift__, ranks)) for ranks in ranked]
    frontier = [((i,), mask) for i, mask in enumerate(masks) if mask]
    rows = [verts for verts, _ in frontier]
    while frontier:
        frontier = [(verts + (j,), meet) for verts, common in frontier
                    for j in range(verts[-1] + 1, len(masks)) if (meet := common & masks[j])]
        rows.extend(verts for verts, _ in frontier)
    return rows


def _vietoris_rows(ranked: Iterable[Sequence[int]]) -> Set[Simplex]:
    """The nonempty subsets of each ascending set, once each."""
    return set(chain.from_iterable(combinations(verts, k) for verts in ranked for k in range(1, len(verts) + 1)))


def _nerve_bound(members: Sequence[FrozenSet[int]]) -> int:
    return sum(2 ** count - 1 for count in Counter(chain.from_iterable(members)).values())


def nerve(cover: Cover) -> FilteredComplex:
    """Simplices are index sets of cover subfamilies with nonempty intersection.

    Vertex i of the result stands for ``cover.sets[i]``.  Raises TooLargeError,
    before enumerating anything, when the sets holding each element have more
    than VIETORIS_LIMIT nonempty subfamilies between them, a bound on its size.
    """
    members = [elems for _, elems in cover.sets]
    _refuse("nerve", _nerve_bound(members))
    rows = _nerve_rows(_ranked(members, 0))
    return FilteredComplex._from_rows(rows, np.zeros(len(rows)))


def vietoris(cover: Cover) -> FilteredComplex:
    """Simplices are the finite subsets of the ground set lying inside some
    cover element.

    Raises TooLargeError, before enumerating anything, when the cover sets
    have more than VIETORIS_LIMIT nonempty subsets between them.
    """
    _refuse("Vietoris complex", sum(2 ** len(elems) - 1 for _, elems in cover.sets))
    rows = _vietoris_rows(sorted(elems) for _, elems in cover.sets)
    return FilteredComplex._from_rows(rows, np.zeros(len(rows)))


def dowker_check(cover: Cover, field: PrimeField = GF2):
    """Compare nerve and Vietoris Betti numbers degreewise (zero padded).

    Returns (agree, nerve_ranks, vietoris_ranks), each as `homology_ranks`
    gives it.  Both are refused as `nerve` and `vietoris` refuse them, then
    built and reduced as one complex, the Vietoris ids relabelled past the
    nerve's; no cofacet joins the two, so each side keeps its own essentials.
    """
    members = [elems for _, elems in cover.sets]
    _refuse("nerve", _nerve_bound(members))
    _refuse("Vietoris complex", sum(2 ** len(elems) - 1 for elems in members))
    ranked = _ranked(members, len(members))
    rows = _nerve_rows(ranked)
    split = len(rows)
    rows.extend(_vietoris_rows(ranked))
    union = FilteredComplex._from_rows(rows, np.zeros(len(rows)))
    essential = _pairs(union, field)[2]
    entry, sizes = union._table[:2]  # by canonical position
    in_nerve, listed = entry[essential] < split, union._arrays[1]
    nerve_ranks, vietoris_ranks = (
        tuple(np.bincount(sizes[essential[side]] - 1, minlength=int(own.max(initial=1))).tolist())
        for side, own in ((in_nerve, listed[:split]), (~in_nerve, listed[split:])))
    short = len(vietoris_ranks) - len(nerve_ranks)  # zero padded to compare; (0,) * -1 is ()
    return nerve_ranks + (0,) * short == vietoris_ranks + (0,) * -short, nerve_ranks, vietoris_ranks


def balls_cover(distances: Sequence[Sequence[float]], delta: float) -> Cover:
    """The cover of a finite metric space by open balls of radius delta.

    ``distances`` is a square symmetric matrix with zero diagonal; point ids
    are row indices and cover set i is {j : dist(i, j) < delta}.  A NaN or
    text radius or entry raises ValueError.
    """
    delta = query_value(delta, "delta")
    if delta <= 0:
        raise ValueError(f"requires delta > 0, got {delta}")
    mat = real_array(distances, "distance matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {mat.shape}")
    if (mat < 0).any():
        raise ValueError("distances must be nonnegative")
    if not np.array_equal(mat, mat.T):
        raise ValueError("distance matrix must be symmetric")
    if np.diagonal(mat).any():
        raise ValueError("distance matrix must have zero diagonal")
    return Cover(enumerate(np.flatnonzero(row < delta).tolist() for row in mat), ground=range(mat.shape[0]))


__all__ = [
    "Cover",
    "CoverSetError",
    "nerve",
    "vietoris",
    "VIETORIS_LIMIT",
    "dowker_check",
    "balls_cover",
]
