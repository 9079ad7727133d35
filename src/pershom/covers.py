"""Finite covers, nerve and Vietoris complexes, and the Dowker rank check.

The nerve records which subfamilies of cover sets intersect; the Vietoris
complex records which finite subsets of the ground set fit inside a single
cover element.  Dowker's duality makes the two homotopy equivalent, and the
testable shadow of that here is degreewise equality of Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Hashable, Iterable, Sequence, Tuple

import numpy as np

from .bottleneck import TooLargeError
from .filtration import Simplex, betti_numbers, facets
from .linalg import GF2, PrimeField

# Most simplices `vietoris` may enumerate, counted as the nonempty subsets of
# each cover set; two 13-element sets count 16,382, one 30-element set 2^30 - 1.
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
    elements are invisible to both the nerve and the Vietoris complex.  The
    first set with a repeated id or an element outside the ground set raises
    `CoverSetError`.
    """

    ground: FrozenSet[int]
    sets: Tuple[Tuple[Hashable, FrozenSet[int]], ...]

    def __init__(self, sets: Iterable[Tuple[Hashable, Iterable[int]]], ground: Iterable[int] = None):
        entries = tuple((name, frozenset(int(e) for e in elems)) for name, elems in sets)
        if ground is None:
            ground_set = frozenset().union(*(elems for _, elems in entries)) if entries else frozenset()
        else:
            ground_set = frozenset(int(e) for e in ground)
        seen = set()
        for index, (name, elems) in enumerate(entries):
            if name in seen:
                raise CoverSetError(index, name, f"duplicate cover set id {name!r}")
            if not elems <= ground_set:
                raise CoverSetError(index, name, f"cover set {name!r} is not contained in the ground set")
            seen.add(name)
        object.__setattr__(self, "ground", ground_set)
        object.__setattr__(self, "sets", entries)


class SimplicialComplex:
    """A face-closed set of strictly increasing integer tuples."""

    __slots__ = ("_simplices",)

    def __init__(self, simplices: Iterable[Iterable[int]]):
        cleaned = set()
        for raw in simplices:
            simplex = tuple(int(v) for v in raw)
            if not simplex:
                raise ValueError("empty simplex")
            if any(a >= b for a, b in zip(simplex, simplex[1:])):
                raise ValueError(f"vertices must be strictly increasing, got {simplex}")
            cleaned.add(simplex)
        for simplex in cleaned:
            for face in facets(simplex):
                if face not in cleaned:
                    raise ValueError(f"not face-closed: {simplex} is missing {face}")
        object.__setattr__(self, "_simplices", frozenset(cleaned))

    @classmethod
    def from_maximal(cls, maximal: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build the closure of a family of (not necessarily maximal) simplices."""
        closure = set()
        for raw in maximal:
            verts = tuple(sorted({int(v) for v in raw}))
            for k in range(1, len(verts) + 1):
                closure.update(combinations(verts, k))
        return cls(closure)

    @property
    def simplices(self) -> FrozenSet[Simplex]:
        return self._simplices

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when empty."""
        if not self._simplices:
            return -1
        return max(len(s) for s in self._simplices) - 1

    def __len__(self) -> int:
        return len(self._simplices)

    def __contains__(self, simplex) -> bool:
        return tuple(simplex) in self._simplices

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._simplices == other._simplices

    def __le__(self, other: "SimplicialComplex") -> bool:
        """Subcomplex relation."""
        return self._simplices <= other._simplices

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __repr__(self):
        return f"SimplicialComplex({sorted(self._simplices)})"


def nerve(cover: Cover) -> SimplicialComplex:
    """Simplices are index sets of cover subfamilies with nonempty intersection.

    Vertex i of the result stands for ``cover.sets[i]``.
    """
    members = [elems for _, elems in cover.sets]
    # Grow by one set at a time; an intersection can only shrink, so every
    # face of a recorded simplex was recorded earlier.
    simplices = []
    frontier = []
    for i, elems in enumerate(members):
        if elems:
            frontier.append(((i,), elems))
    simplices.extend(frontier)
    while frontier:
        new_frontier = []
        for verts, common in frontier:
            for j in range(verts[-1] + 1, len(members)):
                meet = common & members[j]
                if meet:
                    new_frontier.append((verts + (j,), meet))
        simplices.extend(new_frontier)
        frontier = new_frontier
    return SimplicialComplex([verts for verts, _ in simplices])


def vietoris(cover: Cover) -> SimplicialComplex:
    """Simplices are the finite subsets of the ground set lying inside some
    cover element.

    Raises TooLargeError, before enumerating anything, when the cover sets
    have more than VIETORIS_LIMIT nonempty subsets between them.
    """
    bound = sum(2 ** len(elems) - 1 for _, elems in cover.sets)
    if bound > VIETORIS_LIMIT:
        raise TooLargeError(f"the Vietoris complex could have up to {bound} simplices, over {VIETORIS_LIMIT}")
    simplices = set()
    for _, elems in cover.sets:
        verts = tuple(sorted(elems))
        for k in range(1, len(verts) + 1):
            simplices.update(combinations(verts, k))
    return SimplicialComplex(simplices)


def homology_ranks(complex_: SimplicialComplex, field: PrimeField = GF2) -> Tuple[int, ...]:
    """Betti numbers over F_p for all degrees up to the complex's dimension."""
    return betti_numbers(sorted(complex_.simplices), field)


def dowker_check(cover: Cover, field: PrimeField = GF2):
    """Compare nerve and Vietoris Betti numbers degreewise (zero padded).

    Returns (agree, nerve_ranks, vietoris_ranks).
    """
    nerve_ranks = homology_ranks(nerve(cover), field)
    vietoris_ranks = homology_ranks(vietoris(cover), field)
    width = max(len(nerve_ranks), len(vietoris_ranks))
    padded_n = nerve_ranks + (0,) * (width - len(nerve_ranks))
    padded_v = vietoris_ranks + (0,) * (width - len(vietoris_ranks))
    return padded_n == padded_v, nerve_ranks, vietoris_ranks


def balls_cover(distances: Sequence[Sequence[float]], delta: float) -> Cover:
    """The cover of a finite metric space by open balls of radius delta.

    ``distances`` is a square symmetric matrix with zero diagonal; point ids
    are row indices and cover set i is {j : dist(i, j) < delta}.
    """
    if delta <= 0:
        raise ValueError(f"requires delta > 0, got {delta}")
    mat = np.asarray(distances, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {mat.shape}")
    if (mat < 0).any():
        raise ValueError("distances must be nonnegative")
    if not np.array_equal(mat, mat.T):
        raise ValueError("distance matrix must be symmetric")
    if np.diagonal(mat).any():
        raise ValueError("distance matrix must have zero diagonal")
    n = mat.shape[0]
    sets = [(i, [j for j in range(n) if mat[i, j] < delta]) for i in range(n)]
    return Cover(sets, ground=range(n))


__all__ = [
    "Cover",
    "CoverSetError",
    "SimplicialComplex",
    "nerve",
    "vietoris",
    "VIETORIS_LIMIT",
    "homology_ranks",
    "dowker_check",
    "balls_cover",
]
