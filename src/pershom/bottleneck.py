"""Bottleneck distance between persistence diagrams.

Ground cost between points is the L-infinity distance, with like infinite
coordinates at distance 0 and unlike ones at distance +inf; an unmatched
point pays half its lifetime, its true sup-distance to the diagonal.  So
each infinity class is matched on its own, by one routine that gives both
the distance and the `matching_at` witness.  A class with an infinite
coordinate leaves no point unmatched, so diagrams whose essential counts
differ are infinitely far apart.  Its points lie on a line, at their finite
coordinate, and a greedy walk along it matches them maximally at any
delta; at delta = inf it is the sorted pairing.

The finite class's costs are built once, as a numpy matrix, by the same
float expressions as the scalar helpers, and the optimum is located by a
search over their distinct values, so results are exact.  Feasibility of a
threshold delta is decided by a maximum matching on an augmented bipartite
graph in which each point has a private diagonal slot.  The slot block is
mirrored: the slot of b_j joins the slot of a_i exactly when a_i and b_j
are within delta of each other, in place of the complete block of the
usual construction.  Feasibility is unchanged, because the two slots of a
matched pair a_i, b_j can always pair off.  Each probe lists the graph's
edges at its delta from the matrix and matches by Hopcroft-Karp.

The search works from below, where the graphs are sparse.  Every point is
matched or sent to the diagonal, so no delta is feasible below the largest,
over the points, of the cheaper of a point's diagonal cost and its nearest
opposite point; that bound is one of the costs.  From it the search gallops
up the candidates (the bound, then 1, 3, 7, ... places above it) to the
first feasible one and bisects the last bracket, as in Efrat, Itai & Katz,
*Geometry helps in bottleneck matching* (Algorithmica 2001), and Kerber,
Morozov & Nigmetov, *Geometry helps to compare persistence diagrams* (ACM
JEA 2017).  A perfect matching is feasible already at its costliest edge,
which caps the bracket.  Each step's Hopcroft-Karp starts from the previous
step's matching: raising delta only adds edges, and lowering it drops the
matched edges above it.  `matching_at` makes the same probe, from the empty
matching, at its one delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import sub
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .barcode import POS_INF, Barcode, ExtendedReal, query_value
from .diagram import DiagramPoint, PersistenceDiagram, _made, diagram_of

BRUTE_FORCE_LIMIT = 8


class TooLargeError(ValueError):
    """An input too large to process: the brute-force oracle's diagrams, the
    simplices of a Vietoris complex, of an earring truncation or of all the
    truncations an earring sweep builds, or a Douglas quadrature grid."""


@dataclass(frozen=True)
class MatchingResult:
    """An explicit partial matching between two diagrams at a threshold;
    feasible or not, a maximum matching in every infinity class (of the
    augmented graph for the finite class, of the pairs within it for the rest)."""

    matched: Tuple[Tuple[DiagramPoint, DiagramPoint], ...]
    unmatched_a: Tuple[DiagramPoint, ...]
    unmatched_b: Tuple[DiagramPoint, ...]
    feasible: bool


def _expand(diagram: PersistenceDiagram, d: int) -> List[DiagramPoint]:
    return [pt for pt, mult in diagram.items(d) for _ in range(mult)]


def _infinity_class(pt: DiagramPoint) -> Tuple[bool, bool]:
    return (math.isfinite(pt.p), math.isfinite(pt.q))


def _pair_cost(a: DiagramPoint, b: DiagramPoint) -> float:
    if _infinity_class(a) != _infinity_class(b):
        return math.inf
    dp = abs(a.p - b.p) if math.isfinite(a.p) else 0.0
    dq = abs(a.q - b.q) if math.isfinite(a.q) else 0.0
    return max(dp, dq)


def _diagonal_cost(pt: DiagramPoint) -> float:
    if math.isfinite(pt.p) and math.isfinite(pt.q):
        return (pt.q - pt.p) / 2.0
    return math.inf


Side = Tuple[np.ndarray, np.ndarray]  # the births and deaths of a class's points in one diagram, one per copy


def _classes(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> Iterator[Tuple[Tuple[bool, bool], Side, Side]]:
    """Each infinity class that holds a degree-d point, in sorted order, with
    its points in a and in b, each side sorted, read from the diagrams'
    arrays with one entry per copy of a point."""
    sides = []
    for diagram in (a, b):
        p, q, mult = diagram.arrays(d)
        copies = mult.astype(np.intp)
        p, q = p.repeat(copies), q.repeat(copies)
        sides.append((p, q, 2 * np.isfinite(p) + np.isfinite(q)))  # the class as a number, in the order of the pairs
    for cls in sorted(set(sides[0][2].tolist()).union(sides[1][2].tolist())):
        masks = [code == cls for _, _, code in sides]
        yield (cls > 1, cls % 2 == 1), *((p[mask], q[mask]) for (p, q, _), mask in zip(sides, masks))


def _line(cls: Tuple[bool, bool], side: Side) -> List[float]:
    """The finite coordinate of each point of a class with an infinite one,
    0 for each (-inf, inf): its position on the line the class lies on."""
    p, q = side
    return (p if cls[0] else q if cls[1] else np.zeros(len(p))).tolist()


def _class_costs(a: Side, b: Side) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair costs of the finite class as an n x m matrix, by the float
    expressions of `_pair_cost`, and the diagonal costs of each side by
    those of `_diagonal_cost`."""
    (pa, qa), (pb, qb) = a, b
    cost = np.maximum(np.abs(np.subtract.outer(pa, pb)), np.abs(np.subtract.outer(qa, qb)))
    return cost, (qa - pa) / 2.0, (qb - pb) / 2.0


def _hopcroft_karp(
    adjacency: List[List[int]], n_right: int, start: Optional[List[int]] = None
) -> Tuple[List[int], int]:
    """Maximum bipartite matching by Hopcroft-Karp.

    ``adjacency[u]`` lists the right neighbours of left vertex u.  The
    search grows ``start`` in place, a matching of the graph given as the
    right partner of every left vertex (-1 when unmatched), or else the
    empty matching; rows matched already are left out of the greedy pass.
    Returns the right partner of every left vertex and the matching's size.
    """
    match_left = [-1] * len(adjacency) if start is None else start
    match_right = [-1] * n_right
    for u, v in enumerate(match_left):
        if v >= 0:
            match_right[v] = u
    for u, neighbours in enumerate(adjacency):
        if match_left[u] >= 0:
            continue
        for v in neighbours:
            if match_right[v] < 0:
                match_left[u], match_right[v] = v, u
                break
    while True:
        # Layer the left vertices by alternating distance from the free
        # ones, up to the first layer that reaches a free right vertex.
        free = [u for u, v in enumerate(match_left) if v < 0]
        layer = [-1] * len(adjacency)
        for u in free:
            layer[u] = 0
        queue = list(free)
        shortest = None
        for u in queue:
            if shortest is not None and layer[u] > shortest:
                break
            for v in adjacency[u]:
                w = match_right[v]
                if w < 0:
                    shortest = layer[u]
                elif layer[w] < 0:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        if shortest is None:
            break
        # Depth-first search along the layers from each free left vertex;
        # next_edge[u] is the next neighbour of u to try, and a vertex with
        # none left is retired for this phase.
        next_edge = [0] * len(adjacency)
        for root in free:
            stack = [root]
            while stack:
                u = stack[-1]
                if next_edge[u] == len(adjacency[u]):
                    layer[u] = -1
                    stack.pop()
                    continue
                v = adjacency[u][next_edge[u]]
                next_edge[u] += 1
                w = match_right[v]
                if w < 0:
                    for x in stack:
                        y = adjacency[x][next_edge[x] - 1]
                        match_left[x], match_right[y] = y, x
                    break
                if layer[w] == layer[u] + 1:
                    stack.append(w)
    return match_left, len(match_left) - match_left.count(-1)


def _row_lists(mask: np.ndarray, offset: int) -> List[List[int]]:
    """Per row of a boolean matrix, the column indices of its true entries
    plus offset."""
    n, m = mask.shape
    flat = np.flatnonzero(mask)  # far faster than a 2-d nonzero
    bounds = np.searchsorted(flat, np.arange(n + 1) * m).tolist()
    cols = (flat % max(m, 1) + offset).tolist()  # flat is empty when m is 0
    return [cols[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _augmented_adjacency(
    within: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray, delta: float
) -> List[List[int]]:
    """Adjacency of the augmented graph at threshold delta, given the n x m
    pair mask ``within``: left vertices are the n A points and then the m
    slots of the B points, right vertices the m B points and then the n
    slots of the A points; a point joins its own slot within delta of the
    diagonal, and slot b_j joins slot a_i exactly when a_i joins b_j."""
    n, m = within.shape
    adjacency = _row_lists(within, 0)
    for i in np.flatnonzero(diag_a <= delta).tolist():
        adjacency[i].append(m + i)
    slots = _row_lists(within.T, m)
    for j in np.flatnonzero(diag_b <= delta).tolist():
        slots[j].append(j)
    return adjacency + slots


def _lower_bound(cost: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray) -> float:
    """The largest, over the points of both sides, of the cheaper of the
    point's diagonal cost and its nearest opposite point: each point is
    matched or sent to the diagonal, so no smaller delta is feasible."""
    near_a = np.minimum(diag_a, cost.min(axis=1, initial=math.inf))
    near_b = np.minimum(diag_b, cost.min(axis=0, initial=math.inf))
    return max(near_a.max(initial=0.0), near_b.max(initial=0.0))


def _probe(
    cost: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray, delta: float, start: Optional[List[int]]
) -> Tuple[bool, List[int]]:
    """Whether delta is feasible, and the maximum matching of the augmented
    graph that decides it, grown from ``start`` (a matching of that graph,
    or None)."""
    n, m = cost.shape
    adjacency = _augmented_adjacency(cost <= delta, diag_a, diag_b, delta)
    partner, size = _hopcroft_karp(adjacency, n + m, start)
    return size == n + m, partner


def _matched_costs(cost: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray, partner: List[int]) -> np.ndarray:
    """The cost of each left vertex's edge in a perfect matching of the
    augmented graph: a_i's edge goes to b_j (j < m) or to its own slot, slot
    b_j's to the slot of a_i (m + i) or to b_j."""
    n, m = cost.shape
    partner = np.asarray(partner)
    rows, slots = partner[:n], partner[n:]
    return np.concatenate((
        np.where(rows < m, cost[np.arange(n), rows % m], diag_a),
        np.where(slots >= m, cost[(slots - m) % n, np.arange(m)], diag_b),
    ))


def _finite_class_bottleneck(a: Side, b: Side) -> float:
    cost, diag_a, diag_b = _class_costs(a, b)
    grid = np.unique(np.concatenate(([0.0], diag_a, diag_b, cost.ravel())))
    # The bound is one of the costs, so it sits exactly in the grid.  Leaving
    # every point unmatched is allowed at the largest diagonal cost, so the
    # top candidate is always feasible.
    floor = int(np.searchsorted(grid, _lower_bound(cost, diag_a, diag_b)))
    lo, hi = floor, len(grid) - 1
    offset, galloping, partner, edge = 0, True, None, None
    while lo < hi:
        if galloping and floor + offset < hi:
            mid = floor + offset
            offset = 2 * offset + 1
        else:
            mid = (lo + hi) // 2
        if edge is not None:  # the last probe was feasible, so delta fell
            partner = np.where(edge > grid[mid], -1, partner).tolist()
        feasible, partner = _probe(cost, diag_a, diag_b, grid[mid], partner)
        edge = None
        if feasible:  # and so at its costliest edge, which is at most delta
            edge = _matched_costs(cost, diag_a, diag_b, partner)
            hi, galloping = min(mid, int(np.searchsorted(grid, edge.max()))), False
        else:
            lo = mid + 1
    return float(grid[lo])


def _line_matching(xa: Sequence[float], xb: Sequence[float], delta: float) -> List[int]:
    """The B partner of every A point (-1 when unmatched) in a maximum
    matching within delta of a class with an infinite coordinate, each side
    given sorted, by its `_line` positions.  Walk both sides, pair the two
    leading points when they are within delta, and otherwise drop the lower
    one, which is too far from every point left on the other side."""
    partner = [-1] * len(xa)
    i = j = 0
    while i < len(xa) and j < len(xb):
        if abs(xa[i] - xb[j]) <= delta:
            partner[i] = j
            i, j = i + 1, j + 1
        elif xa[i] < xb[j]:
            i += 1
        else:
            j += 1
    return partner


def bottleneck(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> ExtendedReal:
    """The smallest delta admitting a delta-feasible matching in degree d.

    Exact: the optimum is realized among inter-point costs and diagonal
    costs, and classes with infinite coordinates are matched separately by
    sorted order on their finite coordinate.  Returns POS_INF when the
    essential counts make matching impossible.
    """
    worst = 0.0
    for cls, side_a, side_b in _classes(a, b, d):
        if cls == (True, True):
            worst = max(worst, _finite_class_bottleneck(side_a, side_b))
        elif len(side_a[0]) != len(side_b[0]):
            return POS_INF
        else:  # `_line_matching` at delta = inf: the sorted pairing
            worst = max(worst, *map(abs, map(sub, _line(cls, side_a), _line(cls, side_b))))
    return ExtendedReal(worst)


def matching_at(
    a: PersistenceDiagram, b: PersistenceDiagram, d: int, delta: float
) -> MatchingResult:
    """Explicit matching with every matched pair within L-inf distance delta
    and every unmatched point within delta of the diagonal, if one exists;
    else the maximum matching that shows there is none.  Its points are the
    only ones made."""
    delta = query_value(delta, "delta")
    if delta < 0:
        raise ValueError(f"requires delta >= 0, got {delta}")
    matched: List[Tuple[DiagramPoint, DiagramPoint]] = []
    unmatched_a: List[DiagramPoint] = []
    unmatched_b: List[DiagramPoint] = []
    feasible = True
    for cls, side_a, side_b in _classes(a, b, d):
        n, m = len(side_a[0]), len(side_b[0])
        if cls == (True, True):
            ok, partner = _probe(*_class_costs(side_a, side_b), delta, None)
            partner = [j if j < m else -1 for j in partner[:n]]
        else:
            partner = _line_matching(_line(cls, side_a), _line(cls, side_b), delta)
            ok = n == m == n - partner.count(-1)
        pts_a, pts_b = _made(*side_a), _made(*side_b)
        matched.extend((pts_a[i], pts_b[j]) for i, j in enumerate(partner) if j >= 0)
        unmatched_a.extend(pts_a[i] for i, j in enumerate(partner) if j < 0)
        taken = set(partner)
        unmatched_b.extend(pt for j, pt in enumerate(pts_b) if j not in taken)
        feasible = feasible and ok
    return MatchingResult(tuple(matched), tuple(unmatched_a), tuple(unmatched_b), feasible)


def bottleneck_bruteforce(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> ExtendedReal:
    """Exact bottleneck by exhaustive search over all partial matchings.

    Independent test oracle; each diagram may hold at most 8 points (with
    multiplicity) in the requested degree.
    """
    points_a = _expand(a, d)
    points_b = _expand(b, d)
    if len(points_a) > BRUTE_FORCE_LIMIT or len(points_b) > BRUTE_FORCE_LIMIT:
        raise TooLargeError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} points per diagram, "
            f"got {len(points_a)} and {len(points_b)}"
        )
    n, m = len(points_a), len(points_b)
    pair = [[_pair_cost(x, y) for y in points_b] for x in points_a]
    diag_a = [_diagonal_cost(x) for x in points_a]
    diag_b = [_diagonal_cost(y) for y in points_b]

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> float:
        if i == n:
            cost = 0.0
            for j in range(m):
                if not used & (1 << j):
                    cost = max(cost, diag_b[j])
            return cost
        value = max(diag_a[i], best(i + 1, used))
        for j in range(m):
            if not used & (1 << j):
                value = min(value, max(pair[i][j], best(i + 1, used | (1 << j))))
        return value

    result = best(0, 0)
    best.cache_clear()
    return POS_INF if math.isinf(result) else ExtendedReal(result)


def interleaving_distance(a: Barcode, b: Barcode, d: int) -> ExtendedReal:
    """Interleaving distance of two barcode modules in degree d.

    For barcode modules this coincides with the bottleneck distance of
    their diagrams, which is how it is computed here.
    """
    return bottleneck(diagram_of(a), diagram_of(b), d)


__all__ = [
    "MatchingResult",
    "TooLargeError",
    "BRUTE_FORCE_LIMIT",
    "bottleneck",
    "matching_at",
    "bottleneck_bruteforce",
    "interleaving_distance",
]
