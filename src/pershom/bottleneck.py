"""Bottleneck distance between persistence diagrams.

Ground cost between points is the L-infinity distance, with like infinite
coordinates at distance 0 and unlike ones at distance +inf; an unmatched
point pays half its lifetime, its true sup-distance to the diagonal.

The costs of each infinity class are built once, as a numpy matrix, by the
same float expressions as the scalar helpers, and the optimum is located
by binary search over their distinct values, so results are exact.
Feasibility of a threshold delta is decided by a maximum matching on an
augmented bipartite graph in which each point has a private diagonal slot.
The slot block is mirrored: the slot of b_j joins the slot of a_i exactly
when a_i and b_j are within delta of each other, in place of the complete
block of the usual construction.  Feasibility is unchanged, because the
two slots of a matched pair a_i, b_j can always pair off.  The matching is
Hopcroft-Karp on plain adjacency lists.

Points with an infinite coordinate can only be matched to points with the
same infinity pattern; diagrams whose essential counts differ in a degree
are infinitely far apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .barcode import POS_INF, Barcode, ExtendedReal
from .diagram import DiagramPoint, PersistenceDiagram, diagram_of

BRUTE_FORCE_LIMIT = 8


class TooLargeError(ValueError):
    """An input too large to process: the brute-force oracle's diagrams, the
    simplices of a Vietoris complex, or a Douglas quadrature grid."""


@dataclass(frozen=True)
class MatchingResult:
    """An explicit partial matching between two diagrams at a threshold."""

    matched: Tuple[Tuple[DiagramPoint, DiagramPoint], ...]
    unmatched_a: Tuple[DiagramPoint, ...]
    unmatched_b: Tuple[DiagramPoint, ...]
    feasible: bool


def _expand(diagram: PersistenceDiagram, d: int) -> List[DiagramPoint]:
    pts: List[DiagramPoint] = []
    for pt, mult in diagram.items(d):
        pts.extend([pt] * mult)
    return pts


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


def _split_classes(points: Sequence[DiagramPoint]) -> Dict[Tuple[bool, bool], List[DiagramPoint]]:
    out: Dict[Tuple[bool, bool], List[DiagramPoint]] = {}
    for pt in points:
        out.setdefault(_infinity_class(pt), []).append(pt)
    return out


def _class_costs(
    points_a: Sequence[DiagramPoint], points_b: Sequence[DiagramPoint], cls: Tuple[bool, bool]
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Pair costs of one infinity class as an n x m matrix, by the float
    expressions of `_pair_cost`, and the diagonal costs of each side by
    those of `_diagonal_cost`; ``None`` for the classes with an infinite
    coordinate, whose points cannot be left unmatched."""
    pa = np.array([pt.p for pt in points_a], dtype=float)
    qa = np.array([pt.q for pt in points_a], dtype=float)
    pb = np.array([pt.p for pt in points_b], dtype=float)
    qb = np.array([pt.q for pt in points_b], dtype=float)
    cost = np.zeros((len(points_a), len(points_b)))
    if cls[0]:
        cost = np.abs(np.subtract.outer(pa, pb))
    if cls[1]:
        cost = np.maximum(cost, np.abs(np.subtract.outer(qa, qb)))
    if cls != (True, True):
        return cost, None, None
    return cost, (qa - pa) / 2.0, (qb - pb) / 2.0


def _hopcroft_karp(adjacency: List[List[int]], n_right: int) -> Tuple[List[int], int]:
    """Maximum bipartite matching by Hopcroft-Karp.

    ``adjacency[u]`` lists the right neighbours of left vertex u.  Returns
    the right partner of every left vertex (-1 when unmatched) and the
    matching's size.
    """
    match_left = [-1] * len(adjacency)
    match_right = [-1] * n_right
    for u, neighbours in enumerate(adjacency):
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
    rows, cols = np.nonzero(mask)
    bounds = np.searchsorted(rows, np.arange(mask.shape[0] + 1)).tolist()
    cols = (cols + offset).tolist()
    return [cols[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _match(
    cost: np.ndarray, diag_a: Optional[np.ndarray], diag_b: Optional[np.ndarray], delta: float
) -> Tuple[List[int], bool]:
    """Maximum matching within one infinity class at threshold delta.

    Returns the B partner of every A point (-1 when unmatched) and whether
    the matching is feasible.  Without diagonal costs (essential points)
    feasibility means a perfect matching between the two point lists.  With
    them, left vertices are the n A points and then the m slots of the B
    points, right vertices the m B points and then the n slots of the A
    points; a point joins its own slot within delta of the diagonal, slot
    b_j joins slot a_i exactly when a_i joins b_j, and feasibility means a
    perfect matching.
    """
    n, m = cost.shape
    within = cost <= delta
    adjacency = _row_lists(within, 0)
    if diag_a is None:
        partner, size = _hopcroft_karp(adjacency, m)
        return partner, n == m and size == n
    for i in np.flatnonzero(diag_a <= delta).tolist():
        adjacency[i].append(m + i)
    slots = _row_lists(within.T, m)
    for j in np.flatnonzero(diag_b <= delta).tolist():
        slots[j].append(j)
    partner, size = _hopcroft_karp(adjacency + slots, m + n)
    return [j if j < m else -1 for j in partner[:n]], size == n + m


def matching_at(
    a: PersistenceDiagram, b: PersistenceDiagram, d: int, delta: float
) -> MatchingResult:
    """Explicit matching with every matched pair within L-inf distance delta
    and every unmatched point within delta of the diagonal, if one exists."""
    delta = float(delta)
    if delta < 0 or math.isnan(delta):
        raise ValueError(f"requires delta >= 0, got {delta}")
    class_a = _split_classes(_expand(a, d))
    class_b = _split_classes(_expand(b, d))
    matched: List[Tuple[DiagramPoint, DiagramPoint]] = []
    unmatched_a: List[DiagramPoint] = []
    unmatched_b: List[DiagramPoint] = []
    feasible = True
    for cls in sorted(set(class_a) | set(class_b)):
        pts_a = class_a.get(cls, [])
        pts_b = class_b.get(cls, [])
        partner, ok = _match(*_class_costs(pts_a, pts_b, cls), delta)
        matched.extend((pts_a[i], pts_b[j]) for i, j in enumerate(partner) if j >= 0)
        unmatched_a.extend(pts_a[i] for i, j in enumerate(partner) if j < 0)
        taken = set(partner)
        unmatched_b.extend(pt for j, pt in enumerate(pts_b) if j not in taken)
        feasible = feasible and ok
    return MatchingResult(tuple(matched), tuple(unmatched_a), tuple(unmatched_b), feasible)


def _sorted_coordinate_bottleneck(
    points_a: Sequence[DiagramPoint], points_b: Sequence[DiagramPoint]
) -> float:
    """Optimal bottleneck for a one-coordinate class: match in sorted order."""
    if len(points_a) != len(points_b):
        return math.inf
    if not points_a:
        return 0.0
    if math.isfinite(points_a[0].p):
        xs = sorted(pt.p for pt in points_a)
        ys = sorted(pt.p for pt in points_b)
    elif math.isfinite(points_a[0].q):
        xs = sorted(pt.q for pt in points_a)
        ys = sorted(pt.q for pt in points_b)
    else:
        return 0.0
    return max(abs(x - y) for x, y in zip(xs, ys))


def _finite_class_bottleneck(
    points_a: Sequence[DiagramPoint], points_b: Sequence[DiagramPoint]
) -> float:
    if not points_a and not points_b:
        return 0.0
    cost, diag_a, diag_b = _class_costs(points_a, points_b, (True, True))
    grid = np.unique(np.concatenate(([0.0], diag_a, diag_b, cost.ravel())))
    lo, hi = 0, len(grid) - 1
    # Leaving every point unmatched is allowed at the largest diagonal cost,
    # so the top candidate is always feasible.
    while lo < hi:
        mid = (lo + hi) // 2
        if _match(cost, diag_a, diag_b, grid[mid])[1]:
            hi = mid
        else:
            lo = mid + 1
    return float(grid[lo])


def bottleneck(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> ExtendedReal:
    """The smallest delta admitting a delta-feasible matching in degree d.

    Exact: the optimum is realized among inter-point costs and diagonal
    costs, and classes with infinite coordinates are matched separately by
    sorted order on their finite coordinate.  Returns POS_INF when the
    essential counts make matching impossible.
    """
    class_a = _split_classes(_expand(a, d))
    class_b = _split_classes(_expand(b, d))
    worst = 0.0
    for cls in sorted(set(class_a) | set(class_b)):
        pts_a = class_a.get(cls, [])
        pts_b = class_b.get(cls, [])
        if cls == (True, True):
            value = _finite_class_bottleneck(pts_a, pts_b)
        else:
            value = _sorted_coordinate_bottleneck(pts_a, pts_b)
        worst = max(worst, value)
        if math.isinf(worst):
            return POS_INF
    return ExtendedReal(worst)


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
