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

Feasibility of a threshold delta in the finite class is decided by a
maximum matching on an augmented bipartite graph in which each point has a
private diagonal slot.  The slot block is mirrored: the slot of b_j joins
the slot of a_i exactly when a_i and b_j are within delta of each other, in
place of the complete block of the usual construction.  Feasibility is
unchanged, because the two slots of a matched pair a_i, b_j can always pair
off.  Sending every point to the diagonal is feasible at the largest
diagonal cost, so the search lists the class's edges once, from a cost
matrix built by the same float expressions as the scalar helpers, keeping
only those at or below that cost, and sorts them by cost; the optimum is
one of their costs, so results are exact.  The graph at delta is a prefix
of that list.

The search sweeps up the list once, as the threshold algorithm of Gabow &
Tarjan, *Algorithms for two bottleneck optimization problems* (J.
Algorithms 1988), does.  No delta is feasible below the largest, over the
points, of the cheaper of a point's diagonal cost and its nearest
opposite point; Hopcroft-Karp matches the graph up to that bound, one of
the costs.  Past it, edges join one at a time, and the forest of left
vertices that alternating paths from the free ones reach, a Hall
violator, keeps the matching maximum.  Feasibility is monotone in delta,
so the answer is the cost of the edge that makes the matching perfect.
`matching_at` grows the same edges up to its delta, unsorted, and matches
them by Hopcroft-Karp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from operator import sub
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .barcode import POS_INF, Barcode, ExtendedReal, TooLargeError, _made, query_value
from .diagram import DiagramPoint, PersistenceDiagram, diagram_of

BRUTE_FORCE_LIMIT = 8
# Most points, with multiplicity, that `bottleneck` or `matching_at` expands
# from one diagram in one degree: the finite class's cost matrix is n x m
# float64, 800 MB at this limit on both sides.
MATCHING_LIMIT = 10_000


Side = Tuple[np.ndarray, np.ndarray]  # the births and deaths of a class's points in one diagram, one per copy


@dataclass(frozen=True, eq=False, repr=False)
class MatchingResult:
    """An explicit partial matching between two diagrams at a threshold;
    feasible or not, a maximum matching in every infinity class (of the
    augmented graph for the finite class, of the pairs within it for the rest).

    Kept as arrays: the births and deaths of each diagram's points, one
    entry per copy and the infinity classes in order, and the B partner of
    each A point (-1 when unmatched).  ``matched``, ``unmatched_a`` and
    ``unmatched_b`` make their `DiagramPoint`s each time they are read, in
    A order for the first two and B order for the third; equality, hash and
    repr are those of these three fields and ``feasible``."""

    _a: Side
    _b: Side
    _partner: np.ndarray
    feasible: bool

    @property
    def matched(self) -> Tuple[Tuple[DiagramPoint, DiagramPoint], ...]:
        rows = np.flatnonzero(self._partner >= 0)
        (pa, qa), (pb, qb), cols = self._a, self._b, self._partner[rows]
        return tuple(zip(_made(DiagramPoint, pa[rows], qa[rows]), _made(DiagramPoint, pb[cols], qb[cols])))

    @property
    def unmatched_a(self) -> Tuple[DiagramPoint, ...]:
        (p, q), free = self._a, self._partner < 0
        return tuple(_made(DiagramPoint, p[free], q[free]))

    @property
    def unmatched_b(self) -> Tuple[DiagramPoint, ...]:
        (p, q), free = self._b, np.ones(len(self._b[0]), bool)
        free[self._partner[self._partner >= 0]] = False
        return tuple(_made(DiagramPoint, p[free], q[free]))

    def _fields(self) -> tuple:
        return self.matched, self.unmatched_a, self.unmatched_b, self.feasible

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "MatchingResult(matched=%r, unmatched_a=%r, unmatched_b=%r, feasible=%r)" % self._fields()


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


def _classes(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> Iterator[Tuple[Tuple[bool, bool], Side, Side]]:
    """Each infinity class that holds a degree-d point, in sorted order, with
    its points in a and in b, each side sorted, read from the diagrams'
    arrays with one entry per copy of a point."""
    sides = []
    for diagram in (a, b):
        p, q, mult = diagram.arrays(d)
        count = int(mult.sum())  # exact, also for multiplicities beyond int64
        if count > MATCHING_LIMIT:
            raise TooLargeError(f"matching limited to {MATCHING_LIMIT} points per diagram, got {count} in degree {d}")
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
    those of `_diagonal_cost`.  The matrix is made in place, so at most two
    n x m arrays are alive at once."""
    (pa, qa), (pb, qb) = a, b
    cost, dq = np.subtract.outer(pa, pb), np.subtract.outer(qa, qb)
    np.maximum(np.abs(cost, out=cost), np.abs(dq, out=dq), out=cost)
    return cost, (qa - pa) / 2.0, (qb - pb) / 2.0


def _hopcroft_karp(adjacency: List[List[int]], n_right: int) -> Tuple[List[int], int]:
    """Maximum bipartite matching by Hopcroft-Karp, from the empty matching.

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
        # rows[u] yields the neighbours of u not yet tried, a vertex with
        # none left is retired for this phase, and via[i] is the edge taken
        # from stack[i].
        rows = list(map(iter, adjacency))
        for root in free:
            stack, via = [root], []
            while stack:
                u = stack[-1]
                v = next(rows[u], -1)
                if v < 0:
                    layer[u] = -1
                    stack.pop()
                    if stack:
                        via.pop()
                    continue
                w = match_right[v]
                if w < 0:
                    via.append(v)
                    for x, y in zip(stack, via):
                        match_left[x], match_right[y] = y, x
                    break
                if layer[w] == layer[u] + 1:
                    stack.append(w)
                    via.append(v)
    return match_left, len(match_left) - match_left.count(-1)


Edges = Tuple[np.ndarray, np.ndarray, np.ndarray]  # cost, left and right vertex of the finite class's edges


def _lower_bound(cost: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray) -> float:
    """The largest, over the points of both sides, of the cheaper of the
    point's diagonal cost and its nearest opposite point: each point is
    matched or sent to the diagonal, so no smaller delta is feasible."""
    near_a = np.minimum(diag_a, cost.min(axis=1, initial=math.inf))
    near_b = np.minimum(diag_b, cost.min(axis=0, initial=math.inf))
    return max(near_a.max(initial=0.0), near_b.max(initial=0.0))


def _class_edges(a: Side, b: Side, cap: Optional[float] = None) -> Tuple[Edges, Optional[float]]:
    """The edges of the finite class's augmented graph that cost at most
    ``cap``: the pairs row by row, then the A points' edges to their own
    slots, then the B points'.  `matching_at` relies on this order: grown
    in it, each row lists its right vertices in order, a point's own slot
    last.  By default the cap is the largest diagonal cost, and the search's
    lower bound comes with the edges; given a cap, None does.

    Left vertices are the n A points and then the m slots of the B points,
    right vertices the m B points and then the n slots of the A points.  A
    pair a_i, b_j is one edge (i, j), which also stands for its mirror from
    slot b_j to slot a_i, (n + j, m + i); a point joins its own slot by an
    edge (i, m + i) or (n + j, j)."""
    cost, diag_a, diag_b = _class_costs(a, b)
    bound = None
    if cap is None:
        bound, cap = _lower_bound(cost, diag_a, diag_b), max(diag_a.max(initial=0.0), diag_b.max(initial=0.0))
    n, m = cost.shape
    flat, near_a, near_b = np.flatnonzero(cost <= cap), np.flatnonzero(diag_a <= cap), np.flatnonzero(diag_b <= cap)
    values = np.concatenate((cost.ravel()[flat], diag_a[near_a], diag_b[near_b]))
    del cost
    i, j = np.divmod(flat, max(m, 1))  # the pairs in row-major order
    left = np.concatenate((i, near_a, n + near_b), dtype=np.int32)
    right = np.concatenate((j, m + near_a, near_b), dtype=np.int32)
    return (values, left, right), bound


class _Graph:
    """The augmented graph of the finite class over its edges, as listed or
    sorted by cost: ``adjacency[u]`` lists the right neighbours of left
    vertex u in the order in which its edges were added."""

    def __init__(self, edges: Edges, n: int, m: int):
        self.cost, self.left, self.right = edges
        self.n, self.m = n, m
        self.adjacency: List[List[int]] = [[] for _ in range(n + m)]

    def grow(self, start: int, stop: int) -> None:
        """Add the edges from ``start`` up to ``stop``, in order: a pair's
        edge (i, j) is that arc and its mirror (n + j, m + i), from slot b_j
        to slot a_i."""
        n, m, adjacency = self.n, self.m, self.adjacency
        for u, v in zip(self.left[start:stop].tolist(), self.right[start:stop].tolist()):
            adjacency[u].append(v)
            if u < n and v < m:
                adjacency[n + v].append(m + u)

    def arcs(self, start: int, stop: int) -> Iterator[Tuple[int, int, int]]:
        """Add the edges from ``start`` up to ``stop`` as `grow` does, read
        in doubling chunks, and yield the arcs (u, v) of each with its
        position once both are in, so that the graph holds whole edges
        wherever its caller stops."""
        n, m, adjacency = self.n, self.m, self.adjacency
        size = 1024
        while start < stop:
            end = min(stop, start + size)
            for at, u, v in zip(range(start, end), self.left[start:end].tolist(), self.right[start:end].tolist()):
                adjacency[u].append(v)
                if u < n and v < m:
                    adjacency[n + v].append(m + u)
                    yield at, n + v, m + u
                yield at, u, v
            start, size = end, 2 * size


def _forest(
    adjacency: List[List[int]], match_right: List[int], parent: List[int], queue: List[int]
) -> Optional[Tuple[int, int]]:
    """Grow an alternating forest breadth first from the left vertices in
    ``queue``, already in it: the partner w of a right neighbour of a forest
    vertex u joins with ``parent[w] = u`` (-1 at a root, -2 off the forest).
    Returns the first arc (u, v) found to a free right vertex, which closes
    an augmenting path, or None; grown from the free left vertices, the
    forest is then the set Z they reach: |N(Z)| < |Z| while one is free."""
    for u in queue:
        for v in adjacency[u]:
            w = match_right[v]
            if w < 0:
                return u, v
            if parent[w] == -2:
                parent[w] = u
                queue.append(w)
    return None


_BATCH = 16  # augmentations at one cost after which Hopcroft-Karp matches that cost whole


def _augmentations(graph: _Graph, partner: List[int], start: int) -> Iterator[int]:
    """Add the graph's edges from ``start`` on, in order, keeping
    ``partner``, a maximum matching of the graph before them, maximum:
    yields an edge's position each time it grows the matching by one.  An
    arc from the forest to a vertex matched off it grows the forest, one to
    a free vertex closes an augmenting path, and no other arc changes
    anything; one arc adds at most one edge, so after an augmentation the
    forest is grown anew.  Ties make many paths at one cost, perhaps all
    through one vertex: after `_BATCH` the rest of that cost's edges join at
    once and Hopcroft-Karp matches anew, yielding the cost's last position
    once per edge gained."""
    adjacency, size = graph.adjacency, len(partner)
    while start < len(graph.cost):
        match_right = [-1] * size
        for u, v in enumerate(partner):
            if v >= 0:
                match_right[v] = u
        free = [u for u, v in enumerate(partner) if v < 0]
        parent, last, count = None, None, 0
        for at, u, v in graph.arcs(start, len(graph.cost)):
            if parent is None:  # grow the forest anew, with the arcs so far
                parent = [-2] * size
                for x in free:
                    parent[x] = -1
                end = _forest(adjacency, match_right, parent, list(free))
            elif parent[u] == -2:
                continue  # an arc from off the forest changes nothing
            elif match_right[v] < 0:
                end = u, v
            elif parent[match_right[v]] == -2:
                parent[match_right[v]] = u
                end = _forest(adjacency, match_right, parent, [match_right[v]])
            else:
                continue  # to a vertex matched into the forest
            if end:
                u, v = end
                while u >= 0:  # flip the path back to its root
                    partner[u], v = v, partner[u]
                    match_right[partner[u]] = u
                    u, root = parent[u], u
                free.remove(root)
                parent = None
                yield at
                count, last = (count + 1 if graph.cost[at] == last else 1), graph.cost[at]
                if count >= _BATCH:
                    break
        else:
            return
        start = int(np.searchsorted(graph.cost, last, "right"))
        graph.grow(at + 1, start)
        matched = size - partner.count(-1)
        partner[:], grown = _hopcroft_karp(adjacency, size)
        yield from repeat(start - 1, grown - matched)


def _finite_class_bottleneck(a: Side, b: Side) -> float:
    (cost, left, right), bound = _class_edges(a, b)
    order = np.argsort(cost)
    cost, left, right = cost[order], left[order], right[order]
    del order
    graph = _Graph((cost, left, right), len(a[0]), len(b[0]))
    # The bound is one of the costs, and the last cost is feasible: every
    # point may go to the diagonal there.
    start = int(np.searchsorted(cost, bound, "right"))
    graph.grow(0, start)
    partner, size = _hopcroft_karp(graph.adjacency, graph.n + graph.m)
    at = start - 1
    for at in islice(_augmentations(graph, partner, start), graph.n + graph.m - size):
        pass  # the last of these makes the matching perfect
    return float(cost[at])


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
    essential counts make matching impossible.  Each cost is one rounded
    difference (halved exactly, away from subnormals), and rounding is
    monotone, so it commutes with the min and max: the value is the exact
    distance, correctly rounded.
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
    else the maximum matching that shows there is none.  It makes no point:
    its fields make theirs when read."""
    delta = query_value(delta, "delta")
    if delta < 0:
        raise ValueError(f"requires delta >= 0, got {delta}")
    # per class: its sides and each A point's B partner, numbered across classes
    parts, taken, feasible = [(*(np.empty(0),) * 4, np.empty(0, np.intp))], 0, True
    for cls, side_a, side_b in _classes(a, b, d):
        n, m = len(side_a[0]), len(side_b[0])
        if cls == (True, True):
            graph = _Graph(_class_edges(side_a, side_b, delta)[0], n, m)
            graph.grow(0, len(graph.cost))
            partner, size = _hopcroft_karp(graph.adjacency, n + m)
            partner, ok = np.array(partner[:n], dtype=np.intp), size == n + m
            partner[partner >= m] = -1  # a slot is the diagonal
        else:
            partner = np.array(_line_matching(_line(cls, side_a), _line(cls, side_b), delta), dtype=np.intp)
            ok = n == m == np.count_nonzero(partner >= 0)
        parts.append((*side_a, *side_b, np.where(partner >= 0, partner + taken, -1)))
        taken += m
        feasible = feasible and ok
    pa, qa, pb, qb, partner = (np.concatenate(column) for column in zip(*parts))
    for column in (pa, qa, pb, qb, partner):
        column.flags.writeable = False
    return MatchingResult((pa, qa), (pb, qb), partner, feasible)


def bottleneck_bruteforce(a: PersistenceDiagram, b: PersistenceDiagram, d: int) -> ExtendedReal:
    """Exact bottleneck by exhaustive search over all partial matchings.

    Independent test oracle; each diagram may hold at most 8 points (with
    multiplicity) in the requested degree.
    """
    n, m = a.count(d), b.count(d)
    if n > BRUTE_FORCE_LIMIT or m > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"brute force limited to {BRUTE_FORCE_LIMIT} points per diagram, got {n} and {m}")
    points_a, points_b = _expand(a, d), _expand(b, d)
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
    "BRUTE_FORCE_LIMIT",
    "MATCHING_LIMIT",
    "bottleneck",
    "matching_at",
    "bottleneck_bruteforce",
    "interleaving_distance",
]
