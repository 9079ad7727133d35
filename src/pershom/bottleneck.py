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
of that list.  Its rows are grown in cost order as delta rises and cut back to
per-row prefixes when it falls, and each probe matches by Hopcroft-Karp,
warm-started from the previous probe's matching less its edges above delta.

The search works from below, where the graphs are sparse.  Every point is
matched or sent to the diagonal, so no delta is feasible below the largest,
over the points, of the cheaper of a point's diagonal cost and its nearest
opposite point; that bound is one of the costs.  From it the search gallops
up the list (the bound, then 1, 3, 7, ... places above its lower end) to
the first feasible threshold and bisects the last bracket, as in Efrat,
Itai & Katz, *Geometry helps in bottleneck matching* (Algorithmica 2001),
and Kerber, Morozov & Nigmetov, *Geometry helps to compare persistence
diagrams* (ACM JEA 2017).  An infeasible probe names a Hall violator: the
left vertices Z that the matching's last search reached by alternating
paths from a free one, whose neighbours are all matched into Z.  No delta
is feasible until Z gains a neighbour, so the lower end jumps to the
cheapest edge not yet in the graph from Z to a right vertex outside its
neighbourhood, while the gallop's offsets keep doubling.  A perfect
matching is feasible already at its costliest edge, which caps the
bracket.  `matching_at` grows the same edges, up to its one delta and
unsorted, with the search's own `grow`, each row in the order of its right
vertices and a point's own slot last, and matches them from the empty
matching; its result keeps each side's points and each A point's partner
as arrays, making `DiagramPoint`s only when its fields are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


def _hopcroft_karp(
    adjacency: List[List[int]], n_right: int, start: Optional[List[int]] = None
) -> Tuple[List[int], int, List[int]]:
    """Maximum bipartite matching by Hopcroft-Karp.

    ``adjacency[u]`` lists the right neighbours of left vertex u.  The
    search grows ``start`` in place, a matching of the graph given as the
    right partner of every left vertex (-1 when unmatched), or else the
    empty matching; rows matched already are left out of the greedy pass.
    Returns the right partner of every left vertex, the matching's size and
    the last search's layers: the left vertices it reached by alternating
    paths from a free one have a layer >= 0, and every right neighbour of
    theirs is matched to one of them.
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
    return match_left, len(match_left) - match_left.count(-1), layer


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
    within, near_a, near_b = cost <= cap, diag_a <= cap, diag_b <= cap
    values = np.concatenate((cost[within], diag_a[near_a], diag_b[near_b]))
    del cost
    i, j = np.arange(n, dtype=np.int32), np.arange(m, dtype=np.int32)
    left = np.concatenate((i.repeat(np.count_nonzero(within, axis=1)), i[near_a], n + j[near_b]))
    right = np.concatenate((np.broadcast_to(j, (n, m))[within], m + i[near_a], j[near_b]))
    return (values, left, right), bound


class _Graph:
    """The augmented graph of the finite class at a prefix of its edges, as
    listed or sorted by cost: ``adjacency[u]`` lists the right neighbours of
    left vertex u in the order of the edges, so a shorter prefix cuts each
    row to a prefix; `grow` adds edges in order and `cut` undoes it, last first."""

    def __init__(self, edges: Edges, n: int, m: int):
        self.cost, self.left, self.right = edges
        self.n, self.m = n, m
        self.adjacency: List[List[int]] = [[] for _ in range(n + m)]
        self.stop = 0  # the edges in the graph are those before this position

    def grow(self, stop: int) -> None:
        """Add the edges up to ``stop``, in order."""
        n, m, adjacency = self.n, self.m, self.adjacency
        for u, v in zip(self.left[self.stop:stop].tolist(), self.right[self.stop:stop].tolist()):
            adjacency[u].append(v)
            if u < n and v < m:
                adjacency[n + v].append(m + u)
        self.stop = stop

    def cut(self, stop: int, partner: List[int]) -> None:
        """Drop the edges from ``stop`` on, last first, unmatching them in ``partner``."""
        n, m, adjacency = self.n, self.m, self.adjacency
        for u, v in zip(self.left[stop:self.stop][::-1].tolist(), self.right[stop:self.stop][::-1].tolist()):
            adjacency[u].pop()
            if partner[u] == v:
                partner[u] = -1
            if u < n and v < m:
                adjacency[n + v].pop()
                if partner[n + v] == m + u:
                    partner[n + v] = -1
        self.stop = stop

    def jump(self, layer: List[int], partner: List[int]) -> int:
        """The position of the cheapest edge not yet in the graph from a left
        vertex of Z, those with a layer >= 0, to a right vertex outside N(Z),
        the partners of Z's matched vertices.

        When the matching is not perfect, |N(Z)| < |Z|, so by Hall's
        condition no prefix ending before that edge has a perfect matching;
        below the top, which is feasible, such an edge always exists."""
        reached, partner = np.array(layer) >= 0, np.array(partner)
        neighbours = np.zeros(self.n + self.m, bool)
        neighbours[partner[reached & (partner >= 0)]] = True
        # In doubling chunks: the edge lies a median 11 to 139 edges past the
        # graph's end, at most 766, on the bench pairs and on perturbed pairs
        # of 300 to 2,000 points, where up to 1.2 million edges are left.
        start, size = self.stop, 1024
        while start < len(self.cost):
            u, v = self.left[start:start + size], self.right[start:start + size]
            useful = reached[u] & ~neighbours[v]
            pair = np.flatnonzero((u < self.n) & (v < self.m))  # and its mirror, from slot b_j to slot a_i
            useful[pair] |= reached[self.n + v[pair]] & ~neighbours[self.m + u[pair]]
            if useful.any():
                return start + int(useful.argmax())
            start, size = start + size, 2 * size
        return len(self.cost)


def _probe(graph: _Graph, at: int, start: Optional[List[int]]) -> Tuple[bool, List[int], List[int]]:
    """Whether the threshold ``graph.cost[at]`` is feasible, with the maximum
    matching of the graph at it, grown from ``start`` (a matching of the
    graph as it was, or None), and the layers of its last search."""
    stop = int(np.searchsorted(graph.cost, graph.cost[at], "right"))
    if stop < graph.stop:
        graph.cut(stop, start)
    graph.grow(stop)
    partner, size, layer = _hopcroft_karp(graph.adjacency, graph.n + graph.m, start)
    return size == graph.n + graph.m, partner, layer


def _matched_cost(a: Side, b: Side, partner: List[int]) -> float:
    """The costliest edge of a perfect matching of the augmented graph, by
    the float expressions of `_class_costs`: a_i's edge goes to b_j (j < m)
    or to its own slot, slot b_j's to the slot of a_i (m + i) or to b_j."""
    (pa, qa), (pb, qb) = a, b
    n, m = len(pa), len(pb)
    partner = np.asarray(partner)
    rows, slots = partner[:n], partner[n:]
    i = np.concatenate((np.flatnonzero(rows < m), slots[slots >= m] - m))
    j = np.concatenate((rows[rows < m], np.flatnonzero(slots >= m)))
    pairs = np.maximum(np.abs(pa[i] - pb[j]), np.abs(qa[i] - qb[j]))
    diagonal = np.concatenate((((qa - pa) / 2.0)[rows >= m], ((qb - pb) / 2.0)[slots < m]))
    return max(pairs.max(initial=0.0), diagonal.max(initial=0.0))


def _finite_class_bottleneck(a: Side, b: Side) -> float:
    (cost, left, right), bound = _class_edges(a, b)
    order = np.argsort(cost)
    cost, left, right = cost[order], left[order], right[order]
    del order
    graph = _Graph((cost, left, right), len(a[0]), len(b[0]))
    # Leaving every point unmatched is allowed at the last cost, so the top
    # is always feasible; the bound is one of the costs.
    lo, hi = np.searchsorted(cost, (bound, cost[-1])).tolist()
    offset, galloping, partner = 0, True, None
    while lo < hi:
        if galloping and lo + offset < hi:
            mid = lo + offset
            offset = 2 * offset + 1
        else:
            mid = (lo + hi) // 2
        feasible, partner, layer = _probe(graph, mid, partner)
        if not feasible:
            lo = int(np.searchsorted(cost, cost[graph.jump(layer, partner)]))
        elif mid == lo:
            hi = lo
        else:  # feasible already at its costliest edge, which is at most delta
            hi, galloping = int(np.searchsorted(cost, _matched_cost(a, b, partner))), False
    return float(cost[lo])


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
            graph.grow(len(graph.cost))
            partner, size, _ = _hopcroft_karp(graph.adjacency, n + m)
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
