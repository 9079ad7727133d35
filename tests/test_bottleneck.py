"""Bottleneck distance: examples, oracle agreement, metric axioms, stability,
and the matching and search underneath."""

import copy
import importlib
import math
import pickle
import random
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pershom import (
    Barcode,
    ExtendedReal,
    Interval,
    POS_INF,
    PersistenceDiagram,
    TooLargeError,
    bottleneck,
    bottleneck_bruteforce,
    compute_persistence,
    diagram_of,
    interleaving_distance,
    matching_at,
)

from helpers import (
    _kuhn_matching_size,
    bottleneck_candidates,
    bottleneck_exact_oracle,
    bottleneck_feasible_oracle,
    bottleneck_oracle,
    class_edges_reference,
    perturb_filtration,
    perturbed_diagram_pair,
    random_diagram,
    random_filtered_complex,
)

# the package exports the function `bottleneck` under the module's name
B = importlib.import_module("pershom.bottleneck")


def dgm(points, degree=0):
    return PersistenceDiagram({degree: points})


# ------------------------------------------------------------------- examples

def test_bottleneck_examples():
    assert bottleneck(dgm([(0, 2)]), PersistenceDiagram(), 0).value == 1.0
    assert type(bottleneck(dgm([(0, 2)]), PersistenceDiagram(), 0)) is ExtendedReal
    d = dgm([(0, 2), (1, 5)])
    assert bottleneck(d, d, 0).value == 0.0
    assert bottleneck(dgm([(0, math.inf)]), dgm([(1, math.inf)]), 0).value == 1.0


def test_bottleneck_unequal_essentials_is_infinite():
    a = dgm([(0, math.inf), (0, math.inf)])
    b = dgm([(0, math.inf)])
    assert bottleneck(a, b, 0) is POS_INF
    assert bottleneck_bruteforce(a, b, 0) is POS_INF


def test_bottleneck_mixed_infinity_classes():
    a = PersistenceDiagram({0: [(-math.inf, 1.0), (0.0, math.inf)]})
    b = PersistenceDiagram({0: [(-math.inf, 3.0), (0.5, math.inf)]})
    # classes match separately: |1-3| = 2 and |0-0.5| = 0.5
    assert bottleneck(a, b, 0).value == 2.0
    assert bottleneck_bruteforce(a, b, 0).value == 2.0


def test_matching_at_examples():
    result = matching_at(dgm([(0, 2)]), PersistenceDiagram(), 0, 1.0)
    assert result.feasible
    assert result.matched == ()
    assert len(result.unmatched_a) == 1

    result = matching_at(dgm([(0, 2)]), PersistenceDiagram(), 0, 0.9)
    assert not result.feasible

    result = matching_at(dgm([(0, 2)]), dgm([(0.5, 2.5)]), 0, 0.5)
    assert result.feasible
    assert len(result.matched) == 1
    assert result.unmatched_a == () and result.unmatched_b == ()

    with pytest.raises(ValueError):
        matching_at(dgm([(0, 2)]), dgm([(0, 2)]), 0, -0.1)


def test_matching_results_are_immutable_values_that_copy_and_pickle():
    a = PersistenceDiagram({0: [(0, 2), (1, 5), (0, math.inf)]})
    b = PersistenceDiagram({0: [(0.5, 2.5), (3, math.inf)]})
    result = matching_at(a, b, 0, 3.0)
    assert result.feasible and len(result.matched) == 2 and len(result.unmatched_a) == 1
    assert result == matching_at(a, b, 0, 3.0) and hash(result) == hash(matching_at(a, b, 0, 3.0))
    assert result != matching_at(a, b, 0, 2.9) and result != (result.matched, result.unmatched_a)
    assert repr(result) == (
        f"MatchingResult(matched={result.matched!r}, unmatched_a={result.unmatched_a!r}, "
        f"unmatched_b={result.unmatched_b!r}, feasible=True)"
    )
    for other in (copy.copy(result), copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
        assert type(other) is B.MatchingResult and other == result and repr(other) == repr(result)
    for name in ("matched", "feasible", "_partner"):
        with pytest.raises(AttributeError):
            setattr(result, name, None)
        with pytest.raises(AttributeError):
            delattr(result, name)


def test_matching_at_pairs_points_costlier_than_every_diagonal_cost():
    # the pair costs 3, each point 0.5 to the diagonal: above 3 the witness pairs them
    a, b = dgm([(0, 1)]), dgm([(3, 4)])
    result = matching_at(a, b, 0, 5.0)
    assert result.feasible and [(x.p.value, y.p.value) for x, y in result.matched] == [(0.0, 3.0)]
    result = matching_at(a, b, 0, 2.5)
    assert result.feasible and result.matched == () and len(result.unmatched_a) == len(result.unmatched_b) == 1


def test_matching_at_skips_the_search_bound():
    def refuse(*args):
        raise AssertionError("matching_at computed the search's lower bound")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(B, "_lower_bound", refuse)
        assert matching_at(dgm([(0, 2), (1, 5)]), dgm([(0.5, 2.5)]), 0, 2.0).feasible


def test_matching_respects_multiplicity():
    a = dgm({(0, 4): 2})
    b = dgm({(0, 4): 2})
    result = matching_at(a, b, 0, 0.0)
    assert result.feasible
    assert len(result.matched) == 2


def test_bruteforce_examples():
    assert bottleneck_bruteforce(dgm([(0, 2)]), PersistenceDiagram(), 0).value == 1.0
    # best matching pairs the two (0,4)s and drops (0,2) on the diagonal
    assert bottleneck_bruteforce(dgm([(0, 4), (0, 2)]), dgm([(0, 4)]), 0).value == 1.0
    assert bottleneck_bruteforce(PersistenceDiagram(), PersistenceDiagram(), 0).value == 0.0


def test_bruteforce_size_guard():
    big = dgm([(i, i + 1) for i in range(9)])
    with pytest.raises(TooLargeError):
        bottleneck_bruteforce(big, PersistenceDiagram(), 0)


@pytest.mark.parametrize("mult", [2**70, 10**11])
def test_diagrams_too_large_to_expand_are_refused_before_expanding(mult):
    # counted with multiplicity first: expanding 2**70 copies overflows, 10**11 asks for 745 GiB
    big, one = dgm({(0, 1): mult}), dgm([(0, 1)])
    message = rf"^the degree-0 point count to match {mult} is over 10000$"
    for call in (lambda: bottleneck(big, one, 0), lambda: bottleneck(one, big, 0), lambda: matching_at(big, one, 0, 1)):
        with pytest.raises(TooLargeError, match=message):
            call()


@pytest.mark.parametrize("mult", [2**70, 10**11])
def test_bruteforce_counts_copies_before_listing_them(mult):
    with pytest.raises(TooLargeError, match=rf"^diagram b's point count for brute force {mult} is over 8$"):
        bottleneck_bruteforce(dgm([(0, 1)]), dgm({(0, 1): mult}), 0)


def test_the_matching_limit_counts_copies_per_diagram():
    at_limit = dgm({(0, 1): B.MATCHING_LIMIT})
    assert bottleneck(at_limit, dgm([(0, 1)]), 0) == 0.5
    assert matching_at(at_limit, PersistenceDiagram(), 0, 0.5).feasible
    over = dgm({(0, 1): B.MATCHING_LIMIT - 1, (0, 2): 2})
    with pytest.raises(TooLargeError, match=rf"^the degree-0 point count to match {B.MATCHING_LIMIT + 1} is over"):
        bottleneck(over, at_limit, 0)
    assert bottleneck(over, at_limit, 1) == 0.0  # another degree is counted on its own


# ----------------------------------------------------------------- invariants

def test_bottleneck_matches_bruteforce():
    rng = random.Random(12345)
    for _ in range(150):
        a = random_diagram(rng, max_points=6, max_degree=0, essential_rate=0.2)
        b = random_diagram(rng, max_points=6, max_degree=0, essential_rate=0.2)
        if a.count(0) > 8 or b.count(0) > 8:
            continue
        assert bottleneck(a, b, 0) == bottleneck_bruteforce(a, b, 0)


def test_bottleneck_matches_bruteforce_at_the_size_limit():
    rng = random.Random(86420)
    for _ in range(30):
        a = dgm([(p, p + rng.uniform(0.01, 6)) for p in (rng.uniform(-5, 5) for _ in range(rng.randint(7, 8)))])
        b = dgm([(p, p + rng.uniform(0.01, 6)) for p in (rng.uniform(-5, 5) for _ in range(rng.randint(7, 8)))])
        assert bottleneck(a, b, 0) == bottleneck_bruteforce(a, b, 0)


def test_bottleneck_matches_bruteforce_with_neg_inf_births():
    rng = random.Random(54321)
    for _ in range(80):
        a = random_diagram(rng, max_points=5, max_degree=0, essential_rate=0.2, neg_inf_rate=0.25)
        b = random_diagram(rng, max_points=5, max_degree=0, essential_rate=0.2, neg_inf_rate=0.25)
        if a.count(0) > 8 or b.count(0) > 8:
            continue
        assert bottleneck(a, b, 0) == bottleneck_bruteforce(a, b, 0)


# Finite values of many magnitudes, none subnormal: there halving a difference rounds a second time.
_SPREAD = st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 1.0, 1 + 2.0**-52, 2.0, 2e5]),
                    st.floats(1e-5, 2e5), st.floats(-2e5, -1e-5))
_SPREAD_DIAGRAMS = st.lists(st.tuples(_SPREAD, _SPREAD).filter(lambda pq: pq[0] != pq[1]).map(sorted),
                            max_size=4).map(dgm)


@settings(max_examples=300, deadline=None)
@given(_SPREAD_DIAGRAMS, _SPREAD_DIAGRAMS)
def test_bottleneck_is_the_correctly_rounded_exact_distance(a, b):
    assert bottleneck(a, b, 0) == bottleneck_exact_oracle(a, b, 0)


_QUARTER = st.integers(-20, 20).map(lambda k: k / 4)
_GAP = st.integers(1, 16).map(lambda k: k / 4)


@st.composite
def _quarter_grid_point(draw):
    """A point on the quarter grid: mostly finite, sometimes essential or
    born at -inf, so equal costs and every infinity class are common."""
    kind = draw(st.sampled_from(["finite"] * 6 + ["essential", "neg_inf", "both_inf"]))
    p = draw(_QUARTER)
    if kind == "finite":
        return (p, p + draw(_GAP))
    if kind == "essential":
        return (p, math.inf)
    if kind == "neg_inf":
        return (-math.inf, p)
    return (-math.inf, math.inf)


_QUARTER_GRID_DIAGRAMS = st.lists(_quarter_grid_point(), max_size=40).map(dgm)


@settings(max_examples=150, deadline=None)
@given(_QUARTER_GRID_DIAGRAMS, _QUARTER_GRID_DIAGRAMS)
def test_feasibility_and_value_match_the_complete_slot_block_oracle(a, b):
    # the oracle is the complete diagonal-slot graph with its own
    # augmenting-path matcher; feasibility must agree at every candidate
    for delta in bottleneck_candidates(a, b, 0):
        assert matching_at(a, b, 0, delta).feasible == bottleneck_feasible_oracle(a, b, 0, delta), delta
    value = bottleneck(a, b, 0)
    assert value.float_value == bottleneck_oracle(a, b, 0)
    if value.is_finite:
        witness = matching_at(a, b, 0, value.value)
        for x, y in witness.matched:
            assert (x.p.is_finite, x.q.is_finite) == (y.p.is_finite, y.q.is_finite)
            assert max(
                abs(x.p.value - y.p.value) if x.p.is_finite else 0.0,
                abs(x.q.value - y.q.value) if x.q.is_finite else 0.0,
            ) <= value.value
        for pt in witness.unmatched_a + witness.unmatched_b:
            assert pt.gap / 2 <= value.value
        assert len(witness.matched) + len(witness.unmatched_a) == a.count(0)
        assert len(witness.matched) + len(witness.unmatched_b) == b.count(0)


@st.composite
def _one_coordinate_pair(draw):
    """Two diagrams of points with an infinite coordinate, on the quarter
    grid, whose point counts differ."""
    point = st.builds(lambda kind, x: kind(x), st.sampled_from([
        lambda x: (x, math.inf), lambda x: (-math.inf, x), lambda x: (-math.inf, math.inf)]), _QUARTER)
    points_a, points_b = draw(st.lists(point, max_size=12)), draw(st.lists(point, max_size=12))
    if len(points_a) == len(points_b):
        points_b.append(draw(point))
    return dgm(points_a), dgm(points_b)


def _within(x, y, delta):
    """Whether x and y, each with an infinite coordinate, may pair at delta:
    in one infinity class, and within delta along its finite coordinate."""
    if (math.isfinite(x.p), math.isfinite(x.q)) != (math.isfinite(y.p), math.isfinite(y.q)):
        return False
    return (abs(x.p - y.p) if math.isfinite(x.p) else abs(x.q - y.q) if math.isfinite(x.q) else 0.0) <= delta


@settings(max_examples=200, deadline=None)
@given(_one_coordinate_pair())
def test_one_coordinate_matchings_are_maximum_at_every_candidate(pair):
    # no point of these classes may go to the diagonal, so with unequal
    # counts no delta is feasible; each result must still be a maximum
    # matching of the pairs within delta
    a, b = pair
    points_a = [pt for pt, m in a.items(0) for _ in range(m)]
    points_b = [pt for pt, m in b.items(0) for _ in range(m)]
    for delta in bottleneck_candidates(a, b, 0) + [math.inf]:
        result = matching_at(a, b, 0, delta)
        within = [[j for j, y in enumerate(points_b) if _within(x, y, delta)] for x in points_a]
        assert len(result.matched) == _kuhn_matching_size(within, len(points_b)), delta
        assert all(_within(x, y, delta) for x, y in result.matched)
        assert len(result.matched) + len(result.unmatched_a) == len(points_a)
        assert len(result.matched) + len(result.unmatched_b) == len(points_b)
        assert not result.feasible
    assert bottleneck(a, b, 0) is POS_INF


@st.composite
def _bipartite_graph(draw):
    """A random bipartite graph as its left vertices' rows, and its right side's size."""
    n_left, n_right = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    adjacency = [draw(st.lists(st.integers(0, n_right - 1), unique=True)) if n_right else [] for _ in range(n_left)]
    return adjacency, n_right


@settings(max_examples=300, deadline=None)
@given(_bipartite_graph())
def test_warm_started_hopcroft_karp_finds_a_maximum_matching(case):
    # Hopcroft-Karp starts from the empty matching only; the search keeps its result maximum itself
    adjacency, n_right = case
    partner, size = B._hopcroft_karp(adjacency, n_right)
    matched = [(u, v) for u, v in enumerate(partner) if v >= 0]
    assert all(v in adjacency[u] for u, v in matched)
    assert len({v for _, v in matched}) == len(matched) == size
    assert size == _kuhn_matching_size(adjacency, n_right)


_FINITE_QUARTER_GRID = st.lists(st.tuples(_QUARTER, _GAP).map(lambda t: (t[0], t[0] + t[1])), max_size=30).map(dgm)


def _vertex_order_adjacency(a, b, delta):
    """The augmented graph at delta of two diagrams of finite points, each
    row listing its right vertices in order but for a point's own slot,
    which comes last."""
    xs, ys = B._expand(a, 0), B._expand(b, 0)
    m = len(ys)
    return [
        [j for j, y in enumerate(ys) if B._pair_cost(x, y) <= delta] + [m + i] * (B._diagonal_cost(x) <= delta)
        for i, x in enumerate(xs)
    ] + [
        [m + i for i, x in enumerate(xs) if B._pair_cost(x, y) <= delta] + [j] * (B._diagonal_cost(y) <= delta)
        for j, y in enumerate(ys)
    ]


def _graph_at(a, b, delta):
    """The augmented graph of two diagrams of finite points at delta, as `matching_at` grows it."""
    (_, side_a, side_b), = B._classes(a, b, 0)
    graph = B._Graph(B._class_edges(side_a, side_b, delta)[0], len(side_a[0]), len(side_b[0]))
    graph.grow(0, len(graph.cost))
    return graph


@settings(max_examples=200, deadline=None)
@given(_FINITE_QUARTER_GRID, _FINITE_QUARTER_GRID,
       st.one_of(st.none(), st.just(-1.0), st.integers(0, 48).map(lambda k: k / 4)))
@example(dgm([]), dgm([(0, 1), (0.5, 2)]), None)
@example(dgm([(0, 1), (0.5, 2)]), dgm([]), 1.0)
@example(dgm([(0, 1), (0.5, 2)]), dgm([(0, 1.25)]), -1.0)
def test_class_edges_match_the_mask_reference(a, b, cap):
    # cap None is the largest diagonal cost, -1 lies below every cost; n or m may be 0
    side_a, side_b = ((p.repeat(mult), q.repeat(mult)) for p, q, mult in (a.arrays(0), b.arrays(0)))
    cost, diag_a, diag_b = B._class_costs(side_a, side_b)
    edges, bound = B._class_edges(side_a, side_b, cap)
    expected = class_edges_reference(cost, diag_a, diag_b,
                                     max(diag_a.max(initial=0.0), diag_b.max(initial=0.0)) if cap is None else cap)
    for mine, theirs in zip(edges, expected):
        assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist()
    assert (bound is None) == (cap is not None)


@settings(max_examples=150, deadline=None)
@given(_FINITE_QUARTER_GRID, _FINITE_QUARTER_GRID, st.integers(0, 48).map(lambda k: k / 4))
def test_matching_at_matches_rows_in_vertex_order(a, b, delta):
    adjacency = _vertex_order_adjacency(a, b, delta)
    n, m = a.count(0), b.count(0)
    if n + m:
        assert _graph_at(a, b, delta).adjacency == adjacency
    # the witness is Hopcroft-Karp's from the empty matching on that graph
    partner, size = B._hopcroft_karp(adjacency, n + m)
    result = matching_at(a, b, 0, delta)
    assert result._partner.tolist() == [j if j < m else -1 for j in partner[:n]]
    assert result.feasible == (size == n + m)


@settings(max_examples=150, deadline=None)
@given(_FINITE_QUARTER_GRID, _FINITE_QUARTER_GRID, st.integers(0, 48).map(lambda k: k / 4))
def test_the_forest_of_a_maximum_matching_is_a_hall_violator(a, b, delta):
    # grown from the free left vertices, the forest Z holds every partner of
    # its right neighbours, so |N(Z)| = |Z| - free < |Z| while a vertex is free
    if not a.count(0) + b.count(0):
        return
    graph = _graph_at(a, b, delta)
    partner, size = B._hopcroft_karp(graph.adjacency, graph.n + graph.m)
    match_right = [-1] * len(partner)
    for u, v in enumerate(partner):
        if v >= 0:
            match_right[v] = u
    free = [u for u, v in enumerate(partner) if v < 0]
    parent = [-1 if v < 0 else -2 for v in partner]
    assert B._forest(graph.adjacency, match_right, parent, list(free)) is None
    reached = {u for u, up in enumerate(parent) if up != -2}
    neighbours = {v for u in reached for v in graph.adjacency[u]}
    assert reached == set(free) | {match_right[v] for v in neighbours}
    assert len(neighbours) == len(reached) - len(free)
    for u in reached - set(free):  # the parent is a forest vertex with an arc to u's partner
        assert parent[u] in reached and partner[u] in graph.adjacency[parent[u]]


def _finite_part(diagram):
    return dgm({pt: mult for pt, mult in diagram.items(0) if pt.gap < math.inf})


def _recorded_sweep(a, b):
    """The bottleneck of a and b in degree 0, with the finite class's
    search graph and its steps: the matching at the bound when it is not
    perfect there, then the matching after each augmentation, each with
    the position of the last edge in the graph."""
    graphs, steps = [], []
    augmentations = B._augmentations

    def recording(graph, partner, start):
        graphs.append(graph)
        steps.append((start - 1, list(partner)))
        for at in augmentations(graph, partner, start):
            steps.append((at, list(partner)))
            yield at

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(B, "_augmentations", recording)
        value = bottleneck(a, b, 0)
    return value, graphs, steps


def _check_sweep(a, b):
    value, graphs, steps = _recorded_sweep(a, b)
    assert value.float_value == bottleneck_oracle(a, b, 0)
    if not steps:  # perfect at the bound already, or no finite class
        return graphs, steps
    (graph,) = graphs
    a, b = _finite_part(a), _finite_part(b)
    size = graph.n + graph.m
    positions = [at for at, _ in steps]
    assert positions == sorted(positions)
    # each step stands for one more matched edge; a cost matched whole repeats its last one
    sizes = [len(p) - p.count(-1) for _, p in steps]
    assert sizes[-1] == size == sizes[0] + len(steps) - 1
    assert all(sizes[0] + k <= sizes[k] for k in range(len(steps)))
    assert float(graph.cost[positions[-1]]) == bottleneck_oracle(a, b, 0) <= value.float_value
    for k, (at, partner) in enumerate(steps):
        delta = float(graph.cost[at])
        adjacency = _vertex_order_adjacency(a, b, delta)
        assert all(v in adjacency[u] for u, v in enumerate(partner) if v >= 0)
        if k + 1 < len(steps) and graph.cost[steps[k + 1][0]] == delta:
            continue  # the next step grows the matching at the same cost
        # the last matching at each cost is maximum in the graph at that cost
        assert len(partner) - partner.count(-1) == _kuhn_matching_size(adjacency, size), delta
    return graphs, steps


@settings(max_examples=150, deadline=None)
@given(_FINITE_QUARTER_GRID, _FINITE_QUARTER_GRID)
def test_every_sweep_step_is_a_maximum_matching_on_the_quarter_grid(a, b):
    _check_sweep(a, b)


@pytest.mark.parametrize("seed, n", [(60, 60), (61, 75), (90, 90), (120, 120)])
def test_every_sweep_step_is_a_maximum_matching_on_perturbed_pairs(seed, n):
    # the copies share their essential points, so the finite class alone decides the value
    _, steps = _check_sweep(*perturbed_diagram_pair(random.Random(seed), n))
    assert len(steps) > 1


@st.composite
def _augmented_graph(draw):
    """A sorted edge list of an augmented graph that need not come from
    points: any pairs, every point's slot edge, in any order, with costs
    that rise step by step or tie in a few groups, and the end of a cost
    group to sweep from."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), unique=True))
    edges = draw(st.permutations(pairs + [(i, m + i) for i in range(n)] + [(n + j, j) for j in range(m)]))
    groups = draw(st.sampled_from([len(edges), 4, 2]))
    cost = np.sort(np.array([draw(st.integers(0, groups - 1)) for _ in edges], float))
    start = int(np.searchsorted(cost, cost[draw(st.integers(0, len(edges) - 1))], "right"))
    left, right = (np.array(side, np.int32) for side in zip(*edges))
    return B._Graph((cost, left, right), n, m), start


def _prefix_adjacency(graph, stop):
    """The rows of the graph with the edges before ``stop`` in it, grown anew."""
    prefix = B._Graph((graph.cost, graph.left, graph.right), graph.n, graph.m)
    prefix.grow(0, stop)
    return prefix.adjacency


@settings(max_examples=300, deadline=None)
@given(_augmented_graph())
@example((B._Graph((np.arange(27, dtype=float), *(np.array(side, np.int32) for side in zip(*[
    (5, 0), (4, 4), (4, 10), (2, 3), (4, 5), (3, 2), (2, 1), (8, 3), (2, 4), (0, 1), (3, 9), (1, 7), (6, 1),
    (10, 5), (2, 8), (4, 1), (1, 2), (0, 2), (4, 2), (0, 6), (7, 2), (3, 0), (2, 0), (9, 4), (0, 3), (4, 3),
    (1, 4)]))), 5, 6), 3))  # one edge whose two arcs each close a path
@example((B._Graph((np.array([0.0] + [1.0] * 39), np.array(list(range(20)) + list(range(20, 40)), np.int32),
                    np.array(list(range(20, 40)) + list(range(20)), np.int32)), 20, 20), 1))  # 39 paths at cost 1
@example((B._Graph((np.array([0.0] + [1.0] * 17 + [2.0] * 33), *(np.array(side, np.int32) for side in zip(*(
    [(0, 17)] + [(i, i) for i in range(17)] + [(i, 17 + i) for i in range(1, 17)] + [(17 + j, j) for j in range(17)]
)))), 17, 17), 1))  # the 16th path at cost 1 closes at a pair's arc, whose mirror closes the 17th
def test_the_sweep_keeps_a_maximum_matching_of_every_prefix(case):
    graph, start = case
    size = graph.n + graph.m
    graph.grow(0, start)
    partner, matched = B._hopcroft_karp(graph.adjacency, size)
    last = {}  # per cost, the position of its last augmentation and the matching's size after it
    for at in islice(B._augmentations(graph, partner, start), size - matched):
        last[graph.cost[at]] = at, len(partner) - partner.count(-1)
    # the matching after the last augmentation at each cost is maximum in the graph up to it
    for at, got in last.values():
        assert got == _kuhn_matching_size(_prefix_adjacency(graph, at + 1), size), at
    stops = [stop for stop in range(start, len(graph.cost) + 1)
             if _kuhn_matching_size(_prefix_adjacency(graph, stop), size) == size]
    assert max(last, default=graph.cost[start - 1]) == graph.cost[stops[0] - 1]


def test_an_augmentation_past_the_bound_gives_the_value():
    # the bound is 0.5, where (0, 4) and (0.5, 4.5) compete for (0, 4); one goes to the diagonal at 2
    a, b = dgm([(0, 4), (0.5, 4.5)]), dgm([(0, 4)])
    for x, y in ((a, b), (b, a)):
        value, (graph,), steps = _recorded_sweep(x, y)
        assert value == 2.0 == bottleneck_oracle(x, y, 0)
        assert [(float(graph.cost[at]), len(p) - p.count(-1)) for at, p in steps] == [(0.5, 2), (2.0, 3)]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 40])
def test_copies_of_a_point_against_one_point(k):
    # one copy pairs at cost 0, the other k - 1 go to the diagonal at cost 1, one augmentation
    # each; past 16 of them Hopcroft-Karp matches cost 1 whole (one path at a time, each through
    # the one point's slot, 10,000 copies took 9.7 s)
    a, b = dgm({(0, 2): k}), dgm([(0, 2)])
    calls = 0
    hopcroft_karp = B._hopcroft_karp

    def counting(adjacency, n_right):
        nonlocal calls
        calls += 1
        return hopcroft_karp(adjacency, n_right)

    for x, y in ((a, b), (b, a)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(B, "_hopcroft_karp", counting)
            value, graphs, steps = _recorded_sweep(x, y)
        assert value == (1.0 if k > 1 else 0.0)
        assert [float(graphs[0].cost[at]) for at, _ in steps] == ([0.0] + [1.0] * (k - 1) if k > 1 else [])
        assert value == bottleneck_oracle(x, y, 0)
    assert calls == (4 if k - 1 > B._BATCH else 2)


def test_the_value_can_be_reached_inside_a_group_of_equal_costs():
    # at cost 1 the three slot edges arrive and either copy's makes the matching perfect, so
    # it is perfect before the group's last edge, whose arrival the sweep never waits for
    value, (graph,), steps = _recorded_sweep(dgm({(0, 2): 2}), dgm([(0, 2)]))
    at = steps[-1][0]
    assert value == 1.0 and graph.cost[at] == 1.0
    assert at + 1 < len(graph.cost) and graph.cost[at + 1] == 1.0


def test_the_search_hands_hopcroft_karp_at_most_half_the_entries_of_a_plain_bisection():
    # On this 300-point pair the plain bisection over the whole grid, with a
    # cold start at every step, made 16 matchings and handed them 241,777
    # adjacency entries in all.
    a, b = perturbed_diagram_pair(random.Random(1), 300)
    calls, entries = 0, 0
    hopcroft_karp = B._hopcroft_karp

    def counting(adjacency, n_right):
        nonlocal calls, entries
        calls += 1
        entries += sum(map(len, adjacency))
        return hopcroft_karp(adjacency, n_right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(B, "_hopcroft_karp", counting)
        value = bottleneck(a, b, 0)
    assert value.is_finite and value.value > 0
    assert entries <= 241_777 // 2, (calls, entries)


def test_the_search_jumps_past_infeasible_thresholds():
    # the plain gallop from the lower bound made 75 matchings on these pairs, the gallop with
    # Hall-violator jumps 35; the sweep matches once per pair, at the bound, and augments from there
    calls = 0
    hopcroft_karp = B._hopcroft_karp

    def counting(adjacency, n_right):
        nonlocal calls
        calls += 1
        return hopcroft_karp(adjacency, n_right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(B, "_hopcroft_karp", counting)
        for seed, n in [(1, 300), (60, 60), (61, 75), (90, 90), (120, 120)]:
            assert bottleneck(*perturbed_diagram_pair(random.Random(seed), n), 0).is_finite
    assert calls == 5


def test_the_cost_matrix_is_built_with_at_most_two_matrices_alive():
    rng = np.random.default_rng(5)
    n = m = 400
    pa, pb = rng.random(n), rng.random(m)
    a, b = (pa, pa + rng.uniform(0.02, 0.5, n)), (pb, pb + rng.uniform(0.02, 0.5, m))
    tracemalloc.start()
    try:
        cost, diag_a, diag_b = B._class_costs(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * n * m * 8, peak
    assert np.array_equal(cost, np.maximum(np.abs(np.subtract.outer(a[0], b[0])), np.abs(np.subtract.outer(a[1], b[1]))))
    assert np.array_equal(diag_a, (a[1] - a[0]) / 2.0) and np.array_equal(diag_b, (b[1] - b[0]) / 2.0)


def test_metric_axioms_on_samples():
    rng = random.Random(777)
    for _ in range(40):
        a = random_diagram(rng, max_points=5, max_degree=0)
        b = random_diagram(rng, max_points=5, max_degree=0)
        c = random_diagram(rng, max_points=5, max_degree=0)
        assert bottleneck(a, a, 0).value == 0.0
        ab, ba = bottleneck(a, b, 0), bottleneck(b, a, 0)
        assert ab == ba
        bc, ac = bottleneck(b, c, 0), bottleneck(a, c, 0)
        if all(v.is_finite for v in (ab, bc, ac)):
            assert ac.value <= ab.value + bc.value + 1e-12


def test_optimum_is_a_candidate_cost():
    rng = random.Random(31)
    for _ in range(60):
        a = random_diagram(rng, max_points=6, max_degree=0, essential_rate=0.0)
        b = random_diagram(rng, max_points=6, max_degree=0, essential_rate=0.0)
        value = bottleneck(a, b, 0)
        pts_a = [pt for pt, m in a.items(0) for _ in range(m)]
        pts_b = [pt for pt, m in b.items(0) for _ in range(m)]
        candidates = {0.0}
        candidates.update(pt.gap / 2 for pt in pts_a)
        candidates.update(pt.gap / 2 for pt in pts_b)
        candidates.update(
            max(abs(x.p.value - y.p.value), abs(x.q.value - y.q.value))
            for x in pts_a
            for y in pts_b
        )
        assert value.value in candidates
        # and the chosen threshold is tight: feasible here, infeasible below
        assert matching_at(a, b, 0, value.value).feasible
        below = max((c for c in candidates if c < value.value), default=None)
        if below is not None:
            assert not matching_at(a, b, 0, below).feasible


def test_matched_pairs_and_unmatched_points_obey_the_threshold():
    rng = random.Random(99)
    for _ in range(40):
        a = random_diagram(rng, max_points=8, max_degree=0, essential_rate=0.0)
        b = random_diagram(rng, max_points=8, max_degree=0, essential_rate=0.0)
        delta = rng.uniform(0.0, 6.0)
        result = matching_at(a, b, 0, delta)
        if not result.feasible:
            continue
        for x, y in result.matched:
            assert max(abs(x.p.value - y.p.value), abs(x.q.value - y.q.value)) <= delta
        for pt in result.unmatched_a + result.unmatched_b:
            assert pt.gap / 2 <= delta
        assert len(result.matched) + len(result.unmatched_a) == a.count(0)
        assert len(result.matched) + len(result.unmatched_b) == b.count(0)


def test_stability_under_filtration_perturbation():
    rng = random.Random(2718)
    for _ in range(30):
        k = random_filtered_complex(rng)
        delta = rng.uniform(0.0, 1.0)
        perturbed, achieved = perturb_filtration(k, rng, delta)
        da = diagram_of(compute_persistence(k))
        db = diagram_of(compute_persistence(perturbed))
        for d in (0, 1):
            dist = bottleneck(da, db, d)
            assert dist.is_finite
            assert dist.value <= achieved + 1e-12


def test_interleaving_alias():
    a = Barcode([(0, Interval.closed_open(0, 2))])
    b = Barcode([(0, Interval.closed_open(0.5, 2.5))])
    assert interleaving_distance(a, b, 0).value == 0.5

