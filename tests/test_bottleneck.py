"""Bottleneck distance: examples, oracle agreement, metric axioms, stability,
and the matching and search underneath."""

import copy
import importlib
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    bottleneck_feasible_oracle,
    bottleneck_oracle,
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
    message = rf"^matching limited to 10000 points per diagram, got {mult} in degree 0$"
    for call in (lambda: bottleneck(big, one, 0), lambda: bottleneck(one, big, 0), lambda: matching_at(big, one, 0, 1)):
        with pytest.raises(TooLargeError, match=message):
            call()


@pytest.mark.parametrize("mult", [2**70, 10**11])
def test_bruteforce_counts_copies_before_listing_them(mult):
    with pytest.raises(TooLargeError, match=rf"^brute force limited to 8 points per diagram, got 1 and {mult}$"):
        bottleneck_bruteforce(dgm([(0, 1)]), dgm({(0, 1): mult}), 0)


def test_the_matching_limit_counts_copies_per_diagram():
    at_limit = dgm({(0, 1): B.MATCHING_LIMIT})
    assert bottleneck(at_limit, dgm([(0, 1)]), 0) == 0.5
    assert matching_at(at_limit, PersistenceDiagram(), 0, 0.5).feasible
    over = dgm({(0, 1): B.MATCHING_LIMIT - 1, (0, 2): 2})
    with pytest.raises(TooLargeError, match=rf"got {B.MATCHING_LIMIT + 1} in degree 0"):
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
def _graph_and_matching(draw):
    """A random bipartite graph and a random valid partial matching of it."""
    n_left, n_right = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    adjacency = [draw(st.lists(st.integers(0, n_right - 1), unique=True)) if n_right else [] for _ in range(n_left)]
    edges = draw(st.permutations([(u, v) for u, row in enumerate(adjacency) for v in row]))
    start, taken = [-1] * n_left, set()
    for u, v in edges[: draw(st.integers(0, len(edges)))]:
        if start[u] < 0 and v not in taken:
            start[u] = v
            taken.add(v)
    return adjacency, n_right, start


@settings(max_examples=300, deadline=None)
@given(_graph_and_matching())
def test_warm_started_hopcroft_karp_finds_a_maximum_matching(case):
    adjacency, n_right, start = case
    partner, size, layer = B._hopcroft_karp(adjacency, n_right, list(start))
    matched = [(u, v) for u, v in enumerate(partner) if v >= 0]
    assert all(v in adjacency[u] for u, v in matched)
    assert len({v for _, v in matched}) == len(matched) == size
    assert size == _kuhn_matching_size(adjacency, n_right)
    # the last search's reached vertices Z violate Hall's condition when some
    # left vertex is free: every neighbour of Z is matched into Z
    reached = {u for u, at in enumerate(layer) if at >= 0}
    neighbours = {v for u in reached for v in adjacency[u]}
    assert reached == {u for u, v in enumerate(partner) if v < 0 or v in neighbours}
    assert len(neighbours) == len(reached) - (len(adjacency) - size)
    # a cold start is the same search from the empty matching
    assert B._hopcroft_karp(adjacency, n_right)[1] == size


def _recorded_search(a, b):
    """The bottleneck of a and b in degree 0, with the finite class's lower
    bound, every threshold the search probed, with its verdict, and the
    lower end each infeasible probe's jump gave."""
    floors, probes, jumps = [], [], []
    lower_bound, probe, jump = B._lower_bound, B._probe, B._Graph.jump

    def recording_bound(*args):
        floors.append(lower_bound(*args))
        return floors[-1]

    def recording_probe(graph, at, start):
        feasible, partner, layer = probe(graph, at, start)
        probes.append((float(graph.cost[at]), feasible))
        return feasible, partner, layer

    def recording_jump(graph, layer, partner):
        at = jump(graph, layer, partner)
        jumps.append(float(graph.cost[at]))
        return at

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(B, "_lower_bound", recording_bound)
        patch.setattr(B, "_probe", recording_probe)
        patch.setattr(B._Graph, "jump", recording_jump)
        value = bottleneck(a, b, 0)
    return value, floors, probes, jumps


def _check_search(a, b):
    value, floors, probes, jumps = _recorded_search(a, b)
    expected = bottleneck_oracle(a, b, 0)
    assert value.float_value == expected
    assert len(floors) <= 1
    for floor in floors:
        assert floor <= expected
        if probes:  # the gallop starts at the bound itself
            assert probes[0][0] == floor
    for delta, feasible in probes:
        assert feasible == bottleneck_feasible_oracle(a, b, 0, delta), delta
    assert len(jumps) == sum(not feasible for _, feasible in probes)
    for lower_end in jumps:  # no threshold below a Hall violator's cheapest new neighbour is feasible
        assert lower_end <= expected


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


@settings(max_examples=150, deadline=None)
@given(_FINITE_QUARTER_GRID, _FINITE_QUARTER_GRID, st.integers(0, 48).map(lambda k: k / 4))
def test_matching_at_matches_rows_in_vertex_order(a, b, delta):
    adjacency = _vertex_order_adjacency(a, b, delta)
    n, m = a.count(0), b.count(0)
    if n + m:
        (_, side_a, side_b), = B._classes(a, b, 0)
        graph = B._Graph(B._class_edges(side_a, side_b, delta)[0], n, m)
        graph.grow(len(graph.cost))
        assert graph.adjacency == adjacency
    # the witness is Hopcroft-Karp's from the empty matching on that graph
    partner, size, _ = B._hopcroft_karp(adjacency, n + m)
    result = matching_at(a, b, 0, delta)
    assert result._partner.tolist() == [j if j < m else -1 for j in partner[:n]]
    assert result.feasible == (size == n + m)


def _sorted_graph(a, b):
    """The search's graph of two diagrams of finite points, over the cost-sorted edges, with none grown yet."""
    (_, side_a, side_b), = B._classes(a, b, 0)
    (cost, left, right), _ = B._class_edges(side_a, side_b)
    order = np.argsort(cost)
    return B._Graph((cost[order], left[order], right[order]), len(side_a[0]), len(side_b[0]))


@settings(max_examples=150, deadline=None)
@given(_FINITE_QUARTER_GRID.filter(lambda a: a.count(0)), _FINITE_QUARTER_GRID, st.data())
def test_cutting_a_matched_graph_leaves_the_graph_grown_to_the_cut(a, b, data):
    graph = _sorted_graph(a, b)
    s1 = data.draw(st.integers(1, len(graph.cost)))
    s2 = data.draw(st.integers(0, s1 - 1))
    graph.grow(s1)
    partner, _, _ = B._hopcroft_karp(graph.adjacency, graph.n + graph.m)
    matching = list(partner)
    graph.cut(s2, partner)
    expected = _sorted_graph(a, b)
    expected.grow(s2)
    assert graph.stop == s2 and graph.adjacency == expected.adjacency
    # an edge (u, v) of a pair also stands for its mirror (n + v, m + u)
    n, m = graph.n, graph.m
    dropped = set()
    for u, v in zip(graph.left[s2:s1].tolist(), graph.right[s2:s1].tolist()):
        dropped.add((u, v))
        if u < n and v < m:
            dropped.add((n + v, m + u))
    assert partner == [-1 if (u, v) in dropped else v for u, v in enumerate(matching)]


@settings(max_examples=150, deadline=None)
@given(_FINITE_QUARTER_GRID, _FINITE_QUARTER_GRID)
def test_every_search_probe_agrees_with_the_oracle_on_the_quarter_grid(a, b):
    _check_search(a, b)


@pytest.mark.parametrize("seed, n", [(60, 60), (61, 75), (90, 90), (120, 120)])
def test_every_search_probe_agrees_with_the_oracle_on_perturbed_pairs(seed, n):
    # the copies share their essential points, so the oracle's one graph
    # decides the finite class alone
    _check_search(*perturbed_diagram_pair(random.Random(seed), n))


def test_the_search_hands_hopcroft_karp_at_most_half_the_entries_of_a_plain_bisection():
    # On this 300-point pair the plain bisection over the whole grid, with a
    # cold start at every step, made 16 matchings and handed them 241,777
    # adjacency entries in all.
    a, b = perturbed_diagram_pair(random.Random(1), 300)
    calls, entries = 0, 0
    hopcroft_karp = B._hopcroft_karp

    def counting(adjacency, n_right, start=None):
        nonlocal calls, entries
        calls += 1
        entries += sum(map(len, adjacency))
        return hopcroft_karp(adjacency, n_right, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(B, "_hopcroft_karp", counting)
        value = bottleneck(a, b, 0)
    assert value.is_finite and value.value > 0
    assert entries <= 241_777 // 2, (calls, entries)


def test_the_search_jumps_past_infeasible_thresholds():
    # the plain gallop from the lower bound made 75 matchings on these pairs
    calls = 0
    hopcroft_karp = B._hopcroft_karp

    def counting(adjacency, n_right, start=None):
        nonlocal calls
        calls += 1
        return hopcroft_karp(adjacency, n_right, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(B, "_hopcroft_karp", counting)
        for seed, n in [(1, 300), (60, 60), (61, 75), (90, 90), (120, 120)]:
            assert bottleneck(*perturbed_diagram_pair(random.Random(seed), n), 0).is_finite
    assert calls < 75


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

