"""Diagram construction, multiplicity bookkeeping, and quadrant counts."""

import copy
import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pershom import (
    Barcode,
    ConstancyWitness,
    DiagramPoint,
    ExtendedReal,
    Interval,
    NEG_INF,
    POS_INF,
    PersistenceDiagram,
    PreconditionViolated,
    barcode_rank,
    cap_number,
    cap_number_at,
    constancy_witness,
    diagram_of,
    essential_dimension,
    morse_check,
    nu,
    quadrant_count,
    radical,
)

from pershom.filtration import compute_persistence
from pershom.io import format_diagram, parse_diagram

from helpers import (
    BarcodeOracle,
    cap_number_at_oracle,
    cap_number_oracle,
    diagram_oracle,
    essential_dimension_oracle,
    grid_lower_star,
    in_degree_reference,
    morse_check_oracle,
    nu_oracle,
    point_table_oracle,
    quadrant_count_oracle,
    random_diagram,
    random_diagram_rows,
    table_format_oracle,
    table_repr_oracle,
)


def test_diagram_point_validation():
    with pytest.raises(ValueError):
        DiagramPoint(ExtendedReal(1.0), ExtendedReal(1.0))  # needs p < q
    with pytest.raises(ValueError):
        DiagramPoint(POS_INF, POS_INF)
    with pytest.raises(ValueError):
        DiagramPoint(ExtendedReal(0.0), NEG_INF)
    pt = DiagramPoint(NEG_INF, POS_INF)
    assert pt.gap == math.inf
    assert type(pt._replace(q=3).q) is ExtendedReal
    with pytest.raises(ValueError, match="requires p < q"):
        pt._replace(p=3, q=1)


def test_diagram_accumulates_multiplicity():
    d = PersistenceDiagram({0: [(0, 1), (0, 1), (0, 2)]})
    assert d.multiplicity(0, (0, 1)) == 2
    assert d.multiplicity(0, (0, 2)) == 1
    assert d.count(0) == 3
    assert d == PersistenceDiagram({0: {(0, 1): 2, (0, 2): 1}})
    with pytest.raises(ValueError):
        PersistenceDiagram({0: {(0, 1): 0}})


def test_diagram_degrees_and_multiplicities_must_be_integers():
    with pytest.raises(ValueError, match="degree must be an integer, got 1.5"):
        PersistenceDiagram({1.5: [(0, 1)]})
    for bad in (1.9, "3", 2.0):
        with pytest.raises(ValueError, match=f"multiplicity must be an integer, got {bad!r}"):
            PersistenceDiagram({0: {(0, 1): bad}})
    assert PersistenceDiagram({np.int64(1): {(0, 1): np.int64(2)}}) == PersistenceDiagram({1: {(0, 1): 2}})


def test_diagram_of_examples():
    openness_forgotten = Barcode(
        [
            (0, Interval.closed_open(0, 1)),
            (0, Interval.closed_closed(0, 1)),
            (0, Interval.open_open(0, 1)),
        ]
    )
    assert diagram_of(openness_forgotten) == PersistenceDiagram({0: {(0, 1): 3}})

    assert diagram_of(Barcode([(1, Interval.singleton(2.0))])) == PersistenceDiagram()
    assert diagram_of(Barcode()) == PersistenceDiagram()


def test_diagram_of_ignores_radical():
    rng = random.Random(7)
    for _ in range(50):
        bars = []
        for _ in range(rng.randint(0, 8)):
            lo = rng.uniform(-3, 3)
            bars.append((rng.randint(0, 2), Interval.closed_open(lo, lo + rng.uniform(0.1, 2))))
        b = Barcode(bars)
        assert diagram_of(radical(b)) == diagram_of(b)


def test_quadrant_count_examples():
    d = PersistenceDiagram({0: [(0, 1), (0, 3), (2, 5)]})
    assert quadrant_count(d, 0, 1.0, 2.0) == 1  # only (0, 3)

    assert quadrant_count(PersistenceDiagram({0: [(0, 1)]}), 0, 0.0, 0.0) == 0

    unbounded = PersistenceDiagram({0: [(-math.inf, math.inf)]})
    assert quadrant_count(unbounded, 0, 0.0, 0.0) == 1


def test_quadrant_count_accepts_infinite_corners_and_names_nan():
    d = PersistenceDiagram({0: [(0, 1), (-math.inf, 2), (3, math.inf), (-math.inf, math.inf)]})
    assert quadrant_count(d, 0, math.inf, -math.inf) == 4
    assert quadrant_count(d, 0, math.inf, 1.5) == 3
    assert quadrant_count(d, 0, 0.5, math.inf) == 0
    assert quadrant_count(d, 0, -math.inf, -math.inf) == 0
    with pytest.raises(ValueError, match="x must not be NaN"):
        quadrant_count(d, 0, math.nan, 0.0)
    with pytest.raises(ValueError, match="y must not be NaN"):
        quadrant_count(d, 0, 0.0, math.nan)


def test_quadrant_count_against_enumeration():
    rng = random.Random(99)
    for _ in range(100):
        diagram = random_diagram(rng, max_points=50, neg_inf_rate=0.1)
        d = rng.randint(0, 4)
        x = rng.uniform(-12, 12)
        y = rng.uniform(-12, 12)
        expected = sum(
            m
            for pt, m in diagram.items(d)
            if pt.p.float_value < x and pt.q.float_value > y
        )
        assert quadrant_count(diagram, d, x, y) == expected


def test_quadrant_dominates_long_gap_count():
    rng = random.Random(5)
    for _ in range(100):
        diagram = random_diagram(rng, max_points=50)
        d = rng.randint(0, 4)
        x = rng.uniform(-12, 12)
        y = x + rng.uniform(0, 5)
        restricted = sum(
            m
            for pt, m in diagram.items(d)
            if pt.gap > y - x and pt.p.float_value < x and pt.q.float_value > y
        )
        assert quadrant_count(diagram, d, x, y) >= restricted


@pytest.mark.parametrize("text", ["0.5", b"0.5", bytearray(b"0.5")])
def test_diagram_points_must_not_be_text(text):
    # `float` would parse each
    message = re.escape(repr(text))
    with pytest.raises(ValueError, match=r"^p must be a real number, got " + message):
        DiagramPoint(text, 1)
    with pytest.raises(ValueError, match=r"^q must be a real number, got " + message):
        DiagramPoint(0, text)
    with pytest.raises(ValueError, match=r"^p must be a real number, got " + message):
        PersistenceDiagram({0: [(text, 1)]})


@pytest.mark.parametrize("point, mult, message", [
    ((2.0, 1.0), 1, r"requires p < q, got \(2.0, 1.0\)"),
    ((math.inf, math.inf), 1, r"birth coordinate cannot be \+inf"),
    ((0.0, -math.inf), 1, "death coordinate cannot be -inf"),
    ((0.0, 1.0), 0, "requires multiplicity >= 1, got 0"),
])
def test_points_checked_at_once_name_the_first_offender(point, mult, message):
    from pershom.diagram import _from_rows

    def rows(*points):  # (degree, p, q, multiplicity) rows, as the bulk constructor takes them
        degree, p, q, mults = zip(*points)
        return np.array(degree), np.array(p, float), np.array(q, float), np.array(mults)

    good = (0, 0.0, 1.0, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _from_rows(*rows(good, (1, *point, mult), good))
    with pytest.raises(ValueError, match=f"^{message}$"):  # the message the per-point constructor gives
        PersistenceDiagram({1: {point: mult}})
    assert _from_rows(*rows(good, good)) == PersistenceDiagram({0: {(0.0, 1.0): 4}})


def test_diagram_of_makes_one_point_per_distinct_point(monkeypatch):
    import pershom.diagram

    barcode = compute_persistence(grid_lower_star(random.Random(4)))
    made = []

    class Counted(pershom.diagram.DiagramPoint):
        __slots__ = ()

        def __new__(cls, p, q):
            made.append((p, q))
            return super().__new__(cls, p, q)

    monkeypatch.setattr(pershom.diagram, "DiagramPoint", Counted)
    diagram = diagram_of(barcode)
    assert made == []  # the points are checked in bulk, so none is made through the checked constructor
    assert sum(1 for d in diagram.degrees() for _ in diagram.items(d)) < diagram.total()  # points repeat
    assert diagram == diagram_oracle(barcode)


def test_diagram_constructor_checks_points_in_bulk(monkeypatch):
    import pershom.diagram

    made = []

    class Counted(pershom.diagram.DiagramPoint):
        __slots__ = ()

        def __new__(cls, p, q):
            made.append((p, q))
            return super().__new__(cls, p, q)

    monkeypatch.setattr(pershom.diagram, "DiagramPoint", Counted)
    diagram = PersistenceDiagram({1: [(0.5, 2), (-0.0, 1)], 0: {(0.0, 1): 2, (0, math.inf): 1}, 2: [], -1: {}})
    assert made == []  # the rules are checked over all points at once, as for `diagram_of`
    assert diagram.degrees() == (0, 1)
    assert [list(diagram.items(d)) for d in (0, 1)] == [[((0.0, 1.0), 2), ((0.0, math.inf), 1)],
                                                      [((-0.0, 1.0), 1), ((0.5, 2.0), 1)]]
    with pytest.raises(ValueError, match=r"^multiplicity must be an integer, got 1.5$"):
        PersistenceDiagram({0: {(0, 1): 1.5}})


def test_diagram_of_compares_no_intervals(monkeypatch):
    # bars are counted by value; a computed barcode repeats one tuple per
    # distinct bar, which a dict finds by identity, so no Interval.__eq__ runs
    barcode = compute_persistence(grid_lower_star(random.Random(4)))
    expected = diagram_oracle(barcode)
    compare = Interval.__eq__
    calls = []

    def counted(self, other):
        calls.append(other)
        return compare(self, other)

    monkeypatch.setattr(Interval, "__eq__", counted)
    diagram = diagram_of(barcode)
    assert calls == []
    monkeypatch.undo()
    assert diagram == expected


_ENDPOINTS = [-math.inf, -0.0, 0.0, 0.5, 1.0, math.inf]


@st.composite
def _equal_bars_apart(draw):
    """Bars with repeats made as separate Interval objects or as one shared
    bar tuple, in any order."""
    bars = []
    for _ in range(draw(st.integers(0, 25))):
        lo, hi = sorted(draw(st.lists(st.sampled_from(_ENDPOINTS), min_size=2, max_size=2)))
        if lo == hi and math.isinf(lo):
            continue
        lo_closed = lo == hi or (draw(st.booleans()) and math.isfinite(lo))
        hi_closed = lo == hi or (draw(st.booleans()) and math.isfinite(hi))
        d, repeats = draw(st.integers(0, 2)), draw(st.integers(1, 3))
        if draw(st.booleans()):
            bars += [(d, Interval(lo, hi, lo_closed, hi_closed))] * repeats
        else:
            bars += [(d, Interval(lo, hi, lo_closed, hi_closed)) for _ in range(repeats)]
    return draw(st.permutations(bars))


@settings(max_examples=150, deadline=None)
@given(_equal_bars_apart())
def test_diagram_of_matches_the_per_bar_oracle_on_equal_bars_apart(bars):
    barcode = Barcode(bars)
    diagram = diagram_of(barcode)
    assert diagram == diagram_oracle(barcode)
    assert format_diagram(diagram) == format_diagram(diagram_oracle(barcode))  # the same -0.0 or 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_ENDPOINTS[:-1]), st.sampled_from(_ENDPOINTS[1:]),
                          st.integers(1, 3)), max_size=25), st.randoms(use_true_random=False))
def test_diagram_items_are_in_sorted_order_for_buckets_given_shuffled(draws, rnd):
    table = {}
    for d, p, q, mult in draws:
        if p < q:
            table.setdefault(d, {})[p, q] = mult
    for d, bucket in table.items():
        entries = list(bucket.items())
        rnd.shuffle(entries)
        table[d] = dict(entries)
    diagram = PersistenceDiagram(table)
    assert diagram.degrees() == tuple(sorted(table))
    for d in table:
        assert list(diagram.items(d)) == sorted((DiagramPoint(*pt), m) for pt, m in table[d].items())


def test_diagram_items_make_no_sort(monkeypatch):
    import pershom.diagram

    diagram = random_diagram(random.Random(5), max_points=40)
    degrees = diagram.degrees()
    expected = {d: sorted(diagram.items(d)) for d in degrees}

    def refused(*args, **kwargs):
        raise AssertionError("items sorted a degree")

    monkeypatch.setattr(pershom.diagram, "sorted", refused, raising=False)
    assert {d: list(diagram.items(d)) for d in degrees} == expected
    assert len(degrees) > 1


_MULTS = (1, 2, 3, 2**62, 2**70)  # two rows of 2**62 already leave int64


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([0.05, 0.5, 3.0]))
def test_array_diagram_matches_the_per_point_oracles(rnd, eps):
    # rows with signed zeros, infinite endpoints, repeated points and multiplicities beyond int64
    rows = random_diagram_rows(rnd, max_points=30, max_degree=3, neg_inf_rate=0.1, tie_rate=0.5, mults=_MULTS)
    diagram = parse_diagram("".join(f"{d} {p!r} {q!r} {m}\n" for d, p, q, m in rows))
    table = point_table_oracle(rows)
    assert diagram.degrees() == tuple(table)
    for d in range(-1, 5):
        assert repr(list(diagram.items(d))) == repr(list(table.get(d, {}).items()))  # the bits of each endpoint
        assert diagram.count(d) == sum(table.get(d, {}).values())
    assert diagram.total() == sum(sum(bucket.values()) for bucket in table.values())
    assert repr(diagram) == table_repr_oracle(table)
    assert format_diagram(diagram) == table_format_oracle(table)

    other = rnd.sample(rows, len(rows))
    if other and rnd.random() < 0.5:
        d, p, q, m = other[0]
        other[0] = (d, p, q, m + 1)
    assert (parse_diagram("".join(f"{d} {p!r} {q!r} {m}\n" for d, p, q, m in other)) == diagram) == (
        point_table_oracle(other) == table)

    values = sorted({x for _, p, q, _ in rows for x in (p, q)} | {0.5})
    for d in range(-1, 5):
        assert cap_number(diagram, d, eps) == cap_number_oracle(diagram, d, eps)
        assert nu(diagram, d, eps) == nu_oracle(diagram, d, eps)
        assert essential_dimension(diagram, d) == essential_dimension_oracle(diagram, d)
        for t in rnd.sample(values, min(6, len(values))):
            assert cap_number_at(diagram, d, t, eps) == cap_number_at_oracle(diagram, d, t, eps)
            assert quadrant_count(diagram, d, t, t + eps) == quadrant_count_oracle(diagram, d, t, t + eps)
    try:
        expected = morse_check_oracle(diagram, eps, 3)
    except PreconditionViolated as exc:
        with pytest.raises(PreconditionViolated, match=f"^{re.escape(str(exc))}$"):
            morse_check(diagram, eps, 3)
    else:
        assert morse_check(diagram, eps, 3) == expected


def test_multiplicities_beyond_int64_stay_exact():
    text = "0 0 1 1180591620717411303424\n0 0 1 1180591620717411303424\n1 0.5 inf 9223372036854775807\n1 -0.0 2 1\n"
    diagram = parse_diagram(text)
    assert (diagram.count(0), diagram.count(1), diagram.total()) == (2**71, 2**63, 2**71 + 2**63)
    assert format_diagram(diagram) == "0 0.0 1.0 2361183241434822606848\n1 -0.0 2.0 1\n1 0.5 inf 9223372036854775807\n"
    assert repr(diagram) == ("PersistenceDiagram(0: {(0.0, 1.0)x2361183241434822606848}; "
                             "1: {(-0.0, 2.0), (0.5, inf)x9223372036854775807})")
    report = morse_check(diagram, 0.1, 2)
    assert report.rows == ((0, 2**71, 0, 2**71), (1, 2**71 + 2**63, 2**63 - 1, 1), (2, 1, 0, 0))
    assert report.partial_sums == (2**71, 1, 0)
    # each row fits int64, their sum does not
    halves = parse_diagram("0 0 1 4611686018427387904\n0 0 2 4611686018427387904\n0 0 1 1\n")
    assert (halves.count(0), quadrant_count(halves, 0, 1, 0.5), cap_number(halves, 0, 0.1)) == (2**63 + 1,) * 3
    assert halves.multiplicity(0, (0, 1)) == 2**62 + 1


@pytest.mark.parametrize("diagram", [
    PersistenceDiagram(),
    PersistenceDiagram({0: [(0, 1), (-0.0, math.inf)], 1: {(0, 1): 2**70}, 2**70: {(-math.inf, 2): 3}}),
])
def test_diagrams_copy_and_pickle_through_their_rows(diagram):
    for other in (copy.copy(diagram), copy.deepcopy(diagram), pickle.loads(pickle.dumps(diagram))):
        assert type(other) is PersistenceDiagram and other == diagram and repr(other) == repr(diagram)
        assert other.degrees() == diagram.degrees()
        assert [column.dtype for column in other._columns] == [column.dtype for column in diagram._columns]
        assert not any(column.flags.writeable for column in other._columns)
    with pytest.raises(AttributeError, match="^PersistenceDiagram is immutable$"):
        diagram._columns = ()
    assert diagram != object() and not diagram == object()


_EDGE_DEGREES = (-(2**63) - 1, -(2**63), -1, 0, 1, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1)
_SPANS = ((0.0, 0.5), (-1.0, 2.0), (1.0, 1.0))


@st.composite
def _edge_rows(draw):
    """Rows (degree, (p, q), multiplicity) with degrees at the edges of int64:
    an int64 degree column when every degree fits, an object column otherwise."""
    degrees = _EDGE_DEGREES if draw(st.booleans()) else _EDGE_DEGREES[1:-2]
    points = st.sampled_from([(-math.inf, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, math.inf), (-math.inf, math.inf)])
    return draw(st.lists(st.tuples(st.sampled_from(degrees), points, st.sampled_from([1, 2, 2**63])), max_size=12))


@settings(max_examples=200, deadline=None)
@given(_edge_rows())
@example([(2**63 - 2, (0.0, 1.0), 1), (2**63 - 1, (0.0, 2.0), 1)])  # numpy compares 2**63 - 1 and 2**63 as one float
@example([(-1, (0.0, 1.0), 1), (0, (0.0, 1.0), 1), (0, (0.0, math.inf), 1), (2**63, (0.0, 1.0), 1)])
def test_degree_lookups_match_a_whole_column_mask_at_the_int64_edges(rows):
    table = {}
    for d, point, mult in rows:
        table.setdefault(d, {})[point] = table.get(d, {}).get(point, 0) + mult
    diagram = PersistenceDiagram(table)
    barcode = Barcode((d, Interval(p, q, math.isfinite(p), False)) for d, (p, q), _ in rows)
    oracle = BarcodeOracle(barcode)
    for value in (diagram, barcode):
        assert value.degrees() == tuple(sorted(table))
        assert not any(column.flags.writeable for column in value._columns)
    for d in _EDGE_DEGREES:
        arrays, expected = diagram.arrays(d), in_degree_reference(diagram, d)
        assert [part.tolist() for part in arrays] == [part.tolist() for part in expected]
        assert [part.dtype for part in arrays] == [part.dtype for part in expected]
        assert not any(part.flags.writeable for part in (*arrays, *barcode._in_degree(d)))
        p, q, mult = (part.tolist() for part in expected)
        points = list(map(DiagramPoint, p, q))
        assert list(diagram.items(d)) == list(zip(points, mult))
        assert diagram.count(d) == sum(mult)
        assert [diagram.multiplicity(d, point) for point in points] == mult
        assert diagram.multiplicity(d, (0.25, 0.75)) == 0
        assert cap_number(diagram, d, 0.5) == cap_number_oracle(diagram, d, 0.5)
        intervals = tuple(Interval(*bar) for bar in zip(*(part.tolist() for part in in_degree_reference(barcode, d))))
        assert barcode.in_degree(d) == intervals
        assert [barcode_rank(barcode, d, s, t) for s, t in _SPANS] == [oracle.rank(d, s, t) for s, t in _SPANS]
        assert constancy_witness(barcode, d) == ConstancyWitness(*oracle.witness(d))
