"""Diagram construction, multiplicity bookkeeping, and quadrant counts."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pershom import (
    Barcode,
    DiagramPoint,
    ExtendedReal,
    Interval,
    NEG_INF,
    POS_INF,
    PersistenceDiagram,
    PreconditionViolated,
    cap_number,
    cap_number_at,
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
    cap_number_at_oracle,
    cap_number_oracle,
    diagram_oracle,
    essential_dimension_oracle,
    grid_lower_star,
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
    ((0.0, 1.0), 0, "multiplicity must be >= 1, got 0"),
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
