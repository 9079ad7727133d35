"""Interval/barcode algebra: ranks, radical, constancy thresholds."""

import copy
import math
import pickle
import random
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pershom import (
    Barcode,
    ConstancyWitness,
    ExtendedReal,
    Interval,
    NEG_INF,
    POS_INF,
    barcode_rank,
    constancy_witness,
    diagram_of,
    interval_module_rank,
    radical,
)
from pershom.barcode import real_array
from pershom.io import format_barcode

from helpers import BarcodeOracle, bar_key, diagram_oracle, grid_module_rank


# ---------------------------------------------------------------- extended reals

def test_extended_real_total_order():
    assert NEG_INF < ExtendedReal(-1e308) < ExtendedReal(0.0) < ExtendedReal(1e308) < POS_INF
    assert not NEG_INF < NEG_INF
    assert ExtendedReal(2.0) == ExtendedReal(2.0)
    assert hash(ExtendedReal(2.0)) == hash(ExtendedReal(2.0))
    # The infinite endpoints are the IEEE ones, so plain floats compare too.
    assert NEG_INF == -math.inf and POS_INF == math.inf
    assert -math.inf < ExtendedReal(0.0) < 1.0 < POS_INF


def test_extended_real_rejects_nan_and_parses_tokens():
    with pytest.raises(ValueError):
        ExtendedReal(math.nan)
    with pytest.raises(ValueError):
        ExtendedReal("nan")
    assert ExtendedReal("inf") == POS_INF
    assert ExtendedReal("-inf") == NEG_INF
    assert ExtendedReal("2.5") == ExtendedReal(2.5)
    assert ExtendedReal(math.inf) == POS_INF
    assert str(POS_INF) == "inf" and str(NEG_INF) == "-inf"
    assert str(ExtendedReal(0.1)) == repr(0.1)  # bit-exact round trip


def test_extended_real_is_a_float_with_its_compatibility_properties():
    x = ExtendedReal(2.5)
    assert isinstance(x, float) and x == 2.5
    assert (x.is_finite, x.value, x.float_value) == (True, 2.5, 2.5)
    assert (POS_INF.is_finite, POS_INF.float_value) == (False, math.inf)
    with pytest.raises(ValueError, match="no finite value"):
        NEG_INF.value
    with pytest.raises(AttributeError):
        x.tag = 1  # no instance dict


def test_interval_rejects_nan_endpoints_and_queries():
    with pytest.raises(ValueError, match="NaN"):
        Interval(math.nan, 1.0, False, False)
    with pytest.raises(ValueError, match="NaN"):
        Interval.closed_open(0.0, 1.0).contains(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        interval_module_rank(Interval.closed_open(0.0, 1.0), math.nan, 0.5)


# ------------------------------------------------------------------- intervals

def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(ExtendedReal(1.0), ExtendedReal(0.0), True, True)
    with pytest.raises(ValueError):  # closed endpoint must be finite
        Interval(NEG_INF, ExtendedReal(0.0), True, False)
    with pytest.raises(ValueError):  # equal endpoints must be a singleton
        Interval(ExtendedReal(1.0), ExtendedReal(1.0), True, False)
    assert Interval.singleton(3.0).is_singleton


@pytest.mark.parametrize("args, message", [
    ((1.0, 0.0, True, False), "interval endpoints out of order: [1.0,0.0)"),
    ((1, 0.5, False, True), "interval endpoints out of order: (1.0,0.5]"),
    ((math.inf, -math.inf, False, False), "interval endpoints out of order: (inf,-inf)"),
    ((-math.inf, 1.0, True, False), "closed left endpoint must be finite"),
    ((0.0, math.inf, False, True), "closed right endpoint must be finite"),
    ((0.5, 0.5, True, False), "an interval with equal endpoints must be a singleton [a,a]"),
    ((-0.0, 0.0, False, False), "an interval with equal endpoints must be a singleton [a,a]"),
    ((math.nan, 1.0, False, False), "lo must not be NaN, got nan"),
    ((0.0, math.nan, False, False), "hi must not be NaN, got nan"),
])
def test_interval_invariants_keep_their_messages(args, message):
    with pytest.raises(ValueError) as err:
        Interval(*args)
    assert str(err.value) == message


def test_interval_is_a_checked_tuple_of_its_fields():
    iv = Interval(0, math.inf, True, False)
    assert all(type(x) is ExtendedReal for x in (iv.lo, iv.hi))
    assert iv == (0.0, math.inf, True, False) and hash(iv) == hash((0.0, math.inf, True, False))
    assert repr(iv) == "Interval(lo=0.0, hi=inf, lo_closed=True, hi_closed=False)"
    assert str(iv) == "[0.0,inf)"
    with pytest.raises(AttributeError):
        iv.lo = ExtendedReal(1.0)
    assert type(iv._replace(hi=2).hi) is ExtendedReal
    with pytest.raises(ValueError, match="out of order"):
        iv._replace(lo=5.0, hi=1.0)
    with pytest.raises(AttributeError):
        iv.tag = 1  # no instance dict


def test_interval_module_rank_examples():
    half_open = Interval.closed_open(0.0, 1.0)
    assert interval_module_rank(half_open, 0.0, 0.5) == 1
    assert interval_module_rank(half_open, 0.5, 1.0) == 0  # right endpoint open
    full_line = Interval(NEG_INF, POS_INF, False, False)
    assert interval_module_rank(full_line, -10.0, 10.0) == 1
    with pytest.raises(ValueError):
        interval_module_rank(half_open, 1.0, 0.0)
    for s, t, name in ((math.nan, 0.5, "s"), (0.0, math.nan, "t")):
        with pytest.raises(ValueError, match=f"^{name} must not be NaN"):
            interval_module_rank(half_open, s, t)


# -------------------------------------------------------------------- barcodes

def test_barcode_degrees_must_be_integers():
    iv = Interval.closed_open(0, 1)
    for bad in (1.7, "2", 2.0, True, np.True_):  # a bool is not read as 0 or 1
        with pytest.raises(ValueError, match=f"degree must be an integer, got {re.escape(repr(bad))}"):
            Barcode([(bad, iv)])
    assert Barcode([(np.int64(2), iv), (np.int32(1), iv)]).bars == ((1, iv), (2, iv))


def test_barcode_is_a_multiset():
    a = Barcode([(0, Interval.closed_open(0, 1)), (0, Interval.closed_open(0, 1))])
    b = Barcode([(0, Interval.closed_open(0, 1))])
    assert a != b
    assert len(a) == 2
    # insertion order is irrelevant
    c = Barcode([(1, Interval.closed_open(0, 2)), (0, Interval.closed_open(0, 1))])
    d = Barcode([(0, Interval.closed_open(0, 1)), (1, Interval.closed_open(0, 2))])
    assert c == d


def test_barcode_rank_examples():
    b = Barcode([(0, Interval.closed_open(0, 2)), (0, Interval.closed_open(1, 3))])
    # frozen from the grid-presentation oracle in helpers.grid_module_rank
    assert grid_module_rank([iv for _, iv in b], 0.5, 1.5) == 1
    assert barcode_rank(b, 0, 0.5, 1.5) == 1

    assert barcode_rank(Barcode(), 7, -1.0, 1.0) == 0

    essential = Barcode([(1, Interval.closed_open(0, math.inf))])
    assert grid_module_rank(essential.in_degree(1), 5.0, 100.0) == 1
    assert barcode_rank(essential, 1, 5.0, 100.0) == 1

    with pytest.raises(ValueError):
        barcode_rank(b, 0, 2.0, 1.0)


def test_barcode_rank_accepts_infinite_values_and_names_nan():
    b = Barcode([(0, Interval.closed_open(0, math.inf)), (0, Interval.open_open(-math.inf, 1))])
    # no bar lives at -inf or +inf, so every map from or to them is zero
    assert barcode_rank(b, 0, -math.inf, 0.5) == 0
    assert barcode_rank(b, 0, 0.5, math.inf) == 0
    assert barcode_rank(b, 0, -math.inf, math.inf) == 0
    assert barcode_rank(b, 0, 0.5, 0.5) == 2
    with pytest.raises(ValueError, match="requires s <= t"):
        barcode_rank(b, 0, math.inf, 0.5)
    with pytest.raises(ValueError, match="t must not be NaN"):
        barcode_rank(b, 0, 0.0, math.nan)


def test_barcode_rank_matches_grid_oracle_on_random_barcodes():
    rng = random.Random(2024)
    for _ in range(200):
        bars = []
        for _ in range(rng.randint(0, 10)):
            lo = rng.uniform(-5, 5)
            hi = lo + rng.uniform(0.01, 5)
            bars.append(Interval(ExtendedReal(lo), ExtendedReal(hi), rng.random() < 0.5, rng.random() < 0.5))
        b = Barcode([(0, iv) for iv in bars])
        s = rng.uniform(-6, 6)
        t = s + rng.uniform(0, 6)
        assert barcode_rank(b, 0, s, t) == grid_module_rank(bars, s, t)


# -------------------------------------------------------------------- radical

def test_radical_examples():
    product3 = Barcode([(0, Interval.closed_open(0, 1 / n)) for n in (1, 2, 3)])
    assert radical(product3) == Barcode([(0, Interval.open_open(0, 1 / n)) for n in (1, 2, 3)])

    already_open = Barcode([(0, Interval.open_open(0, 1))])
    assert radical(already_open) == already_open

    assert radical(Barcode([(2, Interval.singleton(3.0))])) == Barcode()


def test_intervals_wrap_each_endpoint_once(monkeypatch):
    from pershom.io import parse_barcode

    made = []
    real = ExtendedReal.__new__
    monkeypatch.setattr(ExtendedReal, "__new__", lambda cls, value: made.append(value) or real(cls, value))
    barcode = parse_barcode("0 [0,1)\n0 [0,1)\n1 [2.5,inf)\n2 (-inf,3]\n3 [4,4]\n")
    assert made == ["0", "1", "0", "1", "2.5", "inf", "-inf", "3", "4", "4"]  # two a line, none again
    made.clear()
    opened = radical(barcode)
    assert made == []  # the endpoints are reused as they are
    assert [str(iv) for _, iv in opened] == ["(0.0,1.0)", "(0.0,1.0)", "(2.5,inf)", "(-inf,3.0]"]
    assert all(type(x) is ExtendedReal for _, iv in opened for x in (iv.lo, iv.hi))
    assert made == []


@pytest.mark.parametrize("flag", ["yes", None, 1, 0, 1.0, "False"])
def test_interval_flags_must_be_bools(flag):
    with pytest.raises(ValueError) as err:
        Interval(0, 1, flag, False)
    assert str(err.value) == f"lo_closed must be a bool, got {flag!r}"
    with pytest.raises(ValueError) as err:
        Interval(0, 1, True, flag)
    assert str(err.value) == f"hi_closed must be a bool, got {flag!r}"
    assert str(Interval(0, 1, np.True_, np.False_)) == "[0.0,1.0)"


@pytest.mark.parametrize("text", ["0.5", b"0.5", bytearray(b"0.5")])
def test_interval_endpoints_must_not_be_text(text):
    # `float` would parse each
    with pytest.raises(ValueError, match=r"^lo must be a real number, got " + re.escape(repr(text))):
        Interval.closed_open(text, 1)
    with pytest.raises(ValueError, match=r"^hi must be a real number, got " + re.escape(repr(text))):
        Interval(0, text, False, False)


def _interval_strategy():
    endpoint = st.one_of(
        st.just(None),  # placeholder for infinities below
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )

    def build(lo, hi, lo_closed, hi_closed):
        lo_e = NEG_INF if lo is None else ExtendedReal(lo)
        hi_e = POS_INF if hi is None else ExtendedReal(hi)
        if lo_e > hi_e:
            lo_e, hi_e = hi_e, lo_e
        if lo_e == hi_e:
            if lo_e.is_finite:
                return Interval(lo_e, hi_e, True, True)
            return Interval(NEG_INF, POS_INF, False, False)
        return Interval(lo_e, hi_e, lo_closed and lo_e.is_finite, hi_closed and hi_e.is_finite)

    return st.builds(build, endpoint, endpoint, st.booleans(), st.booleans())


def _barcode_strategy():
    bar = st.tuples(st.integers(min_value=0, max_value=3), _interval_strategy())
    return st.builds(Barcode, st.lists(bar, max_size=12))


@given(_barcode_strategy())
def test_radical_is_idempotent(b):
    assert radical(radical(b)) == radical(b)


@given(_barcode_strategy(), st.data())
def test_radical_preserves_ranks_at_generic_pairs(b, data):
    # The rank can legitimately drop when s sits exactly on an attained left
    # endpoint (the bar opens there), so probe strictly between endpoints.
    s = data.draw(st.floats(min_value=-99.5, max_value=99.0).map(lambda x: x + 0.25e-3))
    t = data.draw(st.floats(min_value=0.001, max_value=5.0).map(lambda gap: s + gap))
    endpoints = {iv.lo for _, iv in b if iv.lo.is_finite}
    if any(e == ExtendedReal(s) for e in endpoints):
        return
    for d in b.degrees():
        assert barcode_rank(radical(b), d, s, t) == barcode_rank(b, d, s, t)


@given(_barcode_strategy(), st.integers(0, 3), st.data())
def test_barcode_rank_monotonicity(b, d, data):
    s = data.draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
    t = data.draw(st.floats(min_value=0, max_value=50).map(lambda g: s + g))
    wider_t = data.draw(st.floats(min_value=0, max_value=50).map(lambda g: t + g))
    lower_s = data.draw(st.floats(min_value=0, max_value=50).map(lambda g: s - g))
    base = barcode_rank(b, d, s, t)
    assert barcode_rank(b, d, s, wider_t) <= base
    assert barcode_rank(b, d, lower_s, t) <= base


# ---------------------------------------------------------- constancy witness

def test_constancy_witness_examples():
    b = Barcode([(0, Interval.closed_open(0, math.inf)), (0, Interval.closed_open(1, 2))])
    assert constancy_witness(b, 0) == ConstancyWitness(-1.0, 3.0)

    assert constancy_witness(Barcode(), 0) == ConstancyWitness(0.0, 0.0)

    full_line = Barcode([(0, Interval(NEG_INF, POS_INF, False, False))])
    assert constancy_witness(full_line, 0) == ConstancyWitness(0.0, 0.0)


def test_constancy_witness_rejects_nan_thresholds_by_name():
    for t0, t1, name in ((math.nan, 1.0, "t0"), (0.0, math.nan, "t1")):
        with pytest.raises(ValueError, match=f"^{name} must not be NaN"):
            ConstancyWitness(t0, t1)
    assert ConstancyWitness(-math.inf, math.inf).t1 == math.inf


def test_constancy_witness_brackets_all_activity():
    b = Barcode(
        [
            (0, Interval.closed_open(0, math.inf)),
            (0, Interval.closed_open(1, 2)),
            (0, Interval.open_open(-3, 5)),
        ]
    )
    w = constancy_witness(b, 0)
    # below t0 and above t1 the alive-set is frozen
    assert barcode_rank(b, 0, w.t0 - 5, w.t0) == barcode_rank(b, 0, w.t0 - 1e-9, w.t0)
    assert barcode_rank(b, 0, w.t1, w.t1 + 5) == barcode_rank(b, 0, w.t1, w.t1 + 1e-9)


_ENDPOINTS = (-math.inf, -0.0, 0.0, 0.5, 1.0, math.inf)


def _valid_intervals():
    out = []
    for lo, hi, lo_closed, hi_closed in product(_ENDPOINTS, _ENDPOINTS, (False, True), (False, True)):
        try:
            out.append(Interval(lo, hi, lo_closed, hi_closed))
        except ValueError:
            pass
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 2), st.sampled_from(_valid_intervals()), st.integers(1, 3)), max_size=30),
       st.booleans())
def test_barcode_order_is_a_stable_sort_by_the_bar_key(draws, fresh):
    shared = [bar for d, iv, repeats in draws for bar in [(d, iv)] * repeats]  # runs of one bar object
    bars = [(d, Interval(*iv)) for d, iv in shared] if fresh else shared  # or each repeat its own Interval
    assert repr(Barcode(bars).bars) == repr(tuple(sorted(bars, key=bar_key))) == repr(Barcode(shared).bars)


def test_barcode_keeps_each_given_bar_and_counts_repeats():
    shared = Interval.closed_open(0.0, 1.0)
    bars = [(1, shared)] * 4 + [(0, Interval.closed_open(-0.0, 1.0)), (0, Interval.closed_open(0.0, 1.0))]
    barcode = Barcode(bars + [(np.int64(1), shared)] * 2)
    assert len(barcode) == 8
    assert barcode == Barcode(reversed(bars + [(1, shared)] * 2))
    assert "".join(f"{d} {iv}\n" for d, iv in barcode) == "0 [-0.0,1.0)\n0 [0.0,1.0)\n" + "1 [0.0,1.0)\n" * 6
    assert all(type(d) is int for d, _ in barcode)


def test_barcode_bars_are_int_degree_tuples_however_given():
    iv = Interval.closed_open(0.0, 1.0)
    given_bar = (1, iv)
    for other in [given_bar, (np.int32(1), iv), (np.int64(1), iv), [1, iv]]:
        (bar,) = Barcode([other]).bars
        assert type(bar) is tuple and type(bar[0]) is int and bar == given_bar


_QUERIES = (-math.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0, math.inf)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-1, 0, 1, 2**70]), st.sampled_from(_valid_intervals()), st.integers(1, 3)),
                max_size=30),
       st.data())
def test_barcode_arrays_agree_with_the_per_bar_oracle(draws, data):
    # signed zeros, infinities, singletons, repeats and a degree beyond int64
    bars = [(d, iv) for d, iv, repeats in draws for _ in range(repeats)]
    barcode, oracle = Barcode(bars), BarcodeOracle(bars)
    assert repr(barcode.bars) == repr(oracle.bars) == repr(tuple(sorted(bars, key=bar_key)))
    assert repr(barcode) == repr(oracle) and format_barcode(barcode) == oracle.text()
    assert hash(barcode) == hash(oracle)
    other = data.draw(st.permutations(bars))
    if data.draw(st.booleans()):  # flip the sign of a zero endpoint, or make a bar a singleton
        at = data.draw(st.integers(0, max(len(other) - 1, 0)))
        other[at:at + 1] = [(d, Interval(-iv.lo if iv.lo == 0 else iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
                             if iv.lo != iv.hi else Interval.singleton(0.5)) for d, iv in other[at:at + 1]]
    assert (Barcode(other) == barcode) == (BarcodeOracle(other) == oracle)
    for d in (-1, 0, 1, 2, 2**70):
        assert barcode.in_degree(d) == tuple(iv for degree, iv in oracle.bars if degree == d)
        w = constancy_witness(barcode, d)
        assert (w.t0, w.t1) == oracle.witness(d)
        s, t = sorted(data.draw(st.lists(st.sampled_from(_QUERIES), min_size=2, max_size=2)))
        assert barcode_rank(barcode, d, s, t) == oracle.rank(d, s, t)
    for _, iv in oracle.bars:
        assert [iv.contains(q) for q in _QUERIES] == [oracle.contains(iv, q) for q in _QUERIES]
    assert repr(radical(barcode).bars) == repr(oracle.radical().bars)
    assert repr(diagram_of(barcode)) == repr(diagram_oracle(oracle.bars))
    assert diagram_of(barcode) == diagram_oracle(oracle.bars)


@pytest.mark.parametrize("barcode", [
    Barcode(),
    Barcode([(0, Interval.closed_open(0, 1)), (2**70, Interval.open_open(-0.0, math.inf)), (1, Interval.singleton(2))]),
])
def test_barcodes_copy_and_pickle_through_their_columns(barcode):
    for other in (copy.copy(barcode), copy.deepcopy(barcode), pickle.loads(pickle.dumps(barcode))):
        assert type(other) is Barcode and other == barcode and repr(other) == repr(barcode)
        assert all(mine.dtype == theirs.dtype for mine, theirs in zip(other._columns, barcode._columns))


def test_real_array_reads_entries_one_by_one_only_where_numpy_could_hide_one(monkeypatch):
    made = []
    real = np.asarray
    monkeypatch.setattr(np, "asarray", lambda a, *args, **kw: made.append((args, kw)) or real(a, *args, **kw))
    # an integer or float ndarray holds numbers only, so no object array is made for it
    for array in (np.eye(3), np.eye(3, dtype=np.int64), np.eye(3, dtype=np.uint8), np.eye(3, dtype=np.float32)):
        assert real_array(array, "m").tolist() == np.eye(3).tolist()
    assert all(object not in args and kwargs.get("dtype") is not object for args, kwargs in made)
    assert real_array(np.array([0, True]), "m").tolist() == [0.0, 1.0]  # made an int64 array before it came
    # any other input is read as given: numpy would read [0, True] as an int64 array
    for bad, message in (([[0, True], [True, 0]], "m has True at (0, 1)"),
                         (np.array([[0, None]], object), "m has None at (0, 1)"),
                         (np.array([[False, True]]), "m has False at (0, 0)"),
                         (np.array([["0", "1"]]), "m has '0' at (0, 0)"),
                         ((0.5, b"1"), "m has b'1' at (1,)")):
        with pytest.raises(ValueError, match="^" + re.escape(message) + ", not a number$"):
            real_array(bad, "m")
    assert real_array([[0, 1.5], (2, np.float32(3))], "m").tolist() == [[0.0, 1.5], [2.0, 3.0]]
