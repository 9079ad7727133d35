"""Worked constructions: earring truncations, product family, Douglas energy."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pershom import (
    Barcode,
    DouglasInput,
    HawaiianSpec,
    Interval,
    TooLargeError,
    betti_at,
    cap_number,
    diagram_of,
    douglas_eval,
    hawaiian_complex,
    hawaiian_rank_sweep,
    product_family,
    radical,
    validate,
)
from pershom.gallery import HAWAIIAN_LIMIT, QUADRATURE_LIMIT, _sweep_size
from pershom.io import format_barcode

from helpers import assert_built_as_by_pairs


def circle_samples(n):
    t = np.arange(n) * (2 * math.pi / n)
    return np.column_stack([np.cos(t), np.sin(t)])


# ------------------------------------------------------------------- hawaiian

def test_hawaiian_complex_examples():
    k2 = hawaiian_complex(HawaiianSpec(1, 2))
    validate(k2)
    assert betti_at(k2, 1.0, 1) == 1

    k1 = hawaiian_complex(HawaiianSpec(1, 1))
    assert betti_at(k1, 1.0, 1) == 0

    k5 = hawaiian_complex(HawaiianSpec(1, 5))
    assert betti_at(k5, 1.0, 1) == 4


def test_hawaiian_two_step_filtration():
    k = hawaiian_complex(HawaiianSpec(1, 3))
    assert k.values() == (0.0, 1.0)
    assert betti_at(k, 0.0, 0) == 1  # just the base vertex
    assert betti_at(k, 1.0, 0) == 1  # the wedge is connected


def test_hawaiian_spec_validation():
    with pytest.raises(ValueError):
        HawaiianSpec(0, 2)
    with pytest.raises(ValueError):
        HawaiianSpec(1, 0)


def test_hawaiian_sizes_are_integers():
    for bad in (2.5, "2", np.float64(2.0)):
        with pytest.raises(ValueError, match="truncation index k must be an integer"):
            HawaiianSpec(1, bad)
        with pytest.raises(ValueError, match="sphere dimension d must be an integer"):
            HawaiianSpec(bad, 1)
        with pytest.raises(ValueError, match="k_max must be an integer"):
            hawaiian_rank_sweep(1, bad)
    spec = HawaiianSpec(np.int64(2), np.int64(3))
    assert spec == HawaiianSpec(2, 3) and type(spec.d) is type(spec.k) is int


def _hawaiian_size(d, k):
    return 1 + (k - 1) * (2 ** (d + 2) - 3) + 2 ** (d + 2) - 2


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6))
def test_hawaiian_complex_equals_the_pair_built_complex(d, k):
    complex_ = hawaiian_complex(HawaiianSpec(d, k))
    assert_built_as_by_pairs(complex_)
    assert len(complex_) == _hawaiian_size(d, k)
    assert [v for s, v in complex_.simplices if s == (0,)] == [0.0]
    assert sorted(v for s, v in complex_.simplices if s != (0,)) == [1.0] * (len(complex_) - 1)


def test_hawaiian_spec_refuses_too_many_simplices_before_enumerating():
    assert [len(hawaiian_complex(HawaiianSpec(d, k))) for d, k in ((1, 5), (2, 3), (3, 1))] == [27, 41, 31]
    assert _hawaiian_size(1, 199_999) <= HAWAIIAN_LIMIT < _hawaiian_size(1, 200_000)
    HawaiianSpec(1, 199_999)  # accepted, not built
    HawaiianSpec(17, 1)
    for d, k in ((1, 200_000), (18, 1), (30, 1)):
        with pytest.raises(TooLargeError, match=f"has {_hawaiian_size(d, k)} simplices, over {HAWAIIAN_LIMIT}"):
            HawaiianSpec(d, k)
    with pytest.raises(TooLargeError):  # before the sweep builds its first complex
        hawaiian_rank_sweep(1, 200_000)


def test_sweep_size_counts_the_simplices_of_every_truncation():
    for d, k_max in ((1, 1), (1, 7), (2, 4), (3, 3)):
        assert _sweep_size(d, k_max) == sum(len(hawaiian_complex(HawaiianSpec(d, k))) for k in range(1, k_max + 1))
    assert _sweep_size(1, 631) == 998_242 <= HAWAIIAN_LIMIT < 1_001_404 == _sweep_size(1, 632)


class _Built(Exception):
    pass


def test_hawaiian_rank_sweep_refuses_too_much_total_work_before_building(monkeypatch):
    import pershom.gallery

    def built(spec):
        raise _Built(spec)

    monkeypatch.setattr(pershom.gallery, "hawaiian_complex", built)
    with pytest.raises(_Built):  # past the check, at the first complex
        hawaiian_rank_sweep(1, 631)
    with pytest.raises(TooLargeError, match=f"builds 1001404 simplices, over {HAWAIIAN_LIMIT}"):
        hawaiian_rank_sweep(1, 632)
    HawaiianSpec(10, 25)  # each truncation is accepted, all of them are not
    with pytest.raises(TooLargeError, match=f"builds {_sweep_size(10, 25)} simplices"):
        hawaiian_rank_sweep(10, 25)


def test_hawaiian_higher_dimensional_spheres():
    k = hawaiian_complex(HawaiianSpec(2, 3))
    validate(k)
    assert betti_at(k, 1.0, 2) == 2


def test_hawaiian_rank_sweep_examples():
    assert hawaiian_rank_sweep(1, 4) == ((1, 0), (2, 1), (3, 2), (4, 3))
    assert hawaiian_rank_sweep(1, 1) == ((1, 0),)
    ranks = [r for _, r in hawaiian_rank_sweep(1, 8)]
    assert all(b > a for a, b in zip(ranks[1:], ranks[2:]))  # strictly increasing past k=2


# -------------------------------------------------------------- product family

def test_product_family_examples():
    assert product_family(3) == Barcode(
        [(0, Interval.closed_open(0, 1)), (0, Interval.closed_open(0, 0.5)),
         (0, Interval.closed_open(0, 1 / 3))]
    )
    assert product_family(1) == Barcode([(0, Interval.closed_open(0, 1))])
    with pytest.raises(ValueError):
        product_family(0)
    with pytest.raises(ValueError, match="n must be an integer"):
        product_family(2.5)
    assert product_family(np.int64(3)) == product_family(3)


def test_product_family_equals_its_per_bar_build():
    bars = [(0, Interval.closed_open(0.0, 1.0 / i)) for i in range(1, 1001)]
    for n in range(1, 1001):
        assert product_family(n) == Barcode(bars[:n])
    built, by_bars = product_family(1000), Barcode(bars)
    assert [column.dtype for column in built._columns] == [column.dtype for column in by_bars._columns]
    assert format_barcode(built) == format_barcode(by_bars)


def test_product_family_refuses_more_bars_than_its_limit():
    assert len(product_family(HAWAIIAN_LIMIT)) == HAWAIIAN_LIMIT
    for n in (HAWAIIAN_LIMIT + 1, 10**18):  # before any array is made
        with pytest.raises(TooLargeError, match=f"has {n} bars, over {HAWAIIAN_LIMIT}"):
            product_family(n)


def test_product_family_cap_count():
    # bars longer than 1/4 are exactly n = 1, 2, 3, for any truncation >= 3
    for n in (3, 5, 9):
        d = diagram_of(product_family(n))
        assert cap_number(d, 0, 0.25) == 3


def test_product_family_diagram_and_radical():
    for n in (1, 4, 7):
        diagram = diagram_of(product_family(n))
        assert diagram.degrees() == (0,)
        assert diagram.count(0) == n
        expected = {(0.0, 1.0 / i) for i in range(1, n + 1)}
        assert {(pt.p.value, pt.q.value) for pt, _ in diagram.items(0)} == expected
        assert radical(product_family(n)) == Barcode(
            [(0, Interval.open_open(0, 1 / i)) for i in range(1, n + 1)]
        )


# ------------------------------------------------------------ douglas energy

def test_douglas_constant_curve_is_zero():
    curve = np.zeros((32, 2))
    assert douglas_eval(DouglasInput.identity(curve, 64)) == 0.0


def test_douglas_unit_circle_identity():
    value = douglas_eval(DouglasInput.identity(circle_samples(512), 512))
    assert value == pytest.approx(math.pi**2, rel=1e-3)


def test_douglas_convergence_order():
    errors = []
    for n in (32, 64, 128, 256):
        value = douglas_eval(DouglasInput.identity(circle_samples(n), n))
        errors.append(abs(value - math.pi**2))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o >= 1.0 for o in orders)


def test_douglas_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = 16
        curve = rng.normal(size=(n, 3))
        assert douglas_eval(DouglasInput.identity(curve, 32)) >= 0.0


def test_douglas_input_validation():
    curve = circle_samples(16)
    with pytest.raises(ValueError):  # mismatched grids
        DouglasInput(curve, np.zeros(8), 64)
    with pytest.raises(ValueError):  # non-monotone phi
        t = np.arange(16) * (2 * math.pi / 16)
        phi = t.copy()
        phi[5] = phi[3] - 1.0
        DouglasInput(curve, phi, 64)
    with pytest.raises(ValueError):  # quadrature too coarse
        DouglasInput.identity(curve, 4)
    with pytest.raises(ValueError, match="quadrature_n must be an integer, got 8.5"):
        DouglasInput.identity(curve, 8.5)
    with pytest.raises(ValueError, match="^need at least one curve sample$"):  # not a division by zero
        DouglasInput.identity([], 8)
    with pytest.raises(ValueError, match=r"^curve samples must be a \(K, n\) array, got shape \(\)$"):
        DouglasInput.identity(1.0, 8)
    assert type(DouglasInput.identity(curve, np.int64(8)).quadrature_n) is int


@pytest.mark.parametrize("text", ["1", b"1", bytearray(b"1")])
def test_douglas_input_refuses_text_samples(text):
    # numpy would parse text, so that a curve written as strings gave a value
    words = [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]
    with pytest.raises(ValueError, match=r"^curve_samples has '1' at \(0, 0\), not a number$"):
        DouglasInput(words, ["0", "1.5", "3", "4.5"], 8)
    curve = circle_samples(4).tolist()
    curve[2][1] = text
    with pytest.raises(ValueError, match=rf"^curve_samples has {re.escape(repr(text))} at \(2, 1\)"):
        DouglasInput.identity(curve, 8)
    phi = [0.0, 1.5, text, 4.5]
    with pytest.raises(ValueError, match=rf"^phi has {re.escape(repr(text))} at \(2,\), not a number$"):
        DouglasInput(circle_samples(4), phi, 8)


def test_douglas_input_refuses_a_grid_over_the_limit():
    curve = circle_samples(16)
    assert DouglasInput.identity(curve, QUADRATURE_LIMIT).quadrature_n == 4096  # accepted, not evaluated
    with pytest.raises(TooLargeError) as err:
        DouglasInput.identity(curve, QUADRATURE_LIMIT + 1)
    assert str(err.value) == "quadrature_n 4097 is over 4096"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_douglas_input_rejects_non_finite_samples_naming_the_array(bad):
    curve = circle_samples(16)
    curve[3, 0] = bad
    with pytest.raises(ValueError, match="curve samples must be finite"):
        DouglasInput.identity(curve, 64)
    phi = np.arange(16) * (2 * math.pi / 16)
    phi[7] = bad
    with pytest.raises(ValueError, match="phi samples must be finite"):
        DouglasInput(circle_samples(16), phi, 64)


def test_douglas_reparametrization_still_finite_and_nonnegative():
    t = np.arange(128) * (2 * math.pi / 128)
    phi = t + 0.3 * np.sin(t)  # monotone degree-1 circle map
    value = douglas_eval(DouglasInput(circle_samples(128), phi, 256))
    assert value >= 0.0
    assert math.isfinite(value)
