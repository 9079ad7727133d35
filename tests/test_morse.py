"""Cap numbers, essential dimensions, and the Morse-inequality report."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pershom.morse
from pershom import (
    MorseCheckFailed,
    PersistenceDiagram,
    PreconditionViolated,
    TooLargeError,
    cap_finiteness_bound,
    cap_number,
    cap_number_at,
    essential_dimension,
    morse_check,
    nu,
)

from helpers import cap_finiteness_bound_oracle, random_diagram

WORKED = PersistenceDiagram({0: [(0, math.inf), (1, 2)], 1: [(3, 4)]})
TWO_FINITE = PersistenceDiagram({0: [(1, 2)], 1: [(3, 4)]})


# ----------------------------------------------------------------- cap numbers

def test_cap_number_at_examples():
    assert cap_number_at(TWO_FINITE, 1, 2.0, 0.5) == 1  # the (1,2) death
    assert cap_number_at(TWO_FINITE, 1, 3.0, 0.5) == 1  # the (3,4) birth
    assert cap_number_at(TWO_FINITE, 0, 0.0, 0.5) == 0
    with pytest.raises(ValueError):
        cap_number_at(TWO_FINITE, 0, 0.0, 0.0)


def test_cap_number_at_infinite_values_is_zero_and_nan_is_named():
    # no finite endpoint sits at an infinite value, essential points included
    assert cap_number_at(WORKED, 1, math.inf, 0.5) == 0
    assert cap_number_at(WORKED, 0, -math.inf, 0.5) == 0
    assert cap_number_at(PersistenceDiagram({0: [(-math.inf, 1)]}), 0, -math.inf, 0.5) == 0
    with pytest.raises(ValueError, match="t must not be NaN"):
        cap_number_at(WORKED, 0, math.nan, 0.5)


def test_cap_number_examples():
    assert cap_number(WORKED, 0, 0.5) == 2  # (0, inf) and (1, 2)
    assert cap_number(WORKED, 1, 0.5) == 2  # (1, 2) death + (3, 4) birth
    assert cap_number(WORKED, 1, 1.5) == 0  # both finite gaps are exactly 1
    with pytest.raises(ValueError):
        cap_number(WORKED, 0, -1.0)


def test_cap_number_strictness_on_the_gap():
    d = PersistenceDiagram({0: [(0.0, 1.0)]})
    assert cap_number(d, 0, 1.0) == 0  # gap exactly eps is excluded
    assert cap_number(d, 0, 0.999) == 1


def test_per_value_and_aggregated_caps_differ_with_essentials():
    # Essential points are invisible to every per-value sum (it only sees
    # finite companion endpoints) but the aggregated count admits them.
    d = PersistenceDiagram({0: [(0, math.inf)]})
    assert cap_number(d, 0, 0.5) == 1
    assert cap_number_at(d, 0, 0.0, 0.5) == 0
    # On a purely finite diagram the aggregated count is the sum over values.
    values = {pt.p.value for pt, _ in TWO_FINITE.items(0)} | {
        pt.q.value for pt, _ in TWO_FINITE.items(0)
    } | {pt.p.value for pt, _ in TWO_FINITE.items(1)} | {
        pt.q.value for pt, _ in TWO_FINITE.items(1)
    }
    for deg in (0, 1, 2):
        assert cap_number(TWO_FINITE, deg, 0.5) == sum(
            cap_number_at(TWO_FINITE, deg, t, 0.5) for t in values
        )


def test_essential_dimension_examples():
    assert essential_dimension(WORKED, 0) == 1
    assert essential_dimension(PersistenceDiagram({0: [(-math.inf, math.inf)]}), 0) == 1
    assert essential_dimension(PersistenceDiagram(), 0) == 0


def test_nu_examples():
    assert nu(WORKED, 0, 0.5) == 1
    assert nu(PersistenceDiagram({1: [(3, 4)]}), 1, 0.5) == 1
    assert nu(WORKED, 0, 100.0) == 0
    assert nu(WORKED, -1, 0.5) == 0


# ----------------------------------------------------------------- morse check

def test_morse_check_worked_example():
    report = morse_check(WORKED, 0.5, 2)
    assert report.rows == ((0, 2, 1, 1), (1, 2, 0, 1), (2, 1, 0, 0))
    assert report.partial_sums == (1, 1, 0)


def test_morse_check_rejects_neg_inf_births():
    bad = PersistenceDiagram({0: [(-math.inf, 1.0)]})
    with pytest.raises(PreconditionViolated) as err:
        morse_check(bad, 0.5, 2)
    assert err.value.degree == 0
    assert err.value.point.q.value == 1.0


def test_morse_check_n_max_must_be_an_integer():
    for bad in (1.9, "1"):
        with pytest.raises(ValueError, match=f"n_max must be an integer, got {bad!r}"):
            morse_check(WORKED, 0.5, bad)
    with pytest.raises(ValueError, match="^requires n_max >= 0, got -1$"):
        morse_check(WORKED, 0.5, -1)


def test_morse_check_empty_diagram():
    report = morse_check(PersistenceDiagram(), 1.0, 3)
    assert all(row[1:] == (0, 0, 0) for row in report.rows)
    assert report.partial_sums == (0, 0, 0, 0)


def test_morse_report_renders_tables():
    text = morse_check(WORKED, 0.5, 2).render()
    assert "m_eps" in text and "partial_sum" in text
    assert len(text.splitlines()) == 1 + 3 + 1 + 1 + 3


_BROKEN_NU_CLI = """
import sys
import pershom.morse
from pershom.cli import main
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
pershom.morse.nu = lambda diagram, d, eps: 0
sys.exit(main(["morse", "--dgm", sys.argv[1], "--epsilon", "0.5", "--max-degree", "1"]))
"""


def test_morse_identity_check_survives_optimize_flag(tmp_path):
    # with nu broken the identity fails at degree 0; under -O an assert
    # would vanish and the CLI would print an unchecked report
    from pershom.io import write_diagram

    dgm = tmp_path / "worked.dgm"
    write_diagram(dgm, WORKED)
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_NU_CLI, str(dgm)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert "degree 0:" in run.stderr and "nu(-1) + nu(0) = 0 + 0" in run.stderr


def test_morse_negative_partial_sum_is_reported(monkeypatch):
    # consistent with the identity, yet the degree-0 partial sum is -1
    monkeypatch.setattr(pershom.morse, "cap_number", lambda diagram, d, eps: 0)
    monkeypatch.setattr(pershom.morse, "essential_dimension", lambda diagram, d: int(d == 0))
    monkeypatch.setattr(pershom.morse, "nu", lambda diagram, d, eps: -1 if d == 0 else 1)
    with pytest.raises(MorseCheckFailed, match="partial sum -1") as err:
        morse_check(WORKED, 0.5, 1)
    assert err.value.degree == 0


def test_morse_identity_failure_names_the_degree_and_both_sides(monkeypatch):
    real_nu = pershom.morse.nu
    monkeypatch.setattr(pershom.morse, "nu", lambda diagram, d, eps: real_nu(diagram, d, eps) + 1)  # one off
    m_eps, p, nu_0 = cap_number(WORKED, 0, 0.5), essential_dimension(WORKED, 0), real_nu(WORKED, 0, 0.5) + 1
    with pytest.raises(MorseCheckFailed) as err:
        morse_check(WORKED, 0.5, 1)
    assert err.value.degree == 0
    assert str(err.value) == f"degree 0: m_eps - p = {m_eps} - {p} differs from nu(-1) + nu(0) = 0 + {nu_0}"


# ------------------------------------------------------------------ invariants

def test_telescoping_identity_random_diagrams():
    rng = random.Random(1)
    for _ in range(200):
        diagram = random_diagram(rng)
        for eps in (0.1, 0.5, 1.0, 2.7, 10.0):
            for d in range(0, 6):
                lhs = cap_number(diagram, d, eps) - essential_dimension(diagram, d)
                assert lhs == nu(diagram, d - 1, eps) + nu(diagram, d, eps)


def test_partial_sums_telescope_to_nu():
    rng = random.Random(2)
    for _ in range(50):
        diagram = random_diagram(rng)
        report = morse_check(diagram, 0.8, 6)
        for n, s in enumerate(report.partial_sums):
            assert s == nu(diagram, n, 0.8)
            assert s >= 0



def test_partial_sums_equal_the_explicit_alternating_sums():
    rng = random.Random(4)
    for n_max in (*range(8), 13, 29, 50):
        diagram = random_diagram(rng, max_degree=min(n_max + 2, 8))
        report = morse_check(diagram, 0.3, n_max)
        explicit = tuple(
            sum((-1) ** (n - d) * (m_eps - p_d) for d, m_eps, p_d, _ in report.rows[: n + 1])
            for n in range(n_max + 1)
        )
        assert report.partial_sums == explicit


def test_morse_check_is_linear_in_n_max():
    # each partial sum comes from the one before, so the most degrees allowed take a fraction of a second
    limit = pershom.morse.MORSE_DEGREE_LIMIT
    report = morse_check(TWO_FINITE, 0.05, limit)
    assert len(report.rows) == len(report.partial_sums) == limit + 1
    assert report.partial_sums[:3] == (1, 1, 0) and set(report.partial_sums[3:]) == {0}


def test_morse_check_refuses_n_max_over_its_limit_before_counting(monkeypatch):
    def refuse(*args):
        raise AssertionError("a degree was counted")

    monkeypatch.setattr(pershom.morse, "nu", refuse)
    for n_max in (pershom.morse.MORSE_DEGREE_LIMIT + 1, 10**8, 2**70):
        with pytest.raises(TooLargeError, match=f"n_max limited to {pershom.morse.MORSE_DEGREE_LIMIT}, got {n_max}$"):
            morse_check(TWO_FINITE, 0.05, n_max)

def test_cap_and_nu_monotone_in_eps():
    rng = random.Random(3)
    for _ in range(50):
        diagram = random_diagram(rng)
        d = rng.randint(0, 4)
        values = [cap_number(diagram, d, eps) for eps in (0.1, 0.5, 1.0, 3.0, 8.0)]
        assert values == sorted(values, reverse=True)
        values = [nu(diagram, d, eps) for eps in (0.1, 0.5, 1.0, 3.0, 8.0)]
        assert values == sorted(values, reverse=True)


# ------------------------------------------------------- finiteness bound

def test_cap_finiteness_bound_examples():
    d = PersistenceDiagram({0: [(0, 1)]})
    lhs, rhs = cap_finiteness_bound(d, 0, 0.5, 0.0, 1.0)
    assert lhs == 1
    assert rhs == 2  # quadrants at x = 0.25 and x = 0.5 each see the point
    assert cap_finiteness_bound(PersistenceDiagram(), 0, 0.5, 0.0, 1.0) == (0, 0)
    short = PersistenceDiagram({0: [(0, 0.1)]})
    assert cap_finiteness_bound(short, 0, 0.5, 0.0, 1.0)[0] == 0
    for edge in ((0.0, 0.5), (0.25, 0.75)):  # a lifetime of exactly eps is not counted, as by the cap numbers
        assert cap_finiteness_bound(PersistenceDiagram({0: [edge]}), 0, 0.5, 0.0, 1.0) == (0, 0)
    with pytest.raises(ValueError):
        cap_finiteness_bound(d, 0, 0.5, 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_cap_finiteness_bound_names_a_non_finite_argument(bad):
    d = PersistenceDiagram({0: [(0, 1)]})
    with pytest.raises(ValueError, match="^t0 must"):
        cap_finiteness_bound(d, 0, 0.5, bad, 1.0)
    with pytest.raises(ValueError, match="^t1 must"):
        cap_finiteness_bound(d, 0, 0.5, 0.0, bad)



def test_cap_finiteness_bound_counts_a_grid_at_its_limit_and_refuses_a_larger_one(monkeypatch):
    d = PersistenceDiagram({0: [(0, 1)]})
    monkeypatch.setattr(pershom.morse, "CAP_GRID_LIMIT", 5)
    assert cap_finiteness_bound(d, 0, 0.5, 0.0, 1.0) == (1, 2)  # corners at 0, 0.25, ..., 1.0: exactly 5
    with pytest.raises(TooLargeError, match="6 corners, over 5"):
        cap_finiteness_bound(d, 0, 0.5, 0.0, 1.25)


def test_cap_finiteness_bound_refuses_a_tiny_eps_before_counting(monkeypatch):
    def refuse(*args):
        raise AssertionError("the diagram was read")

    monkeypatch.setattr(pershom.morse, "_arrays", refuse)
    with pytest.raises(TooLargeError, match=f"over {pershom.morse.CAP_GRID_LIMIT}"):
        cap_finiteness_bound(PersistenceDiagram({0: [(0, 1)]}), 0, 1e-12, 0.0, 1.0)


@pytest.mark.parametrize("eps, t0, t1", [(0.1, -1e308, 1e308), (1e-300, 0.0, 1e10)])
def test_cap_finiteness_bound_refuses_a_grid_whose_size_overflows_a_float(eps, t0, t1):
    # 2 * (t1 - t0) / eps is inf here, which has no integer ceiling
    with pytest.raises(TooLargeError, match=f"over {pershom.morse.CAP_GRID_LIMIT}"):
        cap_finiteness_bound(PersistenceDiagram({0: [(0, 1)]}), 0, eps, t0, t1)


@st.composite
def _bands(draw):
    """A diagram, with points on the quadrant corners and infinite ones, and
    a grid; at t0 = 2**52 + 1 each corner step of 0.25 or less is below the
    spacing of floats, so corners repeat."""
    t0 = draw(st.sampled_from([0.0, -1.5, 1e15, 2.0**52 + 1]))
    eps = draw(st.sampled_from([0.1, 0.3, 0.5, 1.0]))
    t1 = t0 + draw(st.integers(0, 40)) * eps / 2 + draw(st.sampled_from([0.0, eps / 7]))
    corner = st.integers(-2, 45).map(lambda i: t0 + i * eps / 2)
    end = st.one_of(corner, corner.map(lambda x: x + eps / 2), st.floats(t0 - 3, t0 + 25),
                    st.sampled_from([-math.inf, math.inf]))
    mult = st.one_of(st.integers(1, 3), st.just(2**59), st.just(2**62), st.just(2**63 + 1))  # large beside a count
    points = [(p, q) for p, q in draw(st.lists(st.tuples(end, end), max_size=8)) if p < q]
    return PersistenceDiagram({0: {pt: draw(mult) for pt in points}, 1: [(t0, t1 + 1)]}), eps, t0, t1


@settings(max_examples=300, deadline=None)
@given(_bands())
@example((PersistenceDiagram({0: [(0.25, 0.75)]}), 0.5, 0.0, 1.0))  # a lifetime of eps between two corners
def test_cap_finiteness_bound_equals_one_quadrant_count_per_corner(case):
    diagram, eps, t0, t1 = case
    for d in (0, 1, 2, -1):
        lhs, rhs = cap_finiteness_bound(diagram, d, eps, t0, t1)
        assert (lhs, rhs) == cap_finiteness_bound_oracle(diagram, d, eps, t0, t1)
        if eps in (0.5, 1.0) and t0 != 2.0**52 + 1:  # every corner an exact float
            assert lhs <= rhs


def test_cap_finiteness_bound_is_exact_over_multiplicities_beyond_int64():
    diagram = PersistenceDiagram({0: {(0.0, 1.0): 2**63 + 1, (-math.inf, math.inf): 3}})
    assert diagram.arrays(0)[2].dtype == object
    lhs, rhs = cap_finiteness_bound(diagram, 0, 0.5, 0.0, 1.0)
    assert (lhs, rhs) == (2**63 + 1, 2 * (2**63 + 1) + 5 * 3)
    assert (lhs, rhs) == cap_finiteness_bound_oracle(diagram, 0, 0.5, 0.0, 1.0)
    beside = PersistenceDiagram({0: {(0.0, 1.0): 2**62 - 1, (5.0, 6.0): 1}})  # int64, but not times a count
    assert beside.arrays(0)[2].dtype == np.int64
    assert cap_finiteness_bound(beside, 0, 0.1, 0.0, 1.0) == (2**62 - 1, 18 * (2**62 - 1))  # corners 0.05 to 0.9


def test_cap_finiteness_bound_dominates():
    rng = random.Random(6)
    for _ in range(100):
        diagram = random_diagram(rng)
        d = rng.randint(0, 4)
        eps = rng.uniform(0.05, 3.0)
        t0 = rng.uniform(-12, 5)
        t1 = t0 + rng.uniform(0, 15)
        lhs, rhs = cap_finiteness_bound(diagram, d, eps, t0, t1)
        assert lhs <= rhs
