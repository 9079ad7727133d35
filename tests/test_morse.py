"""Cap numbers, essential dimensions, and the Morse-inequality report."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pershom.morse
from pershom import (
    MorseCheckFailed,
    PersistenceDiagram,
    PreconditionViolated,
    cap_finiteness_bound,
    cap_number,
    cap_number_at,
    essential_dimension,
    morse_check,
    nu,
)

from helpers import random_diagram

WORKED = PersistenceDiagram({0: [(0, math.inf), (1, 2)], 1: [(3, 4)]})
TWO_FINITE = PersistenceDiagram({0: [(1, 2)], 1: [(3, 4)]})


# ----------------------------------------------------------------- cap numbers

def test_cap_number_at_examples():
    assert cap_number_at(TWO_FINITE, 1, 2.0, 0.5) == 1  # the (1,2) death
    assert cap_number_at(TWO_FINITE, 1, 3.0, 0.5) == 1  # the (3,4) birth
    assert cap_number_at(TWO_FINITE, 0, 0.0, 0.5) == 0
    with pytest.raises(ValueError):
        cap_number_at(TWO_FINITE, 0, 0.0, 0.0)


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
    with pytest.raises(ValueError):
        cap_finiteness_bound(d, 0, 0.5, 1.0, 0.0)


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
