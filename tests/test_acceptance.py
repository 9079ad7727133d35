"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings alongside the pytest verdicts.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pershom import (
    Barcode,
    DouglasInput,
    Interval,
    GF2,
    GF3,
    PersistenceDiagram,
    betti_at,
    bottleneck,
    bottleneck_bruteforce,
    cap_number,
    compute_persistence,
    diagram_of,
    douglas_eval,
    dowker_check,
    essential_dimension,
    euler_profile,
    hawaiian_rank_sweep,
    morse_check,
    nu,
    product_family,
    radical,
)
from pershom.covers import Cover, nerve, vietoris

from helpers import (
    alive_bars,
    betti_numbers_oracle,
    betti_oracle_at,
    perturb_filtration,
    random_cover_sets,
    random_diagram,
    random_filtered_complex,
)


@contextmanager
def criterion(number: int, label: str, budget: float = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget: {elapsed:.2f}s"


def _corpus(seed=20240601, count=1000):
    rng = random.Random(seed)
    return [random_diagram(rng, max_points=50, max_degree=4) for _ in range(count)]


EPSILONS = (0.05, 0.3, 1.0, 2.5, 7.0)


def test_criterion_1_telescoping_identity():
    with criterion(1, "telescoping identity on 1000 diagrams", budget=5.0):
        for diagram in _corpus():
            for eps in EPSILONS:
                for d in range(0, 6):
                    assert cap_number(diagram, d, eps) - essential_dimension(diagram, d) == nu(
                        diagram, d - 1, eps
                    ) + nu(diagram, d, eps)


def test_criterion_2_morse_inequalities():
    with criterion(2, "Morse inequalities + worked report"):
        for diagram in _corpus():
            for eps in EPSILONS[:2]:
                report = morse_check(diagram, eps, 6)
                assert all(s >= 0 for s in report.partial_sums)
        worked = PersistenceDiagram({0: [(0, math.inf), (1, 2)], 1: [(3, 4)]})
        report = morse_check(worked, 0.5, 2)
        assert tuple(row[1] for row in report.rows) == (2, 2, 1)  # m_eps
        assert tuple(row[2] for row in report.rows) == (1, 0, 0)  # p
        assert tuple(row[3] for row in report.rows) == (1, 1, 0)  # nu


def test_criterion_3_hawaiian_divergence():
    with criterion(3, "earring rank sweep k=1..20", budget=1.0):
        assert hawaiian_rank_sweep(1, 20) == tuple((k, k - 1) for k in range(1, 21))


def test_criterion_4_radical_of_product_family():
    with criterion(4, "radical of the 5-term product family"):
        expected = Barcode([(0, Interval.open_open(0.0, 1.0 / n)) for n in range(1, 6)])
        assert radical(product_family(5)) == expected


def _small_diagram(rng):
    points = []
    for _ in range(rng.randint(0, 6)):
        if points and rng.random() < 0.2:
            points.append(rng.choice(points))  # boost a multiplicity
            continue
        p = rng.uniform(-5, 5)
        q = math.inf if rng.random() < 0.05 else p + rng.uniform(1e-3, 6)
        points.append((p, q))
    return PersistenceDiagram({0: points[:6]})


def test_criterion_5_bottleneck_oracle():
    with criterion(5, "bottleneck vs brute force, 500 pairs", budget=30.0):
        rng = random.Random(5150)
        for _ in range(500):
            a = _small_diagram(rng)
            b = _small_diagram(rng)
            assert bottleneck(a, b, 0) == bottleneck_bruteforce(a, b, 0)


def test_criterion_6_stability():
    with criterion(6, "stability under sup-norm perturbation, 200 complexes"):
        rng = random.Random(60221)
        for _ in range(200):
            k = random_filtered_complex(rng, max_simplices=40)
            delta = rng.uniform(0.0, 1.0)
            perturbed, achieved = perturb_filtration(k, rng, delta)
            da = diagram_of(compute_persistence(k))
            db = diagram_of(compute_persistence(perturbed))
            for d in (0, 1):
                dist = bottleneck(da, db, d)
                assert dist.is_finite
                assert dist.value <= achieved + 1e-12


def test_criterion_7_dowker_agreement():
    with criterion(7, "Dowker agreement on 100 random covers", budget=10.0):
        rng = random.Random(70707)
        for _ in range(100):
            sets, ground = random_cover_sets(rng, max_sets=8, max_elements=12)
            cover = Cover(sets, ground=ground)
            for field in (GF2, GF3):
                agree, nerve_ranks, vietoris_ranks = dowker_check(cover, field)
                assert agree
                assert nerve_ranks == betti_numbers_oracle(sorted(s for s, _ in nerve(cover).simplices), field)
                assert vietoris_ranks == betti_numbers_oracle(sorted(s for s, _ in vietoris(cover).simplices), field)


def test_criterion_8_bars_betti_euler_consistency():
    with criterion(8, "bars alive = Betti and Euler, 100 complexes"):
        rng = random.Random(80808)
        for _ in range(100):
            k = random_filtered_complex(rng)
            barcode = compute_persistence(k)
            for t, chi in euler_profile(k):
                alternating = 0
                for d in (0, 1, 2):
                    alive = alive_bars(barcode, d, t)
                    assert alive == betti_oracle_at(k, t, d, GF2) == betti_at(k, t, d)
                    alternating += (-1) ** d * alive
                assert alternating == chi


def test_criterion_9_douglas_functional():
    with criterion(9, "Douglas energy of the unit circle", budget=10.0):
        t = np.arange(512) * (2 * math.pi / 512)
        circle = np.column_stack([np.cos(t), np.sin(t)])
        value = douglas_eval(DouglasInput.identity(circle, 512))
        assert value == pytest.approx(math.pi**2, rel=1e-3)

        constant = np.zeros((64, 2))
        assert douglas_eval(DouglasInput.identity(constant, 64)) == 0.0
