"""Filtered complexes: validation, lower-star, persistence, Betti, Euler."""

import math
import random

import pytest

from pershom import (
    Barcode,
    Cover,
    DuplicateSimplexError,
    FilteredComplex,
    GF2,
    GF3,
    Interval,
    MissingFaceError,
    MissingVertexValueError,
    NonMonotoneError,
    PrimeField,
    SimplicialComplex,
    betti_at,
    compute_persistence,
    euler_profile,
    homology_ranks,
    lower_star,
    nerve,
    validate,
    vietoris,
)

from helpers import (
    alive_bars,
    betti_numbers_oracle,
    betti_oracle_at,
    random_cover_sets,
    random_filtered_complex,
)


def hollow_triangle(value=0.0):
    return FilteredComplex(
        [((0,), value), ((1,), value), ((2,), value),
         ((0, 1), value), ((0, 2), value), ((1, 2), value)]
    )


def filled_triangle(value=0.0):
    base = hollow_triangle(value).simplices
    return FilteredComplex(list(base) + [((0, 1, 2), value)])


def sphere_boundary(value=0.0):
    """Boundary of the 3-simplex: a triangulated 2-sphere."""
    from itertools import combinations

    simplices = []
    for size in (1, 2, 3):
        simplices.extend((s, value) for s in combinations(range(4), size))
    return FilteredComplex(simplices)


def projective_plane(value=0.0):
    """The minimal 6-vertex triangulation of the real projective plane."""
    triangles = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    simplices = {(v,) for v in range(6)}
    for t in triangles:
        simplices.add(t)
        simplices.update([(t[0], t[1]), (t[0], t[2]), (t[1], t[2])])
    return FilteredComplex([(s, value) for s in sorted(simplices)])


# ------------------------------------------------------------------ validation

def test_validate_ok():
    k = FilteredComplex([((0,), 0.0), ((1,), 0.5), ((0, 1), 1.0)])
    validate(k)  # no exception


def test_validate_non_monotone():
    k = FilteredComplex([((0,), 0.0), ((1,), 0.5), ((0, 1), 0.2)])
    with pytest.raises(NonMonotoneError) as err:
        validate(k)
    assert err.value.simplex == (0, 1)
    assert err.value.face == (1,)


def test_validate_missing_face():
    k = FilteredComplex([((0,), 0.0), ((0, 1), 1.0)])
    with pytest.raises(MissingFaceError) as err:
        validate(k)
    assert err.value.face == (1,)


def test_validate_duplicate():
    k = FilteredComplex([((0,), 0.0), ((0,), 1.0)])
    with pytest.raises(DuplicateSimplexError):
        validate(k)


# ------------------------------------------------------------------ lower star

def test_lower_star_max_rule():
    k = lower_star({0: 0.0, 1: 1.0, 2: 2.0},
                   [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
    values = dict(k.simplices)
    assert values[(0,)] == 0.0
    assert values[(0, 1)] == 1.0
    assert values[(0, 1, 2)] == 2.0


def test_lower_star_single_vertex_and_tie():
    assert dict(lower_star({0: 7.0}, [(0,)]).simplices) == {(0,): 7.0}
    k = lower_star({0: 3.0, 1: 3.0}, [(0,), (1,), (0, 1)])
    assert dict(k.simplices)[(0, 1)] == 3.0


def test_lower_star_missing_value():
    with pytest.raises(MissingVertexValueError):
        lower_star({0: 0.0}, [(0,), (1,)])


# ----------------------------------------------------------------- persistence

def test_persistence_single_vertex():
    k = FilteredComplex([((0,), 0.0)])
    assert compute_persistence(k) == Barcode([(0, Interval.closed_open(0, math.inf))])


def test_persistence_hollow_triangle():
    # hand reduction: two vertex deaths at value 0 are ephemeral; one
    # component and the 3-cycle survive forever
    expected = Barcode(
        [(0, Interval.closed_open(0, math.inf)), (1, Interval.closed_open(0, math.inf))]
    )
    assert compute_persistence(hollow_triangle()) == expected


def test_persistence_edge_kills_component():
    k = FilteredComplex([((0,), 0.0), ((1,), 1.0), ((0, 1), 1.0)])
    assert compute_persistence(k) == Barcode([(0, Interval.closed_open(0, math.inf))])
    kept = compute_persistence(k, keep_ephemeral=True)
    assert kept == Barcode(
        [(0, Interval.closed_open(0, math.inf)), (0, Interval.singleton(1.0))]
    )


def test_persistence_finite_bar():
    # two components born apart, merged by a later edge
    k = FilteredComplex([((0,), 0.0), ((1,), 1.0), ((0, 1), 3.0)])
    assert compute_persistence(k) == Barcode(
        [(0, Interval.closed_open(0, math.inf)), (0, Interval.closed_open(1.0, 3.0))]
    )


def test_persistence_order_independent():
    rng = random.Random(11)
    for _ in range(20):
        k = random_filtered_complex(rng)
        entries = list(k.simplices)
        rng.shuffle(entries)
        shuffled = FilteredComplex(entries)
        assert compute_persistence(shuffled) == compute_persistence(k)


def test_persistence_field_independent_on_torsion_free():
    for k in (hollow_triangle(), sphere_boundary()):
        assert compute_persistence(k, GF2) == compute_persistence(k, GF3)


def test_torsion_separates_fields():
    # the projective plane's H_1 has 2-torsion, so mod-2 and mod-3
    # homology genuinely disagree
    k = projective_plane()

    assert [betti_at(k, 0.0, d, GF2) for d in (0, 1, 2)] == [1, 1, 1]
    assert [betti_at(k, 0.0, d, GF3) for d in (0, 1, 2)] == [1, 0, 0]
    for field in (GF2, GF3):
        barcode = compute_persistence(k, field)
        for d in (0, 1, 2):
            dense = betti_oracle_at(k, 0.0, d, field)
            assert alive_bars(barcode, d, 0.0) == dense == betti_at(k, 0.0, d, field)


# ----------------------------------------------------------------------- betti

def test_betti_examples():
    assert betti_at(hollow_triangle(), -1.0, 0) == 0
    assert betti_at(hollow_triangle(), 0.0, 1) == 1
    two_points = FilteredComplex([((0,), 0.0), ((1,), 0.0)])
    assert betti_at(two_points, 0.0, 0) == 2


def test_betti_sphere():
    assert betti_at(sphere_boundary(), 0.0, 0) == 1
    assert betti_at(sphere_boundary(), 0.0, 1) == 0
    assert betti_at(sphere_boundary(), 0.0, 2) == 1


def test_betti_at_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        betti_at(hollow_triangle(), math.nan, 0)


# ------------------------------------------ sparse engine against dense oracle

CROSS_CHECK_FIELDS = (GF2, GF3, PrimeField(5))


def test_betti_at_matches_dense_oracle_on_random_filtrations():
    rng = random.Random(27182)
    for trial in range(60):
        k = random_filtered_complex(rng)
        field = CROSS_CHECK_FIELDS[trial % len(CROSS_CHECK_FIELDS)]
        for t in k.values():
            for d in (0, 1, 2):
                assert betti_at(k, t, d, field) == betti_oracle_at(k, t, d, field), (k, t, d, field)


def test_cover_complexes_match_dense_oracle():
    # nerves and Vietoris complexes of random covers reach degree >= 3; the
    # lower-star filtration by random vertex values exercises betti_at there
    rng = random.Random(16180)
    top = 0
    for _ in range(30):
        sets, ground = random_cover_sets(rng)
        cover = Cover(sets, ground=ground)
        for complex_ in (nerve(cover), vietoris(cover)):
            top = max(top, complex_.dim)
            simplices = sorted(complex_.simplices)
            vertices = {s[0] for s in simplices if len(s) == 1}
            k = lower_star({v: rng.uniform(0.0, 1.0) for v in vertices}, simplices)
            for field in CROSS_CHECK_FIELDS:
                assert homology_ranks(complex_, field) == betti_numbers_oracle(simplices, field)
                for t in k.values()[::2]:
                    for d in range(complex_.dim + 1):
                        assert betti_at(k, t, d, field) == betti_oracle_at(k, t, d, field)
    assert top >= 3


def test_projective_plane_matches_dense_oracle():
    k = projective_plane()
    plane = SimplicialComplex(s for s, _ in k.simplices)
    expected = {2: (1, 1, 1), 3: (1, 0, 0), 5: (1, 0, 0)}
    for field in CROSS_CHECK_FIELDS:
        dense = betti_numbers_oracle(sorted(plane.simplices), field)
        assert homology_ranks(plane, field) == dense == expected[field.p]
        assert tuple(betti_at(k, 0.0, d, field) for d in (0, 1, 2)) == dense


# ----------------------------------------------------------------------- euler

def test_euler_examples():
    assert euler_profile(FilteredComplex([((0,), 0.0)])) == ((0.0, 1),)
    assert euler_profile(hollow_triangle()) == ((0.0, 0),)
    assert euler_profile(filled_triangle()) == ((0.0, 1),)


# ------------------------------------------------------------------ invariants

def test_barcode_ranks_match_kernel_image_oracle():
    # rank(H_d(K_s) -> H_d(K_t)) computed two ways: bars containing [s, t]
    # from the reduction, and cycle/boundary linear algebra with no pairing
    from pershom import PrimeField, barcode_rank
    from helpers import persistent_rank_oracle

    rng = random.Random(314159)
    fields = (GF2, GF3, PrimeField(5))
    for trial in range(25):
        k = random_filtered_complex(rng)
        field = fields[trial % len(fields)]
        barcode = compute_persistence(k, field)
        values = k.values()
        for _ in range(6):
            s = rng.choice(values)
            t = rng.choice([v for v in values if v >= s])
            for d in (0, 1, 2):
                expected = persistent_rank_oracle(k, d, s, t, field)
                assert barcode_rank(barcode, d, s, t) == expected, (k, d, s, t, field)


def test_bars_alive_equal_betti_and_euler():
    rng = random.Random(4242)
    for _ in range(40):
        k = random_filtered_complex(rng)
        barcode = compute_persistence(k)
        for t, chi in euler_profile(k):
            alternating = 0
            for d in range(0, 3):
                alive = alive_bars(barcode, d, t)
                assert alive == betti_oracle_at(k, t, d, GF2) == betti_at(k, t, d), (k, t, d)
                alternating += (-1) ** d * alive
            assert alternating == chi
