"""Nerve and Vietoris complexes, homology ranks, Dowker agreement, ball covers."""

import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pershom.filtration
from pershom import (
    Cover,
    CoverSetError,
    FilteredComplex,
    GF2,
    GF3,
    HawaiianSpec,
    PrimeField,
    TooLargeError,
    balls_cover,
    dowker_check,
    hawaiian_complex,
    homology_ranks,
    nerve,
    vietoris,
)
from pershom.covers import VIETORIS_LIMIT

from helpers import assert_built_as_by_pairs, closure, is_face_closed, random_cover_sets


def overlap_cover():
    return Cover([("U1", [1, 2]), ("U2", [2, 3])])


def simplices_of(complex_):
    """The vertex tuples of a complex, without their values."""
    return sorted(s for s, _ in complex_.simplices)


def test_cover_ids_must_be_integers():
    # operator.index, the vertex-id rule of FilteredComplex: int() would
    # truncate 1.7 to 1 and parse "3" as 3
    for elems in ([1.7, 2], ["3"], [np.float64(2.0)], [np.True_]):
        with pytest.raises(CoverSetError, match="cover set 'B' has a non-integer element") as err:
            Cover([("A", [1]), ("B", elems)])
        assert (err.value.index, err.value.name) == (1, "B")
    with pytest.raises(ValueError, match="the ground set has a non-integer element"):
        Cover([("A", [1])], ground=[1, 2.0])
    cover = Cover([("A", iter([np.int64(2), True]))], ground=range(3))
    assert cover.sets == (("A", frozenset({1, 2})),) and cover.ground == frozenset({0, 1, 2})
    assert all(type(e) is int for e in cover.ground | cover.sets[0][1])


# ---------------------------------------------------------------------- nerve

def test_nerve_overlapping_pair():
    k = nerve(overlap_cover())
    assert simplices_of(k) == [(0,), (0, 1), (1,)]


def test_nerve_disjoint_pair():
    k = nerve(Cover([("U1", [1]), ("U2", [2])]))
    assert simplices_of(k) == [(0,), (1,)]


def test_nerve_single_set():
    k = nerve(Cover([("U1", [1, 2, 3])]))
    assert simplices_of(k) == [(0,)]


def test_nerve_skips_empty_sets():
    k = nerve(Cover([("U1", []), ("U2", [1])], ground=[1]))
    assert simplices_of(k) == [(1,)]


def test_nerve_detects_empty_triple_intersection():
    # pairwise overlaps but no common point: the nerve is a hollow triangle
    cover = Cover([("U1", [1, 2]), ("U2", [2, 3]), ("U3", [1, 3])])
    k = simplices_of(nerve(cover))
    assert (0, 1) in k and (0, 2) in k and (1, 2) in k
    assert (0, 1, 2) not in k
    agree, n_ranks, v_ranks = dowker_check(cover)
    assert agree and n_ranks == (1, 1) == v_ranks


# ------------------------------------------------------------------- vietoris

def test_vietoris_overlapping_pair():
    k = vietoris(overlap_cover())
    assert simplices_of(k) == [(1,), (1, 2), (2,), (2, 3), (3,)]


def test_vietoris_single_set_is_full_simplex():
    k = vietoris(Cover([("U", [1, 2, 3])]))
    assert len(k.simplices) == 7  # all nonempty subsets
    assert (1, 2, 3) in simplices_of(k)


def test_vietoris_refuses_oversized_cover_without_enumerating(monkeypatch):
    import pershom.covers

    def enumerate_nothing(*args):
        raise AssertionError("vietoris enumerated subsets of an oversized cover")

    monkeypatch.setattr(pershom.covers, "combinations", enumerate_nothing)
    with pytest.raises(TooLargeError, match=str(2**30 - 1)):
        vietoris(Cover([("U", range(30))]))


def test_nerve_refuses_seventeen_sets_sharing_an_element():
    # the 2^17 - 1 subfamilies of the sets holding 0 all meet there
    message = f"^the nerve could have up to {2**17 - 1} simplices, over {VIETORIS_LIMIT}$"
    with pytest.raises(TooLargeError, match=message):
        nerve(Cover([(k, [0]) for k in range(17)]))
    assert len(nerve(Cover([(k, [0]) for k in range(10)]))) == 2**10 - 1


def test_vietoris_limit_admits_the_thirteen_element_overlap():
    sets = [("U", range(13)), ("V", range(10, 23))]
    assert 2 * (2**13 - 1) <= VIETORIS_LIMIT
    assert len(vietoris(Cover(sets))) == 2 * (2**13 - 1) - (2**3 - 1)


def test_vietoris_empty_cover():
    k = vietoris(Cover([]))
    assert len(k.simplices) == 0


def test_uncovered_elements_are_invisible():
    cover = Cover([("U", [1])], ground=[1, 2, 3])
    assert simplices_of(vietoris(cover)) == [(1,)]


# ------------------------------------------------------------- homology ranks

def test_homology_ranks_examples():
    hollow = closure([(0, 1), (0, 2), (1, 2)])
    assert homology_ranks(hollow) == (1, 1)

    full = closure([(0, 1, 2)])
    assert homology_ranks(full) == (1, 0, 0)

    two_points = closure([(0,), (1,)])
    assert homology_ranks(two_points) == (2,)


# --------------------------------------------------------------------- dowker

def test_dowker_examples():
    agree, n_ranks, v_ranks = dowker_check(overlap_cover())
    assert agree and n_ranks == (1, 0) and v_ranks == (1, 0)

    four_cycle = Cover([("A", [1, 2]), ("B", [2, 3]), ("C", [3, 4]), ("D", [4, 1])])
    agree, n_ranks, v_ranks = dowker_check(four_cycle)
    assert agree and n_ranks == (1, 1) and v_ranks == (1, 1)

    agree, n_ranks, v_ranks = dowker_check(Cover([]))
    assert agree and n_ranks == (0,) and v_ranks == (0,)


def test_dowker_on_random_covers_both_fields():
    rng = random.Random(1618)
    for _ in range(25):
        sets, ground = random_cover_sets(rng)
        cover = Cover(sets, ground=ground)
        for field in (GF2, GF3):
            agree, n_ranks, v_ranks = dowker_check(cover, field)
            assert agree, (sets, field, n_ranks, v_ranks)


def test_nerve_and_vietoris_outputs_are_face_closed():
    rng = random.Random(55)
    for _ in range(20):
        sets, ground = random_cover_sets(rng)
        cover = Cover(sets, ground=ground)
        assert is_face_closed(simplices_of(nerve(cover)))
        assert is_face_closed(simplices_of(vietoris(cover)))


# Element ids on both sides of the int64 edge, where vertex arrays turn to Python ints.
_IDS = st.integers(-3, 12) | st.integers(2**63 - 3, 2**64 + 3)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.frozensets(_IDS, max_size=5), max_size=6))
def test_nerve_and_vietoris_equal_the_pair_built_complexes(members):
    cover = Cover(enumerate(members))
    subfamilies = [s for k in range(1, len(members) + 1) for s in combinations(range(len(members)), k)]
    assert set(simplices_of(nerve(cover))) == {s for s in subfamilies if frozenset.intersection(*map(members.__getitem__, s))}
    assert set(simplices_of(vietoris(cover))) == {
        s for elems in members for k in range(1, len(elems) + 1) for s in combinations(sorted(elems), k)}
    assert_built_as_by_pairs(nerve(cover))
    assert_built_as_by_pairs(vietoris(cover))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.frozensets(_IDS, max_size=5), max_size=5), st.integers(0, 2))
def test_dowker_check_equals_the_two_complexes_reduced_apart(members, repeats):
    # empty sets, repeated sets and the empty cover are drawn too; each side keeps its own top degree
    cover = Cover(enumerate(members + members[:repeats]))
    for field in (GF2, GF3, PrimeField(5)):
        nerve_ranks, vietoris_ranks = homology_ranks(nerve(cover), field), homology_ranks(vietoris(cover), field)
        width = max(len(nerve_ranks), len(vietoris_ranks))
        agree = nerve_ranks + (0,) * (width - len(nerve_ranks)) == vietoris_ranks + (0,) * (width - len(vietoris_ranks))
        assert dowker_check(cover, field) == (agree, nerve_ranks, vietoris_ranks)


def test_dowker_check_refuses_either_complex_before_enumerating(monkeypatch):
    import pershom.covers

    def enumerate_nothing(*args):
        raise AssertionError("dowker_check enumerated subsets of an oversized cover")

    monkeypatch.setattr(pershom.covers, "combinations", enumerate_nothing)
    nerve_message = f"^the nerve could have up to {2**17 - 1} simplices, over {VIETORIS_LIMIT}$"
    with pytest.raises(TooLargeError, match=nerve_message):
        dowker_check(Cover([(k, [0]) for k in range(17)]))
    with pytest.raises(TooLargeError, match=f"^the Vietoris complex could have up to {2**30 - 1} simplices, over {VIETORIS_LIMIT}$"):
        dowker_check(Cover([("U", range(30))]))
    with pytest.raises(TooLargeError, match=f"^the nerve could have up to {17 * (2**17 - 1)} simplices"):
        dowker_check(Cover([(k, range(17)) for k in range(17)]))  # both too large: the nerve is named first


def test_library_made_complexes_skip_the_per_id_check(monkeypatch):
    # their ids were checked by Cover or made by range, so they enter as rows
    cover = Cover([("A", [1, 2, 3]), ("B", [3, 4]), ("C", [4, 2**63])])
    spec = HawaiianSpec(2, 3)

    def refuse(*args):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(pershom.filtration, "index", refuse)
    monkeypatch.setattr(FilteredComplex, "__init__", refuse)
    assert [len(nerve(cover)), len(vietoris(cover)), len(hawaiian_complex(spec))] == [5, 11, 41]
    assert dowker_check(cover) == (True, (1, 0), (1, 0, 0))


# ---------------------------------------------------------------- ball covers

def test_balls_cover_examples():
    two = [[0.0, 1.0], [1.0, 0.0]]
    cover = balls_cover(two, 0.5)
    assert [sorted(elems) for _, elems in cover.sets] == [[0], [1]]

    cover = balls_cover(two, 2.0)
    assert [sorted(elems) for _, elems in cover.sets] == [[0, 1], [0, 1]]

    line = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    cover = balls_cover(line, 1.5)
    assert [sorted(elems) for _, elems in cover.sets] == [[0, 1], [0, 1, 2], [1, 2]]


def test_balls_cover_validation():
    with pytest.raises(ValueError):
        balls_cover([[0.0, 1.0], [2.0, 0.0]], 1.0)  # not symmetric
    with pytest.raises(ValueError):
        balls_cover([[0.0, -1.0], [-1.0, 0.0]], 1.0)  # negative distance
    with pytest.raises(ValueError):
        balls_cover([[1.0, 1.0], [1.0, 1.0]], 1.0)  # nonzero diagonal
    with pytest.raises(ValueError):
        balls_cover([[0.0, 1.0], [1.0, 0.0]], 0.0)  # delta must be positive
    with pytest.raises(ValueError, match=r"^distance matrix must be square, got shape \(1, 2\)$"):
        balls_cover([[0.0, 1.0]], 1.0)


@pytest.mark.parametrize("text", ["1", b"1", bytearray(b"1")])
def test_balls_cover_rejects_text_distances(text):
    # numpy would parse each
    with pytest.raises(ValueError, match=rf"^distance matrix has {re.escape(repr(text))} at \(1, 0\), not a number$"):
        balls_cover([[0.0, 1.0], [text, 0.0]], 1.5)


def test_balls_cover_rejects_a_nan_radius():
    with pytest.raises(ValueError, match="delta must not be NaN"):
        balls_cover([[0.0, 1.0], [1.0, 0.0]], float("nan"))


def test_balls_cover_reports_a_nan_distance_as_such():
    with pytest.raises(ValueError, match=r"^distance matrix has nan at \(0, 1\), not a number$"):
        balls_cover([[0.0, float("nan")], [1.0, 0.0]], 1.0)
    with pytest.raises(ValueError, match=r"^distance matrix has nan at \(1, 1\), not a number$"):
        balls_cover([[0.0, 1.0], [1.0, float("nan")]], 1.0)


def test_vietoris_ball_filtration_is_nested():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 7)
        points = np.array([[rng.uniform(0, 3), rng.uniform(0, 3)] for _ in range(n)])
        dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        np.fill_diagonal(dists, 0.0)
        small, large = sorted((rng.uniform(0.1, 3), rng.uniform(0.1, 3)))
        k_small = vietoris(balls_cover(dists, small))
        k_large = vietoris(balls_cover(dists, large))
        assert set(simplices_of(k_small)) <= set(simplices_of(k_large))
