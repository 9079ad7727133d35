"""Filtered complexes: validation, lower-star, persistence, Betti, Euler."""

import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pershom import (
    Barcode,
    ComplexValidationError,
    Cover,
    DuplicateSimplexError,
    ExtendedReal,
    FilteredComplex,
    GF2,
    GF3,
    Interval,
    MissingFaceError,
    MissingVertexValueError,
    NonFiniteValueError,
    NonIntegerVertexError,
    NonMonotoneError,
    PrimeField,
    TextValueError,
    barcode_rank,
    betti_at,
    compute_persistence,
    diagram_of,
    euler_profile,
    homology_ranks,
    lower_star,
    nerve,
    persistence_diagram,
    validate,
    vietoris,
)
import pershom.filtration
from pershom.filtration import facets
from pershom.io import format_diagram, parse_filtration

from helpers import (
    alive_bars,
    betti_numbers_oracle,
    betti_oracle_at,
    grid_lower_star,
    persistence_oracle,
    random_closed_entries,
    random_cover_sets,
    random_filtered_complex,
    random_rips,
    sublevel,
    validate_oracle,
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
    with pytest.raises(NonMonotoneError) as err:
        FilteredComplex([((0,), 0.0), ((1,), 0.5), ((0, 1), 0.2)])
    assert err.value.simplex == (0, 1)
    assert err.value.face == (1,)


def test_validate_missing_face():
    with pytest.raises(MissingFaceError) as err:
        FilteredComplex([((0,), 0.0), ((0, 1), 1.0)])
    assert err.value.face == (1,)


def test_validate_duplicate():
    with pytest.raises(DuplicateSimplexError) as err:
        FilteredComplex([((0,), 0.0), ((0,), 1.0)])
    assert err.value.simplex == (0,)


def test_nan_filtration_value_is_rejected_naming_the_simplex():
    with pytest.raises(ValueError, match=r"simplex \(0, 1\) has a NaN filtration value"):
        FilteredComplex([((0,), 0.0), ((1,), 0.0), ((0, 1), math.nan)])


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_filtration_value_is_rejected_naming_the_simplex(value):
    with pytest.raises(NonFiniteValueError, match=r"simplex \(1,\) has an infinite filtration value") as err:
        FilteredComplex([((0,), 0.0), ((1,), value)])
    assert err.value.simplex == (1,)


def test_betti_at_validates_once(monkeypatch):
    import pershom.filtration

    entries = filled_triangle().simplices
    calls = []
    real = pershom.filtration.validate
    monkeypatch.setattr(pershom.filtration, "validate", lambda k: calls.append(k) or real(k))
    complex_ = FilteredComplex(entries)  # the one check, at construction
    assert betti_at(complex_, 0.0, 0) == 1
    assert betti_at(complex_, 0.0, 1) == 0
    assert euler_profile(complex_) == ((0.0, 1),)
    assert compute_persistence(complex_) == compute_persistence(complex_)
    assert len(calls) == 1


def test_one_reduction_per_complex_and_field(monkeypatch):
    # every query reads the pairing the complex keeps for its field
    reductions = []
    real = pershom.filtration._reduce
    monkeypatch.setattr(pershom.filtration, "_reduce", lambda k, field: reductions.append(field.p) or real(k, field))
    rng = random.Random(11)
    complex_ = random_filtered_complex(rng, max_simplices=30)
    simplices = [s for s, _ in complex_.simplices]
    queries = [(rng.choice(complex_.values() + (-math.inf, math.inf)), rng.randrange(3)) for _ in range(20)]
    assert compute_persistence(complex_, GF2) == persistence_oracle(complex_, GF2)
    assert homology_ranks(complex_, GF2) == betti_numbers_oracle(simplices, GF2)
    assert [betti_at(complex_, t, d, GF2) for t, d in queries] == [betti_oracle_at(complex_, t, d, GF2)
                                                                   for t, d in queries]
    assert reductions == [2]
    assert [betti_at(complex_, t, d, GF3) for t, d in queries] == [betti_oracle_at(complex_, t, d, GF3)
                                                                   for t, d in queries]
    assert compute_persistence(complex_, GF3) == persistence_oracle(complex_, GF3)
    assert homology_ranks(complex_, GF3) == betti_numbers_oracle(simplices, GF3)
    assert reductions == [2, 3]


def test_facets_run_once_per_simplex(monkeypatch):
    # construction codes every simplex and keeps its cofacets, so once a
    # complex is built neither the reduction nor a sublevel query lists faces
    import pershom.filtration

    complex_ = FilteredComplex(random_filtered_complex(random.Random(5), max_simplices=30).simplices)

    def refuse(simplex):
        raise AssertionError(f"facets{simplex} called after construction")

    monkeypatch.setattr(pershom.filtration, "facets", refuse)
    middle, top = complex_.values()[len(complex_.values()) // 2], complex_.values()[-1]
    assert compute_persistence(complex_, GF3) == persistence_oracle(complex_, GF3)
    assert betti_at(complex_, middle, 1) == betti_oracle_at(complex_, middle, 1, GF2)
    assert betti_at(complex_, top, 0) == betti_oracle_at(complex_, top, 0, GF2)


def test_validate_reports_the_first_offender_in_input_order():
    # the canonical order meets the second offender first; the listing wins
    with pytest.raises(MissingFaceError) as err:
        FilteredComplex([((2,), 0.0), ((2, 3), 0.5), ((0,), 0.0), ((0, 1), 0.0)])
    assert (err.value.simplex, err.value.face) == ((2, 3), (3,))
    with pytest.raises(NonMonotoneError) as err:
        FilteredComplex([((0,), 0.0), ((1,), 2.0), ((2,), 0.0), ((3,), 0.7), ((1, 2), 1.0), ((0, 3), 0.5)])
    assert (err.value.simplex, err.value.face) == ((1, 2), (1,))


def test_sorted_simplices_is_the_canonical_order():
    k = random_filtered_complex(random.Random(8))
    order = k.sorted_simplices()
    assert order == tuple(sorted(k.simplices, key=lambda e: (e[1], len(e[0]), e[0])))
    assert k.sorted_simplices() is order


# ------------------------------------------------------------------ face index

DEFECTS = ["duplicate", "missing", "later", "nonfinite", "unsorted", "empty"]


def _with_defects(entries, rng, defects):
    entries = list(entries)
    for defect in defects:
        if not entries:
            break
        i = rng.randrange(len(entries))
        simplex, value = entries[i]
        if defect == "duplicate":
            entries.insert(rng.randrange(len(entries) + 1), (simplex, rng.choice([value, 2.0])))
        elif defect == "missing":
            del entries[i]  # a missing face once the simplex has a coface
        elif defect == "later":
            entries[i] = (simplex, 2.0)  # above every other value
        elif defect == "nonfinite":
            entries[i] = (simplex, rng.choice([math.inf, -math.inf, math.nan]))
        elif defect == "unsorted":
            entries[i] = (simplex[::-1], value)
        else:
            entries.insert(i, ((), value))
    return entries


def _outcome(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, exc


def _assert_matches_validate_oracle(entries):
    expected, expected_error = _outcome(lambda: validate_oracle(entries))
    complex_, error = _outcome(lambda: FilteredComplex(entries))
    assert type(error) is type(expected_error)
    if error is not None:
        assert str(error) == str(expected_error)
        assert getattr(error, "simplex", None) == getattr(expected_error, "simplex", None)
        assert getattr(error, "face", None) == getattr(expected_error, "face", None)
        return
    order, cofacets = expected
    assert repr(complex_.sorted_simplices()) == repr(order)  # -0.0 and 0.0 stay apart
    table = validate(complex_)
    assert all(type(part) is np.ndarray for part in table)
    canon, _, _, codes, offsets = table
    assert canon.dtype == codes.dtype == offsets.dtype == np.int64
    assert offsets[0] == 0 and (np.diff(offsets) >= 0).all() and offsets[-1] == len(codes)
    for k, expected_codes in enumerate(cofacets):
        got = [(c >> 1, c & 1) for c in codes[offsets[k]:offsets[k + 1]]]
        assert len(got) == len(expected_codes)
        assert set(got) == {(c >> 1, c & 1) for c in expected_codes}


def _dense(entries):
    """The entries with each vertex id replaced by its rank among them, from 0."""
    rank = {v: i for i, v in enumerate(sorted({v for s, _ in entries for v in s}))}
    return [(tuple(map(rank.__getitem__, s)), t) for s, t in entries]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_dim=st.integers(0, 8),
    extra=st.integers(0, 480),
    defects=st.lists(st.sampled_from(DEFECTS), max_size=2),
    dense=st.booleans(),
)
def test_face_index_matches_the_tuple_keyed_oracle(seed, max_dim, extra, defects, dense):
    # sparse ids up to 10**9 are ranked by sorting, dense ones from 0 by counting
    rng = random.Random(seed)
    entries = random_closed_entries(rng, max_dim, extra_vertices=extra)
    entries = _with_defects(_dense(entries) if dense else entries, rng, defects)
    _assert_matches_validate_oracle(entries)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_dim=st.integers(0, 6), extra=st.integers(0, 60))
def test_face_table_is_the_same_for_every_shift_of_the_ids(seed, max_dim, extra):
    # ids from 0 are ranked by counting; shifted past four per vertex slot, below 0 or beyond int64, by sorting
    entries = _dense(random_closed_entries(random.Random(seed), max_dim, extra_vertices=extra))
    table = [part.tobytes() for part in FilteredComplex(entries)._table]
    for offset in (0, 10**6, 2**62, 2**64, -10**6, -2**70):
        shifted = [(tuple(v + offset for v in s), t) for s, t in entries]
        assert [part.tobytes() for part in FilteredComplex(shifted)._table] == table
        if offset >= 0:  # the reader refuses negative ids
            text = "".join(f"simplex {t!r} {' '.join(map(str, s))}\n" for s, t in shifted)
            assert [part.tobytes() for part in parse_filtration(text)._table] == table


# A dimension-8 simplex on the largest vertices has the largest key; it fits
# int64 over up to 419 vertices and needs exact Python ints from 420 on.
# With all values tied, the canonical order is the key order itself.
@pytest.mark.parametrize("extra", [410, 411])
@pytest.mark.parametrize("defect", [None, "duplicate", "missing", "later"])
def test_face_index_is_exact_on_both_sides_of_the_int64_edge(extra, defect):
    rng = random.Random(extra)
    vertices = sorted(rng.sample(range(10**9), 9 + extra))
    top = [s for size in range(1, 10) for s in combinations(vertices[-9:], size)]
    entries = [(s, rng.choice([-0.0, 0.0])) for s in [(v,) for v in vertices[:-9]] + top]
    rng.shuffle(entries)
    _assert_matches_validate_oracle(_with_defects(entries, rng, [defect] if defect else []))


def test_compute_persistence_makes_no_interval(monkeypatch):
    import pershom.barcode

    complex_ = grid_lower_star(random.Random(3))
    made = []
    real_made, real_new = pershom.barcode._made, Interval.__new__
    monkeypatch.setattr(pershom.barcode, "_made", lambda cls, *columns: made.append(cls) or real_made(cls, *columns))
    monkeypatch.setattr(Interval, "__new__", lambda cls, *args: made.append(args) or real_new(cls, *args))
    barcode = compute_persistence(complex_, GF2)
    assert made == []
    assert len(barcode) > len({(d, iv.lo, iv.hi) for d, iv in barcode})  # the bars repeat
    assert made == [Interval]  # iterating made them, on demand
    assert barcode == persistence_oracle(complex_, GF2)


# ------------------------------------------------------------ construction

@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_dim=st.integers(0, 6),
    extra=st.integers(0, 60),
    offset=st.sampled_from([0, 2**63 - 10**9, 2**63, 2**64, 10**30]),
)
def test_constructor_and_reader_build_the_same_complex(seed, max_dim, extra, offset):
    # ids from the offset on, so beyond int64 from 2**63; values hold -0.0 and 0.0
    entries = [(tuple(v + offset for v in s), t)
               for s, t in random_closed_entries(random.Random(seed), max_dim, extra_vertices=extra)]
    built = FilteredComplex(entries)
    read = parse_filtration("".join(f"simplex {t!r} {' '.join(map(str, s))}\n" for s, t in entries))
    assert "simplices" not in vars(built) and "simplices" not in vars(read)
    assert repr(built.simplices) == repr(read.simplices) == repr(tuple(entries))
    assert repr(built.sorted_simplices()) == repr(read.sorted_simplices())
    assert [part.tobytes() for part in built._table] == [part.tobytes() for part in read._table]


def _as_range(simplex):
    return range(simplex[0], simplex[-1] + 1, simplex[1] - simplex[0] if len(simplex) > 1 else 1)


@pytest.mark.parametrize("row", [tuple, list, _as_range, np.array, lambda s: np.array(s, np.uint32)])
def test_vertex_lists_may_be_any_sized_sequence(row):
    entries = ((0,), 0.0), ((1,), 0.5), ((2,), -0.0), ((0, 1), 0.5), ((0, 2), 1.0), ((1, 2), 1.0), ((0, 1, 2), 2.0)
    assert all(tuple(_as_range(s)) == s for s, _ in entries)
    k = FilteredComplex([(row(s), t) for s, t in entries])
    assert "simplices" not in vars(k)  # built on first use
    assert repr(k.simplices) == repr(entries)
    assert k == FilteredComplex(entries)


def test_vertex_lists_must_be_sized_and_values_numbers():
    with pytest.raises(TypeError):  # a one-shot iterator has no length
        FilteredComplex([(iter((0,)), 0.0)])
    with pytest.raises(TextValueError, match=r"^simplex \(0,\) has None as its filtration value, not a number$"):
        FilteredComplex([((0,), None)])  # numpy would read it as NaN


@pytest.mark.parametrize("text", ["1.5", b"2", bytearray(b"2")])
def test_text_filtration_values_are_refused(text):
    # numpy and `float` would parse each into a number
    message = rf"^simplex \(1,\) has {re.escape(repr(text))} as its filtration value, not a number$"
    with pytest.raises(TextValueError, match=message) as caught:
        FilteredComplex([((0,), 0.0), ((1,), text), ((0, 1), 2.0)])
    assert caught.value.simplex == (1,)
    assert isinstance(caught.value, ComplexValidationError)
    with pytest.raises(ValueError, match=r"^the value of vertex 1 must be a real number, got " + re.escape(repr(text))):
        lower_star({0: 0.0, 1: text}, [(0,), (1,), (0, 1)])


@pytest.mark.parametrize("vertex", [1.7, 2.0, "3", np.float64(5.0), np.True_])
def test_vertex_ids_must_be_integers(vertex):
    # each of these was truncated or parsed into another vertex
    with pytest.raises(NonIntegerVertexError, match=r"simplex \(0, .*\) has a vertex id that is not an integer"):
        FilteredComplex([((0,), 0.0), ((0, vertex), 1.0)])
    with pytest.raises(NonIntegerVertexError) as caught:
        lower_star({0: 0.0, vertex: 1.0}, [(0,), (vertex,)])
    assert caught.value.simplex == (vertex,)
    assert isinstance(caught.value, ComplexValidationError)


def test_integer_vertex_ids_of_any_type_are_kept_exactly():
    big = 2**70
    k = FilteredComplex([((np.int64(4),), 0.0), ((np.uint8(5),), 0.0), ((big,), 0.0), ((np.int64(4), big), 1.0)])
    assert k.simplices == (((4,), 0.0), ((5,), 0.0), ((big,), 0.0), ((4, big), 1.0))
    assert dict(lower_star({np.int64(2): 1.0, 3: 2.0}, [(2,), (np.int64(3),), (2, 3)]).simplices) == {
        (2,): 1.0, (3,): 2.0, (2, 3): 2.0}
    # to Python a bool is the integer 0 or 1, as in list indexing
    assert FilteredComplex([((True,), 0.0)]).simplices == (((1,), 0.0),)


def test_reduction_over_f2_takes_no_inverse(monkeypatch):
    complexes = [sphere_boundary(), projective_plane(), grid_lower_star(random.Random(4))]
    complexes += [random_filtered_complex(random.Random(seed)) for seed in range(10)]
    expected = [(persistence_oracle(k, GF2), betti_numbers_oracle([s for s, _ in k.simplices], GF2))
                for k in complexes]

    def refuse(self, a):
        raise AssertionError(f"inverse of {a} taken over F{self.p}")

    monkeypatch.setattr(PrimeField, "inv", refuse)
    for k, (barcode, betti) in zip(complexes, expected):
        assert compute_persistence(k, GF2) == barcode
        assert homology_ranks(k, GF2) == betti
        top = k.values()[-1]
        assert [betti_at(k, top, d, GF2) for d in range(len(betti))] == list(betti)


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
    barcode = compute_persistence(k)
    assert barcode == Barcode([(0, Interval.closed_open(0, math.inf))])
    # the component of vertex 1 is born and killed at 1.0: no sublevel set sees it
    assert barcode_rank(barcode, 0, 1.0, 1.0) == betti_at(k, 1.0, 0) == 1


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
    with pytest.raises(ValueError, match="t must be a real number, got 'x'"):
        betti_at(hollow_triangle(), "x", 0)


def test_rows_built_complexes_are_still_validated():
    # `_from_rows` skips only the per-id integer check
    for rows, values, error in [
        ([(0, 1)], [0.0], MissingFaceError),
        ([(0,), (0,)], [0.0, 0.0], DuplicateSimplexError),
        ([(0,), (1,), (0, 1)], [0.0, 1.0, 0.5], NonMonotoneError),
        ([(0,)], [math.nan], NonFiniteValueError),
        ([(1, 0)], [0.0], ValueError),
    ]:
        with pytest.raises(error):
            FilteredComplex._from_rows(rows, np.array(values))


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
            simplices = sorted(s for s, _ in complex_.simplices)
            dim = max(map(len, simplices), default=0) - 1
            top = max(top, dim)
            vertices = {s[0] for s in simplices if len(s) == 1}
            k = lower_star({v: rng.uniform(0.0, 1.0) for v in vertices}, simplices)
            for field in CROSS_CHECK_FIELDS:
                assert homology_ranks(complex_, field) == betti_numbers_oracle(simplices, field)
                for t in k.values()[::2]:
                    for d in range(dim + 1):
                        assert betti_at(k, t, d, field) == betti_oracle_at(k, t, d, field)
    assert top >= 3


def test_projective_plane_matches_dense_oracle():
    k = projective_plane()
    expected = {2: (1, 1, 1), 3: (1, 0, 0), 5: (1, 0, 0)}
    for field in CROSS_CHECK_FIELDS:
        dense = betti_numbers_oracle(sorted(s for s, _ in k.simplices), field)
        assert homology_ranks(k, field) == dense == expected[field.p]
        assert tuple(betti_at(k, 0.0, d, field) for d in (0, 1, 2)) == dense


# ---------------------------------- cohomology engine against homology oracle

_GRID = st.integers(0, 4).map(lambda k: k / 2)


@st.composite
def _closed_simplex_sets(draw, max_vertices=6):
    """A face-closed simplex set of dimension up to 3 on a few vertices."""
    n = draw(st.integers(1, max_vertices))
    candidates = [s for size in range(2, 5) for s in combinations(range(n), size)]
    chosen = draw(st.lists(st.sampled_from(candidates), max_size=10)) if candidates else []
    closure = {(v,) for v in range(n)}
    for s in chosen:
        closure.update(f for size in range(1, len(s) + 1) for f in combinations(s, size))
    return sorted(closure, key=lambda s: (len(s), s))


@st.composite
def _tied_filtrations(draw):
    """Values on a half-integer grid, each simplex at or above its faces, so
    values tie within and across dimensions; listed in a drawn order."""
    values = {}
    for s in draw(_closed_simplex_sets()):
        faces = combinations(s, len(s) - 1) if len(s) > 1 else ()
        values[s] = max((values[f] for f in faces), default=0.0) + draw(_GRID)
    return FilteredComplex(draw(st.permutations(list(values.items()))))


@st.composite
def _lower_star_filtrations(draw):
    simplices = draw(_closed_simplex_sets())
    vertices = [s[0] for s in simplices if len(s) == 1]
    return lower_star({v: draw(_GRID) for v in vertices}, simplices)


def _assert_engine_matches_oracles(k, field):
    assert compute_persistence(k, field) == persistence_oracle(k, field)
    for t in (-math.inf, *k.values(), math.inf):
        for d in range(-1, 4):
            assert betti_at(k, t, d, field) == betti_oracle_at(k, t, d, field), (t, d)
    chi = [sum((-1) ** (len(s) - 1) for s in sublevel(k, t)) for t in k.values()]
    assert euler_profile(k) == tuple(zip(k.values(), chi))


@settings(max_examples=60, deadline=None)
@given(_tied_filtrations(), st.sampled_from(CROSS_CHECK_FIELDS))
def test_persistence_matches_homology_oracle_with_ties(k, field):
    _assert_engine_matches_oracles(k, field)


@settings(max_examples=60, deadline=None)
@given(_lower_star_filtrations(), st.sampled_from(CROSS_CHECK_FIELDS))
def test_persistence_matches_homology_oracle_on_lower_star(k, field):
    _assert_engine_matches_oracles(k, field)


_COMPLEXES = {
    "closed": lambda rng: FilteredComplex(random_closed_entries(rng, rng.randint(0, 5), rng.randint(1, 3), rng.randint(0, 3))),
    "rips": lambda rng: random_rips(rng, rng.randint(1, 3), ties=rng.random() < 0.5),
    "grid": lambda rng: grid_lower_star(rng, n=rng.randint(2, 6)),
}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_COMPLEXES)), st.sampled_from(CROSS_CHECK_FIELDS))
def test_persistence_diagram_is_the_diagram_of_the_barcode(seed, kind, field):
    # the closed entries tie -0.0 with 0.0, which repr and the .dgm text tell apart
    k = _COMPLEXES[kind](random.Random(seed))
    expected = diagram_of(compute_persistence(k, field))
    diagram = persistence_diagram(k, field)
    assert repr(diagram) == repr(expected)
    assert format_diagram(diagram) == format_diagram(expected)
    assert all(type(x) is ExtendedReal for d in diagram.degrees() for pt, _ in diagram.items(d) for x in pt)
    assert diagram == expected


@pytest.mark.parametrize("signs, point", [((0.0, -0.0), "(-0.0, 1.0)x2"), ((-0.0, 0.0), "(0.0, 1.0)x2")])
def test_persistence_diagram_keeps_the_first_key_of_each_point(signs, point):
    # vertices 1 and 2 die at 1.0; the pairs are listed by descending birth
    # position, so vertex 2's zero is the first key and gives the point its sign
    k = FilteredComplex([((0,), 0.0), ((1,), signs[0]), ((2,), signs[1]), ((0, 1), 1.0), ((1, 2), 1.0)])
    expected = f"PersistenceDiagram(0: {{{point}, (0.0, inf)}})"
    assert repr(persistence_diagram(k)) == repr(diagram_of(compute_persistence(k))) == expected


def test_persistence_matches_homology_oracle_on_projective_plane():
    # torsion: the pairing itself differs between F2 and the odd fields
    rng = random.Random(2)
    plane = projective_plane()
    vertices = {v: rng.choice([0.0, 0.5, 1.0]) for v in range(6)}
    k = lower_star(vertices, [s for s, _ in plane.simplices])
    for field in CROSS_CHECK_FIELDS:
        _assert_engine_matches_oracles(plane, field)
        _assert_engine_matches_oracles(k, field)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3)), st.booleans(), st.sampled_from(CROSS_CHECK_FIELDS))
def test_persistence_matches_homology_oracle_on_rips(seed, max_dim, ties, field):
    # Rips complexes are mostly apparent pairs, so lazily built partner columns are common here
    _assert_engine_matches_oracles(random_rips(random.Random(seed), max_dim, ties), field)


def _paired_before_elimination(k):
    """By brute force over the canonical order: the apparent pairs of
    dimension >= 1 (earliest cofacet and latest facet of each other) and
    the edges that join two components, each simplex's cofacets, and the
    order itself."""
    order = [s for s, _ in k.sorted_simplices()]
    index = {s: i for i, s in enumerate(order)}
    cofacets = [[] for _ in order]
    for i, s in enumerate(order):
        for f in facets(s):
            cofacets[index[f]].append(i)
    apparent = {j: min(cofacets[j]) for j, s in enumerate(order) if len(s) > 1 and cofacets[j]}
    apparent = {j: c for j, c in apparent.items() if max(map(index.__getitem__, facets(order[c]))) == j}
    label, merging = {}, set()
    for j, s in enumerate(order):
        if len(s) == 1:
            label[s[0]] = s[0]
        elif len(s) == 2 and label[s[0]] != label[s[1]]:
            merging.add(j)
            old = label[s[1]]
            label = {v: label[s[0]] if c == old else c for v, c in label.items()}
    return apparent, merging, cofacets, order


def _record_columns(monkeypatch):
    built = []

    def column(*args):
        col = build(*args)
        built.append((args[2], dict(col)))  # a copy: the reduction edits its columns in place
        return col

    build = pershom.filtration._column
    monkeypatch.setattr(pershom.filtration, "_column", column)
    return built


def test_only_columns_left_after_apparent_pairs_and_union_find_are_built(monkeypatch):
    k = random_rips(random.Random(5), 2, ties=True)  # a 2-skeleton: no column is cleared by elimination
    apparent, merging, cofacets, order = _paired_before_elimination(k)
    paired = set(apparent) | set(apparent.values()) | merging
    expected = [j for j, s in enumerate(order) if len(s) > 1 and j not in paired and cofacets[j]]
    expected_barcode = persistence_oracle(k, GF2)
    built = _record_columns(monkeypatch)
    assert compute_persistence(k, GF2) == expected_barcode
    assert all(len(order[j]) > 1 for j, _ in built)  # degree 0 builds no column
    eliminated = [j for j, _ in built if j not in apparent]
    lazy = [j for j, _ in built if j in apparent]
    assert sorted(eliminated) == expected and len(expected) == 4
    assert len(set(lazy)) == len(lazy) == 3  # each partner column is built once, though one is met twice


def test_f3_elimination_negates_a_lazily_built_column_with_pivot_minus_one(monkeypatch):
    k = random_rips(random.Random(4), 2, ties=True)
    apparent = _paired_before_elimination(k)[0]
    expected_barcode = persistence_oracle(k, GF3)
    built = _record_columns(monkeypatch)
    assert compute_persistence(k, GF3) == expected_barcode
    lazy = [col for j, col in built if j in apparent]
    assert lazy and all(col[min(col)] == GF3.p - 1 for col in lazy)


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
