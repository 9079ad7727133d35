"""Text-format round trips and parse errors."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pershom import Barcode, Interval, PersistenceDiagram
from pershom.io import (
    FormatError,
    format_barcode,
    format_diagram,
    parse_barcode,
    parse_cover,
    parse_diagram,
    parse_filtration,
    read_csv_samples,
    read_distance_matrix,
    read_barcode,
    read_diagram,
    write_barcode,
    write_diagram,
)


def test_barcode_round_trip(tmp_path):
    b = Barcode(
        [
            (0, Interval.closed_open(0.1, 2.0)),
            (0, Interval.closed_open(0.1, 2.0)),
            (1, Interval.open_open(-math.inf, 3.0)),
            (2, Interval.singleton(5.0)),
            (-1, Interval.closed_open(0.0, math.inf)),
        ]
    )
    path = tmp_path / "bars.bar"
    write_barcode(path, b)
    assert read_barcode(path) == b


def test_barcode_text_form():
    text = "# persistence bars\n0 [0,1)\n\n1 (-inf,inf)  # essential\n"
    b = parse_barcode(text)
    assert b == Barcode(
        [(0, Interval.closed_open(0, 1)), (1, Interval.open_open(-math.inf, math.inf))]
    )
    assert format_barcode(b) == "0 [0.0,1.0)\n1 (-inf,inf)\n"


def test_barcode_parse_errors():
    with pytest.raises(FormatError):
        parse_barcode("0 0,1")  # missing brackets
    with pytest.raises(FormatError):
        parse_barcode("0 [inf,1)")  # closed endpoint cannot be infinite
    with pytest.raises(FormatError):
        parse_barcode("0 [2,1)")  # out of order


def test_diagram_round_trip(tmp_path):
    d = PersistenceDiagram({0: {(0.25, 1.5): 2, (0.0, math.inf): 1}, 3: {(-math.inf, 0.0): 1}})
    path = tmp_path / "points.dgm"
    write_diagram(path, d)
    assert read_diagram(path) == d
    assert "0 0.0 inf 1" in format_diagram(d)


def test_diagram_parse_merges_repeated_lines():
    d = parse_diagram("0 0 1 1\n0 0 1 2\n")
    assert d.multiplicity(0, (0, 1)) == 3


def test_diagram_parse_errors():
    with pytest.raises(FormatError):
        parse_diagram("0 0 1")  # missing multiplicity
    with pytest.raises(FormatError):
        parse_diagram("0 1 1 1")  # p < q violated
    with pytest.raises(FormatError):
        parse_diagram("0 0 1 0")  # zero multiplicity


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 nan 2 1", "cannot be NaN"),
        ("1 0 nan 1", "cannot be NaN"),
        ("1 2 1 1", r"requires p < q, got \(2.0, 1.0\)"),
        ("1 0.5 0.5 1", "requires p < q"),
        ("1 inf inf 1", r"birth coordinate cannot be \+inf"),
        ("1 -inf -inf 1", "death coordinate cannot be -inf"),
        ("1 0 1 0", "multiplicity must be >= 1"),
    ],
)
def test_diagram_parse_locates_each_bad_point(line, message):
    with pytest.raises(FormatError, match=message) as err:
        parse_diagram("0 0 1 2\n# a comment\n\n" + line + "\n0 1 2 1\n", source="d.dgm")
    assert err.value.lineno == 4
    assert str(err.value).startswith("d.dgm:4: ")


def test_diagram_parse_builds_each_point_once(monkeypatch):
    import pershom.diagram
    import pershom.io

    made = []

    class Counted(pershom.diagram.DiagramPoint):
        __slots__ = ()

        def __new__(cls, p, q):
            made.append((p, q))
            return super().__new__(cls, p, q)

    monkeypatch.setattr(pershom.io, "DiagramPoint", Counted)
    monkeypatch.setattr(pershom.diagram, "DiagramPoint", Counted)
    diagram = parse_diagram("0 0 1 2\n0 0 1 1\n1 -inf inf 1\n0 0.5 inf 3\n")
    assert len(made) == 4  # one per line; the diagram keeps them as they are
    assert [list(diagram.items(d)) for d in diagram.degrees()] == [
        [((0.0, 1.0), 3), ((0.5, math.inf), 3)],
        [((-math.inf, math.inf), 1)],
    ]


def test_filtration_parse_and_sorting():
    k = parse_filtration("simplex 0.0 0\nsimplex 0.0 1\nsimplex 1.0 1 0\n")
    assert ((0, 1), 1.0) in k.simplices
    with pytest.raises(FormatError):
        parse_filtration("face 0.0 0")
    with pytest.raises(FormatError):
        parse_filtration("simplex 0.0 -1")


def test_filtration_repeated_vertex_is_located():
    text = "simplex 0.0 0\nsimplex 0.0 1\n# comment\nsimplex 0.5 0 1 1\n"
    with pytest.raises(FormatError, match="repeated vertex") as err:
        parse_filtration(text, source="x.flt")
    assert err.value.lineno == 4
    assert str(err.value).startswith("x.flt:4: ")


def test_filtration_nan_value_is_located():
    text = "simplex 0.0 0\nsimplex nan 1\n"
    with pytest.raises(FormatError, match=r"simplex \(1,\) has a NaN filtration value") as err:
        parse_filtration(text, source="x.flt")
    assert err.value.lineno == 2


@pytest.mark.parametrize("token", ["inf", "-inf", "+inf", "nan"])
def test_filtration_non_finite_value_is_located(token):
    text = f"simplex 0.0 0\n# comment\nsimplex {token} 1\n"
    with pytest.raises(FormatError, match=r"simplex \(1,\) has an? (NaN|infinite) filtration value") as err:
        parse_filtration(text, source="x.flt")
    assert err.value.lineno == 3
    assert str(err.value).startswith("x.flt:3: ")


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("simplex 0 0\nsimplex 0 1\nsimplex 1 0\n", 3, "duplicate simplex"),
        ("simplex 0 0\nsimplex 1 0 1\nsimplex 0 2\n", 2, "missing its face"),
        ("simplex 0 0\nsimplex 0.7 1\n\nsimplex 0.5 0 1\nsimplex 2 0 2\n", 4, "later-born face"),
    ],
)
def test_filtration_structural_defect_is_located_at_its_simplex(text, lineno, message):
    with pytest.raises(FormatError, match=message) as err:
        parse_filtration(text, source="x.flt")
    assert err.value.lineno == lineno
    assert str(err.value).startswith(f"x.flt:{lineno}: ")


def test_cover_parsing():
    cover = parse_cover("ground 1 2 3 4\nset A 1 2\nset B 2 3\n")
    assert cover.ground == frozenset([1, 2, 3, 4])
    assert cover.sets[0] == ("A", frozenset([1, 2]))
    # ground defaults to the union
    cover = parse_cover("set A 1 2\nset B 5\n")
    assert cover.ground == frozenset([1, 2, 5])
    with pytest.raises(FormatError):
        parse_cover("set A 1\nground 1 2")  # ground must come first


def test_round_trips_are_bit_exact_on_random_values():
    import math
    import random

    from pershom import diagram_of
    from helpers import random_diagram, random_filtered_complex
    from pershom.io import format_filtration, parse_filtration

    rng = random.Random(1234)
    for _ in range(25):
        diagram = random_diagram(rng, max_points=20, neg_inf_rate=0.1)
        assert parse_diagram(format_diagram(diagram)) == diagram
        k = random_filtered_complex(rng)
        assert parse_filtration(format_filtration(k)).simplices == k.simplices
        barcode = Barcode(
            [
                (rng.randint(-2, 3), Interval.closed_open(rng.uniform(-1e3, 1e3), math.inf))
                for _ in range(rng.randint(0, 6))
            ]
        )
        assert parse_barcode(format_barcode(barcode)) == barcode


def test_extended_real_text_round_trip_extremes():
    from pershom import ExtendedReal

    for x in (1e-308, 5e-324, 1e308, -0.0, 1 / 3, math.pi):
        assert ExtendedReal(str(ExtendedReal(x))) == ExtendedReal(x)
        point = parse_diagram(f"0 {x!r} inf 1\n").items(0)
        assert [str(pt.p) for pt, _ in point] == [repr(float(x))]


def test_numeric_inputs(tmp_path):
    mat = tmp_path / "dist.txt"
    mat.write_text("0 1\n1 0\n")
    assert read_distance_matrix(mat).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1\n")
    with pytest.raises(FormatError):
        read_distance_matrix(bad)

    csv = tmp_path / "curve.csv"
    csv.write_text("1.0,0.0\n0.0,1.0\n-1.0,0.0\n0.0,-1.0\n")
    assert read_csv_samples(csv).shape == (4, 2)


@pytest.mark.parametrize(
    "reader, text, lineno, message",
    [
        (read_csv_samples, "1,0\nx,1\n", 2, "could not convert string to float: 'x'"),
        (read_csv_samples, "1,0\n# note\n\n2,1,0\n", 4, "expected 2 values as on the first row, got 3"),
        (read_csv_samples, "1,0\n1,\n", 2, "could not convert string to float: ''"),
        (read_distance_matrix, "0 1\n1 y\n", 2, "could not convert string to float: 'y'"),
        (read_distance_matrix, "0 1\n1\n", 2, "a square matrix of 2 rows needs 2 entries per row, got 1"),
        (read_distance_matrix, "0 1 2\n1 0 2\n", 1, "a square matrix of 2 rows needs 2 entries per row, got 3"),
    ],
)
def test_numeric_inputs_locate_their_defects(tmp_path, reader, text, lineno, message):
    path = tmp_path / "in.txt"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        reader(path)
    assert err.value.lineno == lineno
    assert str(err.value) == f"{path}:{lineno}: {message}"


@pytest.mark.parametrize("reader", [read_csv_samples, read_distance_matrix])
def test_numeric_inputs_without_rows_are_reported_at_line_0(tmp_path, reader):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n\n")
    with pytest.raises(FormatError, match=r"empty\.txt:0: expected .* got no rows"):
        reader(path)


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("ground 1 2\nset A 1\nset A 2\nset B 7\n", 3, "duplicate cover set id 'A'"),
        ("ground 1 2\nset A 1\n\nset B 7\nset B 1\n", 4, "cover set 'B' is not contained in the ground set"),
        ("ground 1\n# c\nset A 1\nset A 1\nset A 1\n", 4, "duplicate cover set id 'A'"),
    ],
)
def test_cover_defects_are_located_at_the_first_defective_set(text, lineno, message):
    with pytest.raises(FormatError) as err:
        parse_cover(text, source="x.cov")
    assert err.value.lineno == lineno
    assert str(err.value) == f"x.cov:{lineno}: {message}"


def test_cover_set_error_names_the_set():
    from pershom import Cover, CoverSetError

    with pytest.raises(CoverSetError) as err:
        Cover([("A", [1]), ("B", [9]), ("A", [2])], ground=[1, 2])
    assert (err.value.index, err.value.name) == (1, "B")


# ------------------------------------------------------------- text fuzzing
#
# Every parser either returns its object or raises a FormatError located at
# a line of the input; only a numeric file without content lines is
# reported at line 0.

_NUMBERS = ["0", "1", "2", "3", "7", "-1", "0.5", "2.5", "1e999", "nan", "inf", "-inf", "x", "1_0", ""]
_NUMBER = st.sampled_from(_NUMBERS)
_WORD = st.sampled_from(["simplex", "set", "ground", "A", "B", "#", "# x"] + _NUMBERS)


def _texts(line):
    return st.lists(st.one_of(line, st.lists(_WORD, max_size=5).map(" ".join)), max_size=8).map("\n".join)


def _has_content(text: str) -> bool:
    return any(raw.split("#", 1)[0].strip() for raw in text.splitlines())


def _assert_located(err: FormatError, text: str):
    assert 1 <= err.lineno <= len(text.splitlines()), (err, text)


_FLT_LINE = st.tuples(_NUMBER, st.lists(st.sampled_from(["0", "1", "2", "3"]), min_size=1, max_size=3)).map(
    lambda parts: f"simplex {parts[0]} {' '.join(parts[1])}"
)
_COV_LINE = st.tuples(st.sampled_from(["set A", "set B", "set C", "ground"]), st.lists(_NUMBER, max_size=3)).map(
    lambda parts: " ".join([parts[0], *parts[1]])
)


@settings(max_examples=200, deadline=None)
@given(_texts(_FLT_LINE))
def test_fuzz_filtration_text(text):
    try:
        parse_filtration(text, source="f.flt")
    except FormatError as err:
        _assert_located(err, text)


@settings(max_examples=200, deadline=None)
@given(_texts(_COV_LINE))
def test_fuzz_cover_text(text):
    try:
        parse_cover(text, source="c.cov")
    except FormatError as err:
        _assert_located(err, text)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([(read_csv_samples, ","), (read_distance_matrix, " ")]),
    st.lists(st.lists(_NUMBER, min_size=1, max_size=3), max_size=4),
    st.lists(st.sampled_from(["", "# c", "  "]), max_size=2),
)
def test_fuzz_numeric_text(tmp_path, reader_sep, rows, extra):
    reader, sep = reader_sep
    text = "\n".join([sep.join(row) for row in rows] + extra)
    path = tmp_path / "in.txt"
    path.write_text(text)
    try:
        reader(path)
    except FormatError as err:
        if _has_content(text):
            _assert_located(err, text)
        else:
            assert err.lineno == 0
