"""Text-format round trips and parse errors."""

import math
import sys
import threading
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import pershom.io
from pershom import Barcode, ExtendedReal, Interval, PersistenceDiagram
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
        ("1 nan 2 1", "p must not be NaN, got nan"),
        ("1 0 nan 1", "q must not be NaN, got nan"),
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

    made, converted = [], []

    class Counted(pershom.diagram.DiagramPoint):
        __slots__ = ()

        def __new__(cls, p, q):
            made.append((p, q))
            return super().__new__(cls, p, q)

    wrapped = []
    real = ExtendedReal.__new__
    monkeypatch.setattr(ExtendedReal, "__new__", lambda cls, value: wrapped.append(value) or real(cls, value))
    monkeypatch.setattr(pershom.io, "float", lambda token: converted.append(token) or float(token), raising=False)
    monkeypatch.setattr(pershom.io, "DiagramPoint", Counted)
    monkeypatch.setattr(pershom.diagram, "DiagramPoint", Counted)
    diagram = parse_diagram("0 0 1 2\n0 0 1 1\n1 -inf inf 1\n0 0.5 inf 3\n")
    assert made == []  # the rule is checked over all points at once, so none is checked on its own
    assert converted == []  # numpy's C reader converts the tokens, so none goes through Python's float
    assert wrapped == []  # and no endpoint is made an ExtendedReal before a point is asked for
    assert {type(pt) for d in diagram.degrees() for pt, _ in diagram.items(d)} == {Counted}
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


def test_filtration_vertex_ids_beyond_int64():
    from pershom import compute_persistence

    k = parse_filtration("simplex 0 99999999999999999999\n")
    assert k.simplices == (((99999999999999999999,), 0.0),)
    assert [str(iv) for _, iv in compute_persistence(k)] == ["[0.0,inf)"]
    big = 2**64
    k = parse_filtration(f"simplex 0 5\nsimplex 0 {big}\nsimplex 1 {big} 5\nsimplex 0 {2**63 - 1}\n")
    assert k.sorted_simplices() == (((5,), 0.0), ((2**63 - 1,), 0.0), ((big,), 0.0), ((5, big), 1.0))
    with pytest.raises(FormatError, match=f"missing its face \\({big},\\)") as err:
        parse_filtration(f"simplex 0 5\nsimplex 1 {big} 5\n")
    assert err.value.lineno == 2


def test_filtration_keeps_signed_zeros_apart():
    text = "simplex -0.0 1\nsimplex 0.0 0\nsimplex 0 0 1\nsimplex -0 2\n"
    k = parse_filtration(text)
    assert repr(k.sorted_simplices()) == "(((0,), 0.0), ((1,), -0.0), ((2,), -0.0), ((0, 1), 0.0))"
    assert repr(k.simplices) == "(((1,), -0.0), ((0,), 0.0), ((0, 1), 0.0), ((2,), -0.0))"


def test_filtration_whitespace_line_breaks_and_comments():
    text = "# header\r\n\r\nsimplex\t0\t1\r\n  simplex 0  0 # note\x0csimplex 0.5 \t 1   0\n#\n\n"
    k = parse_filtration(text)
    assert k.simplices == (((1,), 0.0), ((0,), 0.0), ((0, 1), 0.5))
    with pytest.raises(FormatError, match="duplicate simplex") as err:
        parse_filtration("simplex 0 0\x0c# c\r\nsimplex\t0 0\n")
    assert err.value.lineno == 3  # \x0c ends a line, as \r\n does


def test_filtration_vertices_in_any_order():
    text = "simplex 0 2\nsimplex 0 0\nsimplex 0 1\nsimplex 1 1 0\nsimplex 1 2 0\nsimplex 1 2 1\nsimplex 2 2 0 1\n"
    k = parse_filtration(text)
    assert [s for s, _ in k.simplices] == [(2,), (0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    with pytest.raises(FormatError, match=r"simplex \(0, 1, 2\) is missing its face \(1, 2\)") as err:
        parse_filtration(text.replace("simplex 1 2 1\n", ""))
    assert err.value.lineno == 6


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("simplex 0 0\nsimplex 0 1 1\nsimplex x 2\nface 0 3\n", 2, "repeated vertex in [1, 1]"),
        ("simplex 0 0\nface 0 1\nsimplex 0 1 1\nsimplex 0 -2\n", 2,
         "expected 'simplex <value> <v0> [v1 ...]', got 'face 0 1'"),
        ("simplex 0 0\nsimplex 0\nsimplex x 2\n", 2, "expected 'simplex <value> <v0> [v1 ...]', got 'simplex 0'"),
        ("simplex 0 0\nsimplex x 2\nsimplex 0 -1\n", 2, "could not convert string to float: 'x'"),
        ("simplex 0 0\nsimplex 0 -1\nsimplex 0 y\n", 2, "vertex ids must be nonnegative"),
        ("simplex 0 0\nsimplex 0 y\nsimplex 0 0 0\n", 2, "invalid literal for int() with base 10: 'y'"),
        ("simplex 1 0 1\nsimplex nan 2\nsimplex 0 3 3\n", 3, "repeated vertex in [3, 3]"),  # rows come first
        ("simplex 0 0\nsimplex 1 0 1\nsimplex nan 2\nsimplex 1 0 3\n", 3, "simplex (2,) has a NaN filtration value"),
        ("simplex 0 0\nsimplex 0 1\nsimplex 1 0 3\nsimplex 1 1 2\n", 3, "simplex (0, 3) is missing its face (3,)"),
        ("simplex 0 0\nsimplex 2 0 1\nsimplex 0 1\nsimplex 1 0 2\nsimplex 0 0 1\n", 5,
         "duplicate simplex (0, 1)"),  # at its last line, and before the missing face (2,) of line 4
        ("simplex 0 -1\nsimplex\xa00 1\n", 1, "vertex ids must be nonnegative"),  # before a non-ASCII line
    ],
)
def test_filtration_reports_the_first_defect(text, lineno, message):
    with pytest.raises(FormatError) as err:
        parse_filtration(text, source="x.flt")
    assert str(err.value) == f"x.flt:{lineno}: {message}"


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
        assert ExtendedReal(float(str(ExtendedReal(x)))) == ExtendedReal(x)
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
        (read_csv_samples, "1,0\n0,1\nnan,0\n", 3, "entry 1 must be finite, got nan"),
        (read_csv_samples, "1,0\n# note\n0,-inf\n", 3, "entry 2 must be finite, got -inf"),
        (read_csv_samples, "1,0\n1e999,0\n", 2, "entry 1 must be finite, got inf"),
        (read_distance_matrix, "0 1\n1 y\n", 2, "could not convert string to float: 'y'"),
        (read_distance_matrix, "0 1\n1\n", 2, "a square matrix of 2 rows needs 2 entries per row, got 1"),
        (read_distance_matrix, "0 1 2\n1 0 2\n", 1, "a square matrix of 2 rows needs 2 entries per row, got 3"),
        (read_distance_matrix, "0 1\n# note\n1 nan\n", 3, "entry 2 must not be NaN, got nan"),
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


# integers that numpy's C reader refuses as int64 and Python's int reads, or refuses too
_DGM_PER_LINE_INTS = ["9223372036854775808", "1180591620717411303424", "1_0", "1.0"]
_DGM_LINE = st.tuples(
    st.sampled_from(["0", "1", "-1", "x"] + _DGM_PER_LINE_INTS), _NUMBER, _NUMBER,
    st.sampled_from(["1", "2", "0", "-1", "x"] + _DGM_PER_LINE_INTS),
).map(" ".join)
_BAR_LINE = st.tuples(
    st.sampled_from(["0", "1", "-1", "x"]), st.sampled_from("[("), _NUMBER, _NUMBER, st.sampled_from(")]")
).map(lambda parts: "{} {}{},{}{}".format(*parts))


@settings(max_examples=150, deadline=None)
@given(_texts(_DGM_LINE))
def test_fuzz_diagram_text(text):
    try:
        assert isinstance(parse_diagram(text, source="d.dgm"), PersistenceDiagram)
    except FormatError as err:
        _assert_located(err, text)


@settings(max_examples=150, deadline=None)
@given(_texts(_BAR_LINE))
def test_fuzz_barcode_text(text):
    try:
        assert isinstance(parse_barcode(text, source="b.bar"), Barcode)
    except FormatError as err:
        _assert_located(err, text)


def _cli_commands(kind: str, path: str, out: str):
    if kind == "flt":
        return [["compute", "--input", path, "--field", "3", "--output", out]]
    if kind == "dgm":
        return [["caps", "--dgm", path, "--epsilon", "0.5"], ["morse", "--dgm", path, "--epsilon", "0.5",
                "--max-degree", "2"], ["bottleneck", path, path, "--degree", "0"]]
    return [["dowker", "--cover", path, "--field", "2"]]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(*(_texts(line).map(lambda text, kind=kind: (kind, text))
                   for kind, line in (("flt", _FLT_LINE), ("dgm", _DGM_LINE), ("cov", _COV_LINE)))))
@example(kind_text=("dgm", "9223372036854775808 -1 0 1"))  # caps lists degrees up to the top degree + 1
def test_fuzz_cli_exit_codes(tmp_path, capsys, kind_text):
    from pershom.cli import main

    kind, text = kind_text
    path = tmp_path / f"in.{kind}"
    path.write_text(text)
    for argv in _cli_commands(kind, str(path), str(tmp_path / "out.dgm")):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, text)
        assert "Traceback" not in out + err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (err, text)


# --------------------------------------------- bulk .flt reader against the per-line one

_IDS = ["0", "1", "2", "3", "01", "9223372036854775807", "9223372036854775808", "99999999999999999999"]
_FINITE = ["-0.0", "0.0", "-0", "0", "0.5", "1", "2.5", "1e1", "0.5000000000000000000000000000000000001"]
_DEFECTS = ["drop", "repeat-row", "raise", "nan", "inf", "repeat-vertex", "negative", "head", "short", "token",
            "control"]


@st.composite
def _flt_documents(draw):
    """A face-closed monotone complex over a few ids, small and beyond int64,
    written with shuffled rows and vertices, tabs, comments, blank lines and
    mixed line breaks, then given up to two defects."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=4, unique_by=int))
    tops = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True), min_size=1, max_size=3))
    value_of = {}
    for size in range(1, 5):
        for top in tops:
            for face in combinations(top, size) if size <= len(top) else ():
                key = frozenset(face)
                if key not in value_of:
                    token = draw(st.sampled_from(_FINITE))
                    below = [value_of[key - {v}] for v in key] if size > 1 else []
                    value_of[key] = max([token] + below, key=float)
    rows = [["simplex", value, *draw(st.permutations(sorted(key)))] for key, value in value_of.items()]
    rows = draw(st.permutations(rows))
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)):
        if not rows:
            break
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        if defect == "drop":
            del rows[k]
        elif defect == "repeat-row":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        else:
            rows[k] = {"raise": ["simplex", "9", *row[2:]], "nan": ["simplex", "nan", *row[2:]],
                       "inf": ["simplex", "-inf", *row[2:]], "repeat-vertex": row + row[-1:],
                       "negative": row + ["-1"], "head": ["Simplex", *row[1:]], "short": row[:2],
                       "token": row + ["x"],
                       "control": ["simplex", row[1] + "\x1b", *row[2:-1], row[-1] + "\x01"]}[defect]
    lines = [draw(st.sampled_from([" ", "\t", "  ", " \t"])).join(row) for row in rows]
    lines = [line + draw(st.sampled_from(["", "", " # c", "#", "\t"])) for line in lines]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# only a comment", "  "])))
    return "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\x0c"])) for line in lines)


def _read_with(parse, text):
    try:
        k = parse(text, source="f.flt")
    except FormatError as err:
        return err.lineno, str(err)
    table = [(str(part.dtype), part.tobytes()) for part in k._table]
    return repr(k.simplices), repr(k.sorted_simplices()), table


@settings(max_examples=250, deadline=None)
@given(st.one_of(_texts(_FLT_LINE), _flt_documents()), st.sampled_from([1, 2, 7, 64, None]))
def test_bulk_filtration_reader_matches_the_per_line_one(text, chunk):
    import pershom.io
    from helpers import parse_filtration_oracle

    default = pershom.io._CHUNK  # characters lexed at a time, None for the default
    pershom.io._CHUNK = chunk or default
    try:
        assert _read_with(parse_filtration, text) == _read_with(parse_filtration_oracle, text)
    finally:
        pershom.io._CHUNK = default


@pytest.mark.parametrize("text", [  # a valid text, a repeated vertex, a duplicate simplex
    "# head\r\nsimplex 0 0\r\nsimplex\t0 1 # c\x0csimplex 1 1 0\nsimplex 0 2\x0b\n\nsimplex 2 2 0\r\n"
    "simplex 2 1 2 #\x1csimplex 3 0 1 2",
    "simplex 0 0\r\nsimplex 0 1\x0csimplex 1 1 0\r\nsimplex 1 1 1\n",
    "simplex 0 0\r\nsimplex 0 1\x0c\x0csimplex 1 1 0\r\nsimplex 1 0 1\n",
])
def test_filtration_reader_cut_at_every_character(monkeypatch, text):
    import pershom.io
    from helpers import parse_filtration_oracle

    expected = _read_with(parse_filtration_oracle, text)
    for chunk in range(1, len(text) + 2):  # nominal cuts inside lines, between "\r" and "\n", after "\x0c"
        monkeypatch.setattr(pershom.io, "_CHUNK", chunk)
        pieces = list(pershom.io._chunks(text))
        assert b"".join(pieces) == pershom.io._COMMENT.sub("", text).encode()
        assert all(piece[-1] in b"\n\r\x0b\x0c\x1c\x1d\x1e" for piece in pieces[:-1])  # an ASCII line break
        assert _read_with(parse_filtration, text) == expected


def test_bulk_filtration_reader_across_blocks():
    import random

    import pershom.io
    from helpers import parse_filtration_oracle, random_closed_entries

    rng = random.Random(11)
    entries = random_closed_entries(rng, max_dim=11, extra_vertices=3) + [((2**64,), 0.5)]
    lines = [f"simplex {t!r} {' '.join(map(str, rng.sample(s, len(s))))}" for s, t in entries]
    text = "\n".join(lines) + "\n"
    assert len(list(pershom.io._chunks(text))) >= 3  # pieces of the default size
    assert _read_with(parse_filtration, text) == _read_with(parse_filtration_oracle, text)
    assert len(parse_filtration(text)) == len(entries)
    n = len(lines)
    for k, line in [(n // 5, "simplex 0 1 1"), (n // 2, "simplex 0 -5"), (4 * n // 5, lines[5])]:
        broken = "\n".join(lines[:k] + [line] + lines[k:])
        assert _read_with(parse_filtration, broken) == _read_with(parse_filtration_oracle, broken)
        assert _read_with(parse_filtration, broken)[0] == k + 1


@pytest.mark.parametrize("text, lineno, char", [
    ("simplex 0 0\nsimplex\xa00 1\n", 2, "\xa0"),  # a separator to str.split
    ("simplex 0 0\nsimplex 0 1\u2028simplex 0 2\n", 2, "\u2028"),  # a line break to str.splitlines
    ("simplex 0 0\n# c\nsimplex 0 \u0663\n", 3, "\u0663"),  # an id to int
    ("simplex 0 0 # \xe9\nsimplex 0\t\u0661\r\nsimplex \u0662 2\n", 2, "\u0661"),
])
def test_filtration_refuses_non_ascii_outside_comments(text, lineno, char):
    with pytest.raises(FormatError) as err:
        parse_filtration(text, source="x.flt")
    assert str(err.value) == f"x.flt:{lineno}: non-ASCII character {char!r} (U+{ord(char):04X}) outside a comment"


def test_filtration_accepts_non_ascii_comments():
    # a comment runs to the next ASCII line break, so U+2028 and U+2029 do not end it
    text = "# Gr\xf6\xdfe \u2028simplex 0 9\nsimplex 0 0 # na\xefve \xa0\u0663\nsimplex 0 1\r\nsimplex 1 0 1 #\u2029 x\n"
    assert parse_filtration(text).simplices == (((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0))
    with pytest.raises(FormatError, match="missing its face") as err:
        parse_filtration(text + "simplex 2 0 2 # \u0663\n", source="x.flt")
    assert err.value.lineno == 5


# --------------------------------------------- one text rule for every reader


def _read_text(reader, text, tmp_path):
    if reader in (read_csv_samples, read_distance_matrix):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        return reader(path).tolist()
    read = reader(text, source="in.txt")
    return read.simplices if reader is parse_filtration else read


_GOOD = {  # two content lines of each format, the first with a comment at "@", the second with a " " and a "1"
    parse_barcode: ("0 [0,1) @", "1 [0.5,inf)"),
    parse_diagram: ("0 0 1 1 @", "1 0.5 inf 2"),
    parse_cover: ("set A 1 2 @", "set B 1 3"),
    parse_filtration: ("simplex 0 0 @", "simplex 0 1"),
    read_csv_samples: ("1,0 @", "0, 1"),
    read_distance_matrix: ("0 1 @", "1 0"),
}


def _lines_of(reader, comment):
    first, second = _GOOD[reader]
    return first.replace("@", comment), second


@pytest.mark.parametrize("reader", list(_GOOD), ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("char", [
    "\xa0",  # a separator to str.split
    "\u2028",  # a line break to str.splitlines
    "\u0661",  # a digit to int and float
])
def test_every_reader_refuses_non_ascii_outside_comments(tmp_path, reader, char):
    first, second = _lines_of(reader, "")
    bad = second.replace("1", char, 1) if char == "\u0661" else second.replace(" ", char, 1)
    with pytest.raises(FormatError) as err:
        _read_text(reader, f"# header\n{first}\n{bad}\n", tmp_path)
    assert err.value.lineno == 3
    assert str(err.value).endswith(f":3: non-ASCII character {char!r} (U+{ord(char):04X}) outside a comment")


@pytest.mark.parametrize("reader", list(_GOOD), ids=lambda reader: reader.__name__)
def test_every_reader_accepts_non_ascii_comments(tmp_path, reader):
    plain = _read_text(reader, "\n".join(_lines_of(reader, "")) + "\n", tmp_path)
    first, second = _lines_of(reader, "# na\xefve \xa0\u0661 \x85 x")
    # a comment runs to the next ASCII line break, so U+2028 and U+0085 do not end it
    text = "# Gr\xf6\xdfe \u2028 " + second + "\n" + first + "\r\n" + second + "\n"
    assert _read_text(reader, text, tmp_path) == plain


@pytest.mark.parametrize("reader", list(_GOOD), ids=lambda reader: reader.__name__)
def test_every_reader_ends_lines_and_comments_at_ascii_breaks(tmp_path, reader):
    plain = _read_text(reader, "\n".join(_lines_of(reader, "")) + "\n", tmp_path)
    first, second = _lines_of(reader, "# c")
    for end in ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]:
        assert _read_text(reader, first + end + second + end, tmp_path) == plain


@pytest.mark.parametrize("reader, text", [
    (parse_diagram, "0\xa00 \u0661 1\n"),
    (parse_barcode, "0 [0,\u0661)\n"),
    (parse_cover, "set A \u0661 2\n"),
    (read_distance_matrix, "0 \u0661\n\u0661\xa00\n"),
    (read_csv_samples, "\u0661,0\n"),
    (parse_cover, "set \xc4 1\n"),  # a set id too
])
def test_unicode_digits_and_separators_are_not_read(tmp_path, reader, text):
    with pytest.raises(FormatError, match=r":1: non-ASCII character .* outside a comment$"):
        _read_text(reader, text, tmp_path)


@pytest.mark.parametrize("text, lineno, message", [
    ("simplex 0 0 simplex 0 1\n", 1, "invalid literal for int() with base 10: 'simplex'"),
    ("simplex 0 0\nsimplex 0\n1\n", 2, "expected 'simplex <value> <v0> [v1 ...]', got 'simplex 0'"),
    ("simplex 0 0\x1fsimplex 0 1\n", 1, "invalid literal for int() with base 10: 'simplex'"),  # \x1f splits, no break
])
def test_filtration_rows_are_lines(text, lineno, message):
    with pytest.raises(FormatError) as err:
        parse_filtration(text, source="x.flt")
    assert str(err.value) == f"x.flt:{lineno}: {message}"


def test_filtration_ids_read_as_int_reads_them():
    from helpers import parse_filtration_oracle

    text = "simplex 0 01\nsimplex 0 1_0\nsimplex 0 +3\nsimplex 1 +3 01\nsimplex 0 000000000000000000007\n"
    k = parse_filtration(text)
    assert k.simplices == (((1,), 0.0), ((10,), 0.0), ((3,), 0.0), ((1, 3), 1.0), ((7,), 0.0))
    assert _read_with(parse_filtration, text) == _read_with(parse_filtration_oracle, text)
    for token in ["1__0", "0x1", "1.0", "3-", "_1"]:
        with pytest.raises(FormatError, match="invalid literal for int"):
            parse_filtration(f"simplex 0 {token}\n")


_VALUE_TOKENS = ["-0.0", "0.0", "-0", "0", "1_0", "10", "inf", "-inf", "1e-5", "0.1", "0.30000000000000004",
                 "12345678", "123456789", "0.12345678901234567890123456789", "9" * 32,
                 "0." + "1" * 40, "0." + "1" * 39 + "2", "-" + "0" * 40]  # the last three past _WIDTH


@pytest.mark.parametrize("mix", [
    [0, 0, 0, 0],  # every token shares one hash
    [1, 0, 0, 0],  # the tokens that share their first 8 bytes share a hash
])
def test_value_tokens_that_share_a_hash_are_read_by_text(monkeypatch, mix):
    import random

    import pershom.io

    rng = random.Random(5)
    tokens = _VALUE_TOKENS + [rng.choice(_VALUE_TOKENS) for _ in range(200)]
    data = "".join(f"simplex {token} {i}\n" for i, token in enumerate(tokens)).encode()
    plain = pershom.io._lex(data)
    assert plain[2].tobytes() == np.array([float(token) for token in tokens]).tobytes()  # -0.0 is not 0.0
    monkeypatch.setattr(pershom.io, "_MIX", np.array(mix, np.uint64))
    assert [part.tobytes() for part in pershom.io._lex(data)] == [part.tobytes() for part in plain]


def test_filtration_lexing_memory_stays_within_a_chunk(monkeypatch):
    import tracemalloc

    import pershom.io

    lex, peaks = pershom.io._lex, []

    def traced(data):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = lex(data)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(pershom.io, "_lex", traced)

    def lexing_peak(rows, end="\n"):
        text = "".join(f"simplex {i / 7!r} {i}{end}" for i in range(rows))
        del peaks[:]
        tracemalloc.start()
        try:
            assert len(parse_filtration(text)) == rows
        finally:
            tracemalloc.stop()
        return max(peaks), len(text)

    small, small_text = lexing_peak(10_000)
    for end in ["\n", "\r"]:  # a piece is cut after any ASCII line break
        large, large_text = lexing_peak(80_000, end)
        assert len(peaks) >= 10
        assert large_text > 8 * pershom.io._CHUNK > 2 * small_text
        assert large < 1.2 * small  # the same pieces, only more of them
        assert large < 32 * pershom.io._CHUNK


# --------------------------------------------- bulk .dgm reader against the per-line one

_DGM_DEGREES = ["0", "1", "2", "-1", "03"] + _DGM_PER_LINE_INTS
_DGM_ENDPOINTS = ["-0.0", "0.0", "-0", "0", "0.5", "1", "2.5", "1e1", "-inf", "inf", "-1e999", "1e999"]
_DGM_MULTS = ["1", "2", "3", "10", "01"] + _DGM_PER_LINE_INTS
_DGM_DEFECTS = ["short", "long", "degree", "nan", "swap", "equal", "inf-birth", "neg-inf-death", "mult-0",
                "mult-neg", "mult-x", "endpoint-x", "zero-copy"]


@st.composite
def _dgm_documents(draw):
    """Diagram rows with signed zeros, infinities and repeated points,
    written with tabs, comments, blank lines and mixed line breaks, then
    given up to two defects."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        p, q = sorted(draw(st.lists(st.sampled_from(_DGM_ENDPOINTS), min_size=2, max_size=2,
                                    unique_by=float)), key=float)
        rows.append([draw(st.sampled_from(_DGM_DEGREES)), p, q, draw(st.sampled_from(_DGM_MULTS))])
    for _ in range(draw(st.integers(0, 2)) if rows else 0):  # repeated points, spelled alike or not
        row = list(draw(st.sampled_from(rows)))
        row[3] = draw(st.sampled_from(_DGM_MULTS))
        rows.insert(draw(st.integers(0, len(rows))), row)
    for defect in draw(st.lists(st.sampled_from(_DGM_DEFECTS), max_size=2)) if rows else ():
        k = draw(st.integers(0, len(rows) - 1))
        d, p, q, m, *_ = rows[k] + ["1"]  # a row made short by the first defect gets a multiplicity back
        if defect == "zero-copy":  # the point's summed multiplicity stays positive
            rows.insert(draw(st.integers(0, len(rows))), [d, p, q, "0"])
            continue
        rows[k] = {"short": [d, p, q], "long": [d, p, q, m, m], "degree": ["x", p, q, m], "nan": [d, "nan", q, m],
                   "swap": [d, q, p, m], "equal": [d, p, p, m], "inf-birth": [d, "inf", q, m],
                   "neg-inf-death": [d, p, "-inf", m], "mult-0": [d, p, q, "0"], "mult-neg": [d, p, q, "-2"],
                   "mult-x": [d, p, q, "1.5"], "endpoint-x": [d, "x", q, m]}[defect]
    lines = [draw(st.sampled_from([" ", "\t", "  "])).join(row) + draw(st.sampled_from(["", "", " # c", "\t"]))
             for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# only a comment", "  "])))
    return "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\x0c"])) for line in lines)


def _read_diagram_with(parse, text):
    try:
        diagram = parse(text, source="d.dgm")
    except FormatError as err:
        return err.lineno, str(err)
    endpoints = {type(x) for d in diagram.degrees() for pt, _ in diagram.items(d) for x in pt}
    return repr(diagram), format_diagram(diagram), endpoints <= {ExtendedReal}


@settings(max_examples=300, deadline=None)
@given(st.one_of(_texts(_DGM_LINE), _dgm_documents()))
def test_bulk_diagram_reader_matches_the_per_line_one(text):
    from helpers import parse_diagram_oracle

    assert _read_diagram_with(parse_diagram, text) == _read_diagram_with(parse_diagram_oracle, text)


@pytest.mark.parametrize("text", ["", "# c\n", " \n\n"])
def test_diagram_text_without_rows_reads_as_the_empty_diagram(text):
    # numpy's reader warns on text without rows, so such text must not reach it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_diagram(text) == PersistenceDiagram()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert format_diagram(parse_diagram(text)) == ""
    assert caught == []


def test_diagram_reader_keeps_the_process_warning_filters(monkeypatch):
    # catch_warnings swaps the process-wide filter list, and concurrent calls can leave it swapped
    real, seen = np.loadtxt, []
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: seen.append(warnings.filters) or real(*args, **kwargs))
    filters, entries = warnings.filters, list(warnings.filters)
    assert parse_diagram("0 0 1 1\n").count(0) == 1
    assert len(seen) == pershom.io._BULK and all(entry is filters for entry in seen)

    def read():
        for _ in range(2000):
            parse_diagram("0 0 1 1\n1 0.5 inf 2\n")

    threads = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the reader too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert warnings.filters is filters and warnings.filters == entries


def test_diagram_reader_refuses_an_integer_that_numpy_reads_through_a_float(monkeypatch):
    def lenient(lines, dtype, **kwargs):  # as numpy from 1.23 reads 1.0 as an int64, until that expired
        pytest.fail("a numpy that reads 1.0 as an int64 must not read .dgm text")

    monkeypatch.setattr(np, "loadtxt", lenient)
    monkeypatch.setattr(pershom.io, "_BULK", False)
    with pytest.raises(FormatError, match="^d.dgm:2: invalid literal for int"):
        parse_diagram("0 0 1 1\n1.0 0 1 1\n", source="d.dgm")
