"""Text-format round trips and parse errors."""

import math

import pytest

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
        assert ExtendedReal.parse(str(ExtendedReal(x))) == ExtendedReal(x)


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
