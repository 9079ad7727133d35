"""Command-line interface: every subcommand plus the exit-code contract."""

import math
import time
from pathlib import Path

import pytest

import pershom.barcode
import pershom.cli
import pershom.filtration
import pershom.morse
from pershom import Barcode, Interval, PersistenceDiagram
from pershom.cli import main
from pershom.io import read_barcode, read_diagram, write_diagram


@pytest.fixture
def flt_file(tmp_path):
    path = tmp_path / "triangle.flt"
    path.write_text(
        "# hollow triangle, all at 0\n"
        "simplex 0 0\nsimplex 0 1\nsimplex 0 2\n"
        "simplex 0 0 1\nsimplex 0 0 2\nsimplex 0 1 2\n"
    )
    return path


def test_compute_writes_diagram(tmp_path, flt_file, capsys):
    out = tmp_path / "out.dgm"
    assert main(["compute", "--input", str(flt_file), "--field", "2", "--output", str(out)]) == 0
    diagram = read_diagram(out)
    assert diagram == PersistenceDiagram({0: [(0, math.inf)], 1: [(0, math.inf)]})
    assert str(out) in capsys.readouterr().out


def test_compute_rejects_bad_filtration(tmp_path, capsys):
    bad = tmp_path / "bad.flt"
    bad.write_text("simplex 0 0 1\n")  # edge without vertices
    out = tmp_path / "out.dgm"
    assert main(["compute", "--input", str(bad), "--output", str(out)]) == 1
    assert "error" in capsys.readouterr().err


def test_compute_rejects_nan_value_at_its_line(tmp_path, capsys):
    bad = tmp_path / "nan.flt"
    bad.write_text("simplex 0 0\nsimplex nan 1\n")
    out = tmp_path / "out.dgm"
    assert main(["compute", "--input", str(bad), "--output", str(out)]) == 1
    assert f"error: {bad}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("token", ["inf", "-inf"])
def test_compute_rejects_infinite_value_at_its_line(tmp_path, capsys, token):
    bad = tmp_path / "inf.flt"
    bad.write_text(f"simplex 0 0\nsimplex {token} 1\n")
    out = tmp_path / "out.dgm"
    assert main(["compute", "--input", str(bad), "--output", str(out)]) == 1
    assert f"error: {bad}:2: simplex (1,) has an infinite filtration value" in capsys.readouterr().err
    assert not out.exists()


def test_compute_locates_a_missing_face(tmp_path, capsys):
    bad = tmp_path / "bad.flt"
    bad.write_text("simplex 0 0\nsimplex 0 1\nsimplex 1 0 2\n")
    assert main(["compute", "--input", str(bad), "--output", str(tmp_path / "out.dgm")]) == 1
    assert f"error: {bad}:3: simplex (0, 2) is missing its face (2,)" in capsys.readouterr().err


def test_compute_accepts_vertex_ids_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.flt"
    path.write_text("simplex 0 99999999999999999999\n")
    out = tmp_path / "out.dgm"
    assert main(["compute", "--input", str(path), "--output", str(out)]) == 0
    assert out.read_text() == "0 0.0 inf 1\n"
    assert capsys.readouterr().err == ""


def test_compute_keeps_the_error_lines_of_the_defective_bench_inputs(tmp_path, monkeypatch, capsys):
    """The two defective files of the benchmark's seed-1 `compute-rips2-f2`
    schedule: its first 22 files, written with the generator's own random
    stream, as `bench/gen.py` writes them for that workload."""
    import numpy as np

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import gen

    rng = np.random.default_rng([1, gen.WORKLOADS.index("compute-rips2-f2")])
    jobs = gen._compute_jobs(rng, tmp_path, gen.FULL["rips2"][:22], 2, 2, True, gen.FULL["rips2_invalid"])
    expected = {
        "rips2_03_n107.flt": "610: simplex (8, 41, 43) has a later-born face (41, 43)",
        "rips2_21_n160.flt": "1456: simplex (9, 36, 153) is missing its face (9, 153)",
    }
    assert [job["input"] for job in jobs if "invalid" in job] == list(expected)
    for name, message in expected.items():
        path = tmp_path / name
        for field in ("2", "3"):
            assert main(["compute", "--input", str(path), "--field", field, "--output", str(tmp_path / "o.dgm")]) == 1
            assert capsys.readouterr() == ("", f"error: {path}:{message}\n")


def test_compute_rejects_composite_field(tmp_path, flt_file):
    out = tmp_path / "out.dgm"
    assert main(["compute", "--input", str(flt_file), "--field", "6", "--output", str(out)]) == 1


def test_caps_single_degree(tmp_path, capsys):
    dgm = tmp_path / "d.dgm"
    write_diagram(dgm, PersistenceDiagram({0: [(0, math.inf), (1, 2)], 1: [(3, 4)]}))
    assert main(["caps", "--dgm", str(dgm), "--epsilon", "0.5", "--degree", "1"]) == 0
    assert capsys.readouterr().out == "1 2\n"
    assert main(["caps", "--dgm", str(dgm), "--epsilon", "0.5", "--degree", "1", "--at", "3"]) == 0
    assert capsys.readouterr().out == "1 1\n"


def test_caps_all_degrees(tmp_path, capsys):
    dgm = tmp_path / "d.dgm"
    write_diagram(dgm, PersistenceDiagram({0: [(0, math.inf), (1, 2)], 1: [(3, 4)]}))
    assert main(["caps", "--dgm", str(dgm), "--epsilon", "0.5"]) == 0
    assert capsys.readouterr().out == "0 2\n1 2\n2 1\n"


def test_caps_lists_degrees_up_to_the_morse_degree_limit(tmp_path, capsys, monkeypatch):
    # unbounded, a top degree of 100,000 took 1.4 s, and one beyond int64 ended in an OverflowError
    limit = pershom.morse.MORSE_DEGREE_LIMIT
    dgm = tmp_path / "d.dgm"
    dgm.write_text(f"{limit - 1} 0 1 1\n")
    assert main(["caps", "--dgm", str(dgm), "--epsilon", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [str(d) for d in range(limit + 1)]
    assert lines[-3:] == [f"{limit - 2} 0", f"{limit - 1} 1", f"{limit} 1"]

    monkeypatch.setattr(pershom.cli, "cap_number", lambda *args: pytest.fail("cap_number called"))
    dgm.write_text(f"{limit} 0 1 1\n")
    assert main(["caps", "--dgm", str(dgm), "--epsilon", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: listing degrees 0 to {limit + 1} is over {limit}; use --degree\n"


def test_morse_report_and_exit_codes(tmp_path, capsys):
    dgm = tmp_path / "d.dgm"
    write_diagram(dgm, PersistenceDiagram({0: [(0, math.inf), (1, 2)], 1: [(3, 4)]}))
    assert main(["morse", "--dgm", str(dgm), "--epsilon", "0.5", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "m_eps" in out and "partial_sum" in out

    bad = tmp_path / "bad.dgm"
    write_diagram(bad, PersistenceDiagram({0: [(-math.inf, 1)]}))
    assert main(["morse", "--dgm", str(bad), "--epsilon", "0.5", "--max-degree", "2"]) == 2
    assert "-inf" in capsys.readouterr().err

    assert main(["morse", "--dgm", str(dgm), "--epsilon", "-1", "--max-degree", "2"]) == 1


def test_morse_refuses_a_degree_count_over_its_limit_at_once(tmp_path, capsys):
    # unbounded, 100,000 degrees took 2.1 s and printed a 4.8 MB report
    dgm = tmp_path / "one_point.dgm"
    write_diagram(dgm, PersistenceDiagram({0: [(0, 1)]}))
    start = time.perf_counter()
    assert main(["morse", "--dgm", str(dgm), "--epsilon", "0.1", "--max-degree", "100000"]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: n_max limited to {pershom.morse.MORSE_DEGREE_LIMIT}, got 100000\n"


def test_bottleneck_command(tmp_path, capsys):
    a, b = tmp_path / "a.dgm", tmp_path / "b.dgm"
    write_diagram(a, PersistenceDiagram({0: [(0, 2)]}))
    write_diagram(b, PersistenceDiagram())
    assert main(["bottleneck", str(a), str(b), "--degree", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1.0"

    write_diagram(b, PersistenceDiagram({0: [(0, math.inf)]}))
    assert main(["bottleneck", str(a), str(b), "--degree", "0"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


@pytest.mark.parametrize("mult", [2**70, 10**11])
def test_bottleneck_refuses_a_diagram_too_large_to_expand(tmp_path, capsys, mult):
    big, one = tmp_path / "big.dgm", tmp_path / "one.dgm"
    big.write_text(f"0 0 1 {mult}\n")
    one.write_text("0 0 1 1\n")
    assert main(["bottleneck", str(big), str(one), "--degree", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"got {mult} in degree 0" in captured.err


def test_radical_command(tmp_path):
    src = tmp_path / "in.bar"
    src.write_text("0 [0,1)\n0 [0,0.5)\n2 [3,3]\n")
    out = tmp_path / "out.bar"
    assert main(["radical", "--barcode", str(src), "--output", str(out)]) == 0
    assert read_barcode(out) == Barcode(
        [(0, Interval.open_open(0, 1)), (0, Interval.open_open(0, 0.5))]
    )


def test_dowker_command(tmp_path, capsys):
    cov = tmp_path / "c.cov"
    cov.write_text("set U1 1 2\nset U2 2 3\n")
    assert main(["dowker", "--cover", str(cov), "--field", "3"]) == 0
    out = capsys.readouterr().out
    assert "agree: yes" in out
    assert "nerve: 1 0" in out
    assert "vietoris: 1 0" in out


def test_dowker_locates_the_first_defective_cover_set(tmp_path, capsys):
    cov = tmp_path / "dup.cov"
    cov.write_text("ground 1 2\nset A 1\nset A 2\nset B 7\n")
    assert main(["dowker", "--cover", str(cov)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cov}:3: duplicate cover set id 'A'\n"


def test_dowker_refuses_an_oversized_vietoris_complex(tmp_path, capsys):
    cov = tmp_path / "big.cov"
    cov.write_text("set U " + " ".join(str(v) for v in range(30)) + "\n")
    assert main(["dowker", "--cover", str(cov)]) == 1
    assert "error: the Vietoris complex could have up to 1073741823 simplices" in capsys.readouterr().err


def test_hawaiian_command(capsys):
    assert main(["hawaiian", "--k", "5"]) == 0
    assert "rank=4" in capsys.readouterr().out
    assert main(["hawaiian", "--k", "1", "--sweep", "4"]) == 0
    assert capsys.readouterr().out == "1 0\n2 1\n3 2\n4 3\n"
    assert main(["hawaiian", "--k", "0"]) == 1
    capsys.readouterr()
    assert main(["hawaiian", "--k", "200000"]) == 1
    assert capsys.readouterr().err == "error: the earring truncation has 1000002 simplices, over 1000000\n"
    assert main(["hawaiian", "--k", "1", "--sweep", "632"]) == 1
    assert capsys.readouterr().err == "error: the earring sweep to k = 632 builds 1001404 simplices, over 1000000\n"


def test_compute_makes_no_interval(tmp_path, monkeypatch):
    # the diagram is built from the bar counts, with no Barcode in between
    def refuse(cls, *args):
        raise AssertionError(f"{cls.__name__}{args} was made")

    monkeypatch.setattr(Interval, "__new__", refuse)
    monkeypatch.setattr(pershom.barcode, "_made", refuse)
    path, out = tmp_path / "path.flt", tmp_path / "out.dgm"
    path.write_text("simplex 0 0\nsimplex -0.0 1\nsimplex 0.5 2\nsimplex 1 0 1\nsimplex 1 1 2\nsimplex 2 0 2\n")
    assert main(["compute", "--input", str(path), "--output", str(out)]) == 0
    assert out.read_text() == "0 -0.0 1.0 1\n0 0.0 inf 1\n0 0.5 1.0 1\n1 2.0 inf 1\n"


def test_hawaiian_command_reduces_its_complex_once(monkeypatch, capsys):
    # the barcode and the rank read one pairing
    reductions = []
    real = pershom.filtration._reduce
    monkeypatch.setattr(pershom.filtration, "_reduce", lambda k, field: reductions.append(len(k)) or real(k, field))
    assert main(["hawaiian", "--k", "5"]) == 0
    assert capsys.readouterr().out == "k=5 rank=4 (27 simplices, 5 bars)\n"
    assert reductions == [27]


def test_product_command(capsys):
    assert main(["product", "--n", "2"]) == 0
    assert capsys.readouterr().out == "0 [0.0,0.5)\n0 [0.0,1.0)\n"
    assert main(["product", "--n", "0"]) == 1


def test_douglas_command(tmp_path, capsys):
    import numpy as np

    curve = tmp_path / "circle.csv"
    t = np.arange(64) * (2 * math.pi / 64)
    curve.write_text("".join(f"{math.cos(x)},{math.sin(x)}\n" for x in t))
    assert main(["douglas", "--curve", str(curve), "--phi", "id", "--n", "64"]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(math.pi**2, rel=0.05)

    phi = tmp_path / "phi.csv"
    phi.write_text("".join(f"{x}\n" for x in t))
    assert main(["douglas", "--curve", str(curve), "--phi", str(phi), "--n", "64"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(value)

    assert main(["douglas", "--curve", str(curve), "--phi", "id", "--n", "4"]) == 1


def test_douglas_refuses_an_oversized_grid_before_evaluating(tmp_path, capsys, monkeypatch):
    import pershom.cli

    def refuse(inp):
        raise AssertionError(f"evaluated a grid of {inp.quadrature_n}")

    monkeypatch.setattr(pershom.cli, "douglas_eval", refuse)
    curve = tmp_path / "square.csv"
    curve.write_text("1,0\n0,1\n-1,0\n0,-1\n")
    assert main(["douglas", "--curve", str(curve), "--phi", "id", "--n", "4097"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: quadrature_n 4097 is over 4096\n"


def test_douglas_rejects_nan_samples(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("1,0\nnan,1\n-1,0\n0,-1\n")
    assert main(["douglas", "--curve", str(curve), "--phi", "id", "--n", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {curve}:2: entry 1 must be finite, got nan\n"  # the file's line, not the curve


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("1,0\nx,1\n-1,0\n", 2, "could not convert string to float: 'x'"),
        ("1,0\n0,1\n-1\n", 3, "expected 2 values as on the first row, got 1"),
    ],
)
def test_douglas_locates_a_malformed_csv_line(tmp_path, capsys, text, lineno, message):
    curve = tmp_path / "curve.csv"
    curve.write_text(text)
    assert main(["douglas", "--curve", str(curve), "--phi", "id", "--n", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {curve}:{lineno}: {message}\n"


def test_missing_file_is_a_validation_error(tmp_path):
    assert main(["compute", "--input", str(tmp_path / "none.flt"), "--output", "x.dgm"]) == 1


def test_full_pipeline_through_files(tmp_path, capsys):
    # terrain loop: compute a diagram, inspect caps and the Morse report,
    # and confirm the diagram is at distance zero from itself
    flt = tmp_path / "terrain.flt"
    heights = {0: 0.0, 1: 0.8, 2: 0.1, 3: 0.9, 4: 0.3, 5: 0.7}
    lines = [f"simplex {h} {v}" for v, h in heights.items()]
    lines += [
        f"simplex {max(heights[v], heights[(v + 1) % 6])} {v} {(v + 1) % 6}"
        for v in range(6)
    ]
    flt.write_text("\n".join(lines) + "\n")

    dgm = tmp_path / "terrain.dgm"
    assert main(["compute", "--input", str(flt), "--field", "2", "--output", str(dgm)]) == 0
    capsys.readouterr()
    assert read_diagram(dgm) == PersistenceDiagram(
        {0: [(0.0, math.inf), (0.1, 0.8), (0.3, 0.7)], 1: [(0.9, math.inf)]}
    )

    assert main(["caps", "--dgm", str(dgm), "--epsilon", "0.2", "--degree", "0"]) == 0
    assert capsys.readouterr().out == "0 3\n"  # essential + two finite valleys

    assert main(["morse", "--dgm", str(dgm), "--epsilon", "0.2", "--max-degree", "1"]) == 0
    assert "partial_sum" in capsys.readouterr().out

    assert main(["bottleneck", str(dgm), str(dgm), "--degree", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_the_parser_is_built_once_and_reused(tmp_path, flt_file, capsys):
    import pershom.cli

    assert pershom.cli._build_parser() is pershom.cli._build_parser()
    out = tmp_path / "out.dgm"
    argv = ["compute", "--input", str(flt_file), "--field", "3", "--output", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    assert main(["caps", "--dgm", str(out), "--epsilon", "0.5", "--degree", "1"]) == 0
    assert main(argv) == 0
    assert out.read_text() == first
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", str(flt_file)])  # --output is required
    assert exc.value.code == 2
    assert main(["morse", "--dgm", str(out), "--epsilon", "0.5", "--max-degree", "1"]) == 0


def test_compute_morse_and_bottleneck_make_points_only_for_a_matching(tmp_path, monkeypatch, capsys):
    # the diagram stays arrays from the pairing to the .dgm file, the Morse sums and the bottleneck
    # distance; DiagramPoints, and ExtendedReal endpoints, are made for a `matching_at` result's fields alone
    import random
    import sys

    import pershom.diagram
    from pershom import ExtendedReal, matching_at
    from pershom.io import write_filtration

    from helpers import random_rips

    made, wrapped = [], []
    real_made, real_new = pershom.diagram._made, ExtendedReal.__new__

    def counted(cls, p, q):
        made.append(len(p))
        return real_made(cls, p, q)

    for module in (pershom.diagram, sys.modules["pershom.bottleneck"]):  # the package's `bottleneck` is the function
        monkeypatch.setattr(module, "_made", counted)
    monkeypatch.setattr(ExtendedReal, "__new__", lambda cls, value: wrapped.append(value) or real_new(cls, value))
    paths = []
    for seed in (5, 6):
        flt, dgm = tmp_path / f"rips{seed}.flt", tmp_path / f"rips{seed}.dgm"
        write_filtration(flt, random_rips(random.Random(seed)))
        assert main(["compute", "--input", str(flt), "--output", str(dgm)]) == 0
        assert main(["morse", "--dgm", str(dgm), "--epsilon", "0.02", "--max-degree", "2"]) == 0
        paths.append(dgm)
    assert "partial_sum" in capsys.readouterr().out
    assert (made, wrapped) == ([], [])
    assert main(["bottleneck", *map(str, paths), "--degree", "0"]) == 0
    distance = float(capsys.readouterr().out)
    assert made == [] and len(wrapped) == 1  # the distance itself
    result = matching_at(read_diagram(paths[0]), read_diagram(paths[1]), 0, distance)
    assert result.feasible and made == []
    matched, unmatched_a, unmatched_b = result.matched, result.unmatched_a, result.unmatched_b
    assert sum(made) == 2 * len(matched) + len(unmatched_a) + len(unmatched_b) > 0 and len(wrapped) == 1
