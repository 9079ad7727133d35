"""The benchmark's own tests, on the tiny schedules and a fixed seed.

    python -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import jobs  # noqa: E402
from pershom import compute_persistence, diagram_of, vietoris  # noqa: E402
from pershom import io as pio  # noqa: E402

SEED = 7


def _files(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generation_is_byte_identical(tmp_path, workload):
    gen.generate(workload, SEED, tmp_path / "a", "tiny")
    gen.generate(workload, SEED, tmp_path / "b", "tiny")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    gen.generate(workload, SEED + 1, tmp_path / "c", "tiny")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _compute_counts(work, manifest):
    out = []
    for job in manifest["jobs"]:
        if "invalid" in job:
            out.append(job["invalid"])
            continue
        barcode = compute_persistence(pio.read_filtration(work / job["input"]))
        per_degree = {}
        for d, _ in barcode:
            per_degree[d] = per_degree.get(d, 0) + 1
        out.append((job["simplices_per_dim"], per_degree, diagram_of(barcode).total()))
    return out


EXPECTED_COUNTS = {
    "compute-rips2-f2": [
        ([12, 31, 35], {0: 12, 1: 1, 2: 16}, 29),
        "face-born-late",
        ([40, 169, 302], {0: 40, 1: 5, 2: 173}, 218),
    ],
    "compute-rips3-f3": [
        ([10, 21, 18, 7], {0: 10, 3: 1}, 11),
        ([20, 55, 58, 25], {0: 20, 1: 1, 3: 3}, 24),
    ],
}


@pytest.mark.parametrize("workload", ["compute-rips2-f2", "compute-rips3-f3"])
def test_compute_counts_are_exact(tmp_path, workload):
    manifest = gen.generate(workload, SEED, tmp_path, "tiny")
    assert _compute_counts(tmp_path, manifest) == EXPECTED_COUNTS[workload]


def test_bottleneck_candidate_counts_are_exact(tmp_path):
    manifest = gen.generate("bottleneck-pairs", SEED, tmp_path, "tiny")
    counts = []
    for job in manifest["jobs"]:
        a = jobs.read_points(tmp_path / job["a"])[job["degree"]]
        b = jobs.read_points(tmp_path / job["b"])[job["degree"]]
        counts.append((len(a), len(b), len(jobs.candidate_grid(a, b)), job["infinite"]))
    assert counts == [(8, 8, 36, False), (9, 8, 64, True), (15, 15, 169, False)]


def test_vietoris_counts_are_exact(tmp_path):
    manifest = gen.generate("rank-queries", SEED, tmp_path, "tiny")
    dowker = [job for job in manifest["jobs"] if job["kind"] == "dowker"]
    sizes = [len(vietoris(pio.read_cover(tmp_path / job["input"]))) for job in dowker]
    assert sizes == [job["vietoris_simplices"] for job in dowker]
    assert sizes == [23, 23, 55, 55, 6, 6, 14, 14, 191]


def _result(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", str(SEED), "--scale", "tiny", *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result("--workload", spec["workloads"][0]["name"], "--seconds", "0.5", "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[section]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", gen.WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""
