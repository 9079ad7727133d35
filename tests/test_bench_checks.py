"""Every benchmark workload's output check, run on its tiny schedule, so a
change that breaks a checked answer (a `matching_at` witness, a Dowker rank,
a diagram) fails here rather than first in a timed run.

The benchmark's own tests (`bench/tests`) run the checks of its first
workload; these run those of the other three.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["compute-rips3-f3", "bottleneck-pairs", "rank-queries"])
def test_bench_outputs_pass_their_checks_on_the_tiny_schedule(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--scale", "tiny",
         "--seed", "7", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
