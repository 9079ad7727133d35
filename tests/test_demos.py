"""Each script in demos/ runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


def run_demo(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    run_demo(script, tmp_path)


def test_dowker_demo_ball_complexes_grow(tmp_path):
    stdout = run_demo(ROOT / "demos" / "dowker_duality.py", tmp_path)
    nested = [line.split("contains previous: ")[1] for line in stdout.splitlines() if "contains previous" in line]
    assert nested == ["True"] * 3  # one per radius after the first
