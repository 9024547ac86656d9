"""The benchmark's self-checks: every traced name, the conv MAC count and the
per-image classify count of each workload still read as perfbench expects,
and one pass of each workload still writes the bytes of its goldens."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PINNED_BUILD, blas_build

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke ok" in done.stdout.splitlines(), done.stdout


@pytest.mark.parametrize("workload", ["survey", "classic", "unite"])
def test_workload_matches_its_goldens(workload):
    if blas_build() != PINNED_BUILD:
        pytest.skip(f"goldens recorded with {PINNED_BUILD}, not {blas_build()}")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout + done.stderr
