"""The benchmark's self-check: every traced name, the conv MAC count and the
per-image classify count of each workload still read as perfbench expects."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke ok" in done.stdout.splitlines(), done.stdout
