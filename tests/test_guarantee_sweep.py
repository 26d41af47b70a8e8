"""scripts/guarantee_sweep.py end to end: a tiny sweep, and its range checks."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "guarantee_sweep.py"


def run_sweep(*argv):
    argv = [sys.executable, str(SCRIPT), *argv]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_tiny_sweep_certifies_every_guarantee():
    done = run_sweep("--count", "4", "--n-max", "3", "--m-max", "6")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("4 instances")
    for name in ("poly34", "exist34", "exist34plus"):
        assert f"\n{name}:\n" in done.stdout
    assert "GUARANTEE FAILURES" not in done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["--n-min", "4", "--n-max", "3"],
        ["--n-min", "3", "--n-max", "3", "--m-max", "2"],
        ["--n-min", "3", "--m-max", "1"],
        ["--n-max", "2", "--m-max", "30"],
        ["--algorithms", "poly34,quux"],
    ],
    ids=[
        "n-range-empty",
        "m-below-n",
        "m-cap-below-n",
        "m-above-oracle-cap",
        "unknown-algorithm",
    ],
)
def test_bad_ranges_exit_2(argv):
    done = run_sweep("--count", "2", *argv)
    assert done.returncode == 2
    assert "error:" in done.stderr
    assert done.stdout == ""
