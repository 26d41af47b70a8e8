"""scripts/oracle_bench.py end to end: a tiny run, and its argument checks."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "oracle_bench.py"


def run_bench(*argv):
    argv = [sys.executable, str(SCRIPT), *argv]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_tiny_run_prints_one_row_per_cell():
    done = run_bench("--m-min", "4", "--m-max", "5", "--k", "2", "--trials", "1")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["m", "k", "median_s", "max_s", "nodes"]
    assert [row.split()[:2] for row in rows] == [["4", "2"], ["5", "2"]]
    assert all(int(row.split()[4]) >= 1 for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["--trials", "0"],
        ["--k", "0"],
        ["--k", "2,x"],
        ["--m-max", "25"],
        ["--m-min", "9", "--m-max", "6"],
    ],
    ids=["no-trials", "zero-k", "non-integer-k", "m-above-cap", "m-range-empty"],
)
def test_bad_arguments_exit_2(argv):
    done = run_bench(*argv)
    assert done.returncode == 2
    assert "error:" in done.stderr
    assert done.stdout == ""
