"""The repo's pytest settings: a failing property test stays an ordinary
failure, and the suite runs the benchmark's self-tests.  Also the Python
floor, which pyproject.toml and the README state alike."""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PAIR = '''
from hypothesis import given, strategies as st


@given(st.just(0))
def test_fails(x):
    assert x == 1


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # A failing @given test makes hypothesis write a patch through libcst,
    # whose import raises a DeprecationWarning; under filterwarnings "error"
    # that used to stop pytest with INTERNALERROR before later tests ran.
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    # Plain asserts skip rewriting hypothesis on import, which keeps this fast.
    argv = ["-q", "-p", "no:cacheprovider", "--assert=plain", "-c", str(PYPROJECT)]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout


def test_suite_collects_the_benchmark_self_tests(pytestconfig):
    # perfbench/ holds the benchmark's self-tests; a plain run collects them.
    assert pytestconfig.getini("testpaths") == ["tests", "src", "perfbench"]
    assert (PYPROJECT.parent / "perfbench" / "test_perfbench.py").is_file()


def test_python_floor_agrees_and_has_int_max_str_digits():
    # model.as_rational calls sys.get_int_max_str_digits, new in CPython 3.10.7.
    (floor,) = re.findall(r'^requires-python = ">=([\d.]+)"$', PYPROJECT.read_text(), re.M)
    readme = (PYPROJECT.parent / "README.md").read_text()
    assert re.findall(r"Python >= ([\d.]+\d)", readme) == [floor]
    assert tuple(map(int, floor.split("."))) >= (3, 10, 7)
