"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, or a benchmark run silently loses that layer."""

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert tracer.absent_targets == []
