"""Self-tests for the benchmark; they do not run as part of the library's
suite.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mmsalloc  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    spans = [
        tracing.Span("root", 0.0, 10.0, -1, 0),
        tracing.Span("a", 1.0, 4.0, 0, 0),
        tracing.Span("c", 2.0, 3.0, 1, 0),
        tracing.Span("b", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def _plain_and_traced(workload, cases):
    plain = run.run_phase(workload, cases, count=len(cases))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_phase(workload, cases, count=len(cases), tracer=tracer)
    finally:
        tracer.restore()
    return plain, traced, tracer


def test_traced_and_untraced_runs_give_identical_digests():
    rng = random.Random(7)
    small_cascade = [  # both families, at a size that solves in milliseconds
        workloads.Case(0, "removal", "poly34", workloads.removal_instance(rng, 8), "#0"),
        workloads.Case(1, "near", "poly34", workloads.near_instance(rng, 8), "#1"),
    ]
    for name, cases in (
        ("certify_small", workloads.WORKLOADS["certify_small"].pool(7)[:12]),
        ("poly34_cascade", small_cascade),
    ):
        workload = workloads.WORKLOADS[name]
        plain, traced, tracer = _plain_and_traced(workload, cases)
        assert [o.digest for o in plain.outcomes] == [o.digest for o in traced.outcomes]
        assert all(run.op_ok(workload, i, o, {}) for i, o in enumerate(traced.outcomes))
        metrics, absent = tracer.metrics()
        assert absent == []
        assert (metrics["oracle.calls"] > 0) == workload.certify
    assert mmsalloc.solver.order_instance is mmsalloc.model.order_instance
    assert isinstance(vars(mmsalloc.reduction.ReductionState)["from_instance"], classmethod)


def test_cascade_families_are_seed_stable():
    wl = workloads.WORKLOADS["poly34_cascade"]
    for index in (0, 1):  # one instance of each family
        first, second = wl.cases(3, index)[0], wl.cases(3, index)[0]
        assert json.dumps(first.inst.values, default=str) == json.dumps(
            second.inst.values, default=str
        )
        assert first.inst.values != wl.cases(4, index)[0].inst.values
    assert [c.family for c in (wl.cases(3, 0)[0], wl.cases(3, 1)[0])] == ["removal", "near"]


def test_missing_target_is_reported_absent():
    # As if a refactor had renamed apply_reduction and removed a module.
    kept = tuple(t for t in tracing.TARGETS if t.layer not in ("model.lift", "reduction.apply"))
    tracer = tracing.Tracer(
        kept
        + (
            tracing.Target("reduction.apply", "mmsalloc.reduction", "no_such_function"),
            tracing.Target("model.lift", "mmsalloc.no_such_module", "lift"),
        )
    )
    tracer.install()
    try:
        workloads.run_op(workloads.WORKLOADS["certify_small"].pool(1)[0], certify=True)
    finally:
        tracer.restore()
    metrics, absent = tracer.metrics()
    assert {"model.lift_s", "reduction.apply_s", "reduction.apply_calls"} <= set(absent)
    assert "model.lift_s" not in metrics and "model.order_s" in metrics
    assert len(tracer.absent_targets) == 2


def test_build_pool_matches_pool_and_samples_the_reference():
    workload = workloads.WORKLOADS["poly34_cascade"]
    cal = run.Calibration()
    pool, seconds = run.build_pool(workload, 3, cal)
    assert [c.inst for c in pool] == [c.inst for c in workload.pool(3)]
    assert seconds > 0 and len(cal.samples) >= 2
    assert cal.scale() == run.REF_S / (sum(cal.samples) / len(cal.samples))
