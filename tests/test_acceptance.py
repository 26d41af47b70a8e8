"""Acceptance gate: every advertised guarantee checked at desk scale.

One test per criterion, each printing a single PASS/FAIL line (visible with
-s, or in the captured output on failure).  All share comparisons are exact
rational arithmetic against the brute-force oracle; there is no tolerance
anywhere.  The shared sweep solves 1000 seeded instances once and keeps the
audit trail (reduction snapshots, post-phase state clones, solver stats) for
the criteria that inspect solver behavior rather than just outcomes.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from naive_oracle import naive_mms, scale_agent

from mmsalloc import oracle
from mmsalloc.generate import gen_instance, make_spec
from mmsalloc.jsonio import allocation_to_json, dump_json
from mmsalloc.model import (
    Allocation,
    lift_allocation,
    make_instance,
    order_instance,
)
from mmsalloc.oracle import exact_mms
from mmsalloc.solver import (
    MODE_PLUS,
    gamma_constant,
    solve_existence,
    solve_poly34,
)
from mmsalloc.verify import (
    check_alpha_mms,
    check_corollary_bounds,
    check_valid_reduction,
)

SWEEP_SIZE = 1000
ALPHA = Fraction(3, 4)


def sweep_params(idx):
    # n in 2..5, m in n..12, deterministic seed per index
    n = 2 + idx % 4
    m = n + idx % (13 - n)
    return n, m, 90000 + idx


@dataclass
class SweepData:
    instances: list = field(default_factory=list)
    allocs: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    reduce_snaps: list = field(default_factory=list)
    phase_clones: list = field(default_factory=list)
    oracle_calls_in_solve: int = 0


@pytest.fixture(scope="module")
def sweep():
    data = SweepData()
    for idx in range(SWEEP_SIZE):
        n, m, seed = sweep_params(idx)
        inst = gen_instance(make_spec(n, m, "uniform:0:100", seed))

        def observer(event, record):
            if event == "reduce":
                data.reduce_snaps.append(record)
            elif event == "fixed_phase_done":
                data.phase_clones.append(record["state"])

        before = oracle.ORACLE_CALLS
        alloc, stats = solve_poly34(inst, observer=observer)
        data.oracle_calls_in_solve += oracle.ORACLE_CALLS - before

        data.instances.append(inst)
        data.allocs.append(alloc)
        data.stats.append(stats)
        data.reports.append(check_alpha_mms(inst, alloc, ALPHA))
    return data


def record(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_poly_guarantee(sweep):
    ratios = [
        row.ratio
        for report in sweep.reports
        for row in report.per_agent
        if row.ratio is not None
    ]
    ok = all(report.overall for report in sweep.reports)
    record(
        1,
        ok,
        f"{SWEEP_SIZE} instances, min ratio {min(ratios)} >= 3/4",
    )


def test_criterion_2_plus_guarantee(sweep):
    worst_gap = None
    ok = True
    for inst in sweep.instances:
        target = ALPHA + gamma_constant(inst.n)
        alloc, _stats = solve_existence(inst, MODE_PLUS)
        report = check_alpha_mms(inst, alloc, target)
        ok = ok and report.overall
        for row in report.per_agent:
            if row.ratio is None:
                continue
            gap = row.ratio - target
            if worst_gap is None or gap < worst_gap:
                worst_gap = gap
    record(
        2,
        ok,
        f"{SWEEP_SIZE} instances, min ratio slack over 3/4+1/(12n): {worst_gap}",
    )


def test_criterion_3_valid_reductions(sweep):
    audited = 0
    failures = 0
    for snap in sweep.reduce_snaps:
        if snap["kind"] != "fixed" or snap["shape"] == "zero":
            continue
        before = snap["state"]
        agents = before.agents
        if len(agents) < 2:
            continue  # no survivors, nothing to audit
        items = before.items
        sub = make_instance(
            [[before.vals[i][j] for j in items] for i in agents]
        )
        pos = {j: p for p, j in enumerate(items)}
        bundle = tuple(pos[j] for j in snap["bundle"])
        audited += 1
        if not check_valid_reduction(
            sub, agents.index(snap["agent"]), bundle, ALPHA
        ):
            failures += 1
    ok = audited > 0 and failures == 0
    record(3, ok, f"{audited} fixed reductions audited, {failures} failures")


def test_criterion_4_corollary_bounds(sweep):
    checked = 0
    failures = 0
    for clone in sweep.phase_clones:
        checked += 1
        if not check_corollary_bounds(clone):
            failures += 1
    ok = checked >= SWEEP_SIZE and failures == 0
    record(4, ok, f"{checked} completed fixed phases, {failures} violations")


def test_criterion_5_ordering_lift():
    failures = 0
    for idx in range(200):
        n = 2 + idx % 4
        m = n + idx % (13 - n)
        inst = gen_instance(make_spec(n, m, "uniform:0:100", 70000 + idx))
        view = order_instance(inst)
        rng = random.Random(71000 + idx)
        buckets = [[] for _ in range(n)]
        for pos in range(m):
            buckets[rng.randrange(n)].append(pos)
        ordered_alloc = Allocation(tuple(tuple(b) for b in buckets))
        lifted = lift_allocation(inst, view, ordered_alloc)
        for i in range(n):
            before = view.ordered.bundle_value(i, ordered_alloc.bundles[i])
            after = inst.bundle_value(i, lifted.bundles[i])
            if after < before:
                failures += 1
    record(5, failures == 0, f"200 instances, {failures} lift regressions")


def test_criterion_6_oracle_soundness():
    failures = 0
    for idx in range(100):
        rng = random.Random(65000 + idx)
        m = rng.randint(1, 8)
        k = rng.randint(1, 3)
        row = [rng.randint(0, 12) for _ in range(m)]
        res = exact_mms(row, k)
        if res.value != naive_mms(row, k):
            failures += 1
        if res.value > Fraction(sum(row), k):
            failures += 1
    record(6, failures == 0, f"100 cases vs naive enumerator, {failures} mismatches")


def test_criterion_7_update_loop_cap(sweep):
    worst = 0
    ok = len(sweep.allocs) == SWEEP_SIZE  # every run completed, none exhausted
    for idx, stats in enumerate(sweep.stats):
        n, _m, _seed = sweep_params(idx)
        cap = 4 * n**3 + 16
        worst = max(worst, stats.update_loop_iterations)
        if stats.update_loop_iterations > cap:
            ok = False
    record(7, ok, f"max update-loop iterations {worst}, cap respected, no exhaustion")


def test_criterion_8_scale_and_run_determinism():
    failures = 0
    for idx in range(100):
        n = 2 + idx % 4
        m = n + idx % (13 - n)
        inst = gen_instance(make_spec(n, m, "uniform:1:100", 80000 + idx))
        rng = random.Random(81000 + idx)
        c = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        scaled = scale_agent(inst, rng.randrange(n), c)

        first, _ = solve_poly34(inst)
        again, _ = solve_poly34(inst)
        after_scale, _ = solve_poly34(scaled)

        texts = [
            dump_json(allocation_to_json(a))
            for a in (first, again, after_scale)
        ]
        if first != again or texts[0] != texts[1]:
            failures += 1
        if first.bundles != after_scale.bundles or texts[0] != texts[2]:
            failures += 1
    record(8, failures == 0, f"100 instances, {failures} determinism breaks")


def test_criterion_9_no_oracle_in_poly_path(sweep):
    calls = sweep.oracle_calls_in_solve
    record(9, calls == 0, f"{calls} oracle calls made by solve_poly34")
