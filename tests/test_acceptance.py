"""Acceptance gate: every advertised guarantee checked at desk scale.

One test per criterion, each printing a single PASS/FAIL line (visible with
-s, or in the captured output on failure).  All share comparisons are exact
rational arithmetic against the brute-force oracle; there is no tolerance
anywhere.  The shared sweep solves 1000 seeded instances once and keeps the
audit trail (reduction snapshots, post-phase state clones, solver stats) for
the criteria that inspect solver behavior rather than just outcomes.  The
sweep's envelopes of all three algorithms (poly34, exist34, and criterion
2's exist34plus) are hashed against golden digests, so a changed output
byte fails here.  The
uniform sweep never reaches the update loop, so criteria 4 and 7 also solve
20 seeded near-threshold instances on which it fires.
"""

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from audits import check_valid_reduction, corollary_violations
from naive_oracle import naive_mms, scale_agent

import mmsalloc.bags as bags_mod
import mmsalloc.solver as solver_mod
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
    MODE_BASE,
    MODE_PLUS,
    gamma_constant,
    iteration_cap,
    solve_existence,
    solve_poly34,
)
from mmsalloc.verify import check_alpha_mms

SWEEP_SIZE = 1000
NEAR_COUNT = 20
ALPHA = Fraction(3, 4)

# sha256 of the sweep's canonical ``solve`` envelopes, concatenated in index
# order: any change to an output byte of any algorithm shows here.
POLY34_SWEEP_SHA256 = (
    "7c3c9aff6097d4908ed59826f973e8b6da2e3288539bf79ccb9329ece1c751a8"
)
EXIST34_SWEEP_SHA256 = (
    "9c1983c896d8d03dc7613e0020fe2b2761b47a67532d58c23a4835c22267955b"
)
EXIST34PLUS_SWEEP_SHA256 = (
    "675735d7e9e4192977079a7a9636592d3702078a96bff379f9f4bd31a78db8de"
)


def sweep_params(idx):
    # n in 2..5, m in n..12, deterministic seed per index
    n = 2 + idx % 4
    m = n + idx % (13 - n)
    return n, m, 90000 + idx


def near_threshold_instance(seed):
    # 10 agents, 50 items; per agent 9 items in [6500, 6700], one in
    # [3740, 3760], 10 in [3680, 3720] and 30 fillers in [1, 20], with one
    # column shuffle for all rows.  The bags sit just around the profile
    # thresholds, so the update loop (undo, rescale, rerun) fires.
    rng = random.Random(seed)
    rows = [
        [rng.randint(6500, 6700) for _ in range(9)]
        + [rng.randint(3740, 3760)]
        + [rng.randint(3680, 3720) for _ in range(10)]
        + [rng.randint(1, 20) for _ in range(30)]
        for _ in range(10)
    ]
    order = list(range(50))
    rng.shuffle(order)
    return make_instance([[row[j] for j in order] for row in rows])


@dataclass
class SweepData:
    instances: list = field(default_factory=list)
    allocs: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    envelopes: list = field(default_factory=list)
    reduce_snaps: list = field(default_factory=list)
    phase_clones: list = field(default_factory=list)
    layout_calls: list = field(default_factory=list)
    oracle_calls_in_solve: int = 0


@pytest.fixture(scope="module")
def sweep():
    data = SweepData()

    def counted_oracle(*args, **kwargs):
        data.oracle_calls_in_solve += 1
        return exact_mms(*args, **kwargs)

    for idx in range(SWEEP_SIZE):
        n, m, seed = sweep_params(idx)
        inst = gen_instance(make_spec(n, m, "uniform:0:100", seed))

        def observer(event, record):
            if event == "reduce":
                data.reduce_snaps.append(record)
            elif event == "fixed_phase_done":
                data.phase_clones.append(record["state"])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "exact_mms", counted_oracle)
            alloc, stats = solve_poly34(inst, observer=observer)

        data.instances.append(inst)
        data.allocs.append(alloc)
        data.stats.append(stats)
        data.envelopes.append(dump_json(allocation_to_json(alloc, stats)))
        data.reports.append(check_alpha_mms(inst, alloc, ALPHA))
    return data


@pytest.fixture(scope="module")
def near_sweep():
    data = SweepData()

    def observer(event, record):
        if event == "fixed_phase_done":
            data.phase_clones.append(record["state"])

    bag_layout = bags_mod.bag_layout

    def counted_layout(state):
        data.layout_calls[-1] += 1
        return bag_layout(state)

    for idx in range(NEAR_COUNT):
        inst = near_threshold_instance(96000 + idx)
        data.layout_calls.append(0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bags_mod, "bag_layout", counted_layout)
            _alloc, stats = solve_poly34(inst, observer=observer)
        data.instances.append(inst)
        data.stats.append(stats)
    return data


def loop_fired(data):
    return sum(1 for stats in data.stats if stats.update_loop_iterations > 0)


def record(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def envelope_digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def test_sweep_poly34_envelopes_unchanged(sweep):
    assert envelope_digest(sweep.envelopes) == POLY34_SWEEP_SHA256


def test_sweep_exist34_envelopes_unchanged(sweep):
    envelopes = [
        dump_json(allocation_to_json(*solve_existence(inst, MODE_BASE)))
        for inst in sweep.instances
    ]
    assert envelope_digest(envelopes) == EXIST34_SWEEP_SHA256


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
    envelopes = []
    for inst in sweep.instances:
        target = ALPHA + gamma_constant(inst.n)
        alloc, stats = solve_existence(inst, MODE_PLUS)
        envelopes.append(dump_json(allocation_to_json(alloc, stats)))
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
    assert envelope_digest(envelopes) == EXIST34PLUS_SWEEP_SHA256


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
            [[before.bundle_value(i, (j,)) for j in items] for i in agents]
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


def test_criterion_4_corollary_bounds(sweep, near_sweep):
    checked = 0
    failures = 0
    for clone in sweep.phase_clones + near_sweep.phase_clones:
        checked += 1
        if corollary_violations(clone):
            failures += 1
    fired = loop_fired(near_sweep)
    ok = checked >= SWEEP_SIZE + NEAR_COUNT and failures == 0 and fired == NEAR_COUNT
    record(
        4,
        ok,
        f"{checked} completed fixed phases, {failures} violations; "
        f"update loop fired on {fired}/{NEAR_COUNT} near-threshold instances",
    )


def test_near_threshold_solves_build_one_layout_per_solve(near_sweep):
    # Scans and rescale bounds read the bags straight from the items, so each
    # solve builds one layout, for its fill, whatever the host speed.
    assert near_sweep.layout_calls == [1] * NEAR_COUNT


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
            before = inst.bundle_value(i, [view.ranking[i][p] for p in ordered_alloc.bundles[i]])
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


def test_criterion_7_update_loop_cap(sweep, near_sweep):
    worst = 0
    ok = len(sweep.allocs) == SWEEP_SIZE  # every run completed, none exhausted
    for data in (sweep, near_sweep):
        for inst, stats in zip(data.instances, data.stats):
            worst = max(worst, stats.update_loop_iterations)
            if stats.update_loop_iterations > iteration_cap(inst.n):
                ok = False
    fired = loop_fired(near_sweep)
    ok = ok and fired == NEAR_COUNT
    record(
        7,
        ok,
        f"max update-loop iterations {worst}, cap respected, no exhaustion; "
        f"update loop fired on {fired}/{NEAR_COUNT} near-threshold instances",
    )


def test_criterion_8_scale_and_run_determinism():
    failures = 0
    for idx in range(100):
        n = 2 + idx % 4
        m = n + idx % (13 - n)
        inst = gen_instance(make_spec(n, m, "uniform:1:100", 80000 + idx))
        rng = random.Random(81000 + idx)
        c = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        scaled = scale_agent(inst, rng.randrange(n), c)

        runs = [solve_poly34(inst), solve_poly34(inst), solve_poly34(scaled)]
        (first, _), (again, _), (after_scale, _) = runs

        texts = [dump_json(allocation_to_json(a, s)) for a, s in runs]
        if first != again or texts[0] != texts[1]:
            failures += 1
        if first.bundles != after_scale.bundles or texts[0] != texts[2]:
            failures += 1
    record(8, failures == 0, f"100 instances, {failures} determinism breaks")


def test_criterion_9_no_oracle_in_poly_path(sweep):
    calls = sweep.oracle_calls_in_solve
    record(9, calls == 0, f"{calls} oracle calls made by solve_poly34")
