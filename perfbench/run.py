"""Run one seeded workload against the library in ./src and print its metrics.

    python3 perfbench/run.py --workload poly34_uniform --seed 0 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` the run times ops with no
instrumentation and reports the end-to-end metrics.  With ``--trace 1`` it
times the same way, then replays exactly the same ops with wrappers around
every layer and reports per-layer metrics, the census of workload
properties and the tracing overhead; spans go to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  Gated times are scaled to
a fixed host speed; see ``Calibration``.

Every op is checked; see README.md in this directory.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller report, with the
figures that only some workloads have, goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
P90_MIN_OPS = 100  # p90 only where at least 10 samples lie beyond it
# The reference kernel's time on an uncontended 2-vCPU Xeon VM: timed
# figures are scaled to this speed (see Calibration).
REF_S = 0.002
REF_EVERY_S = 0.05  # at most this much timed work between two samples

END_TO_END_UNITS = {"op_s_p50": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_library() -> None:
    """Put ./src first on the path; refuse to run without it, so that an
    installed copy of the library is never measured by mistake."""
    src = ROOT / "src"
    if not (src / "mmsalloc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {src / 'mmsalloc'}")
    sys.path.insert(0, str(src))


def reference_kernel() -> Fraction:
    """Fixed pure-Python work shaped like the library's hot paths (Fraction
    arithmetic, a keyed sort, a generator sum) that calls nothing of the
    library, so no change to the library changes its cost."""
    rng = random.Random(7)
    row = [Fraction(rng.randint(1, 1000), rng.randint(1, 50)) for _ in range(120)]
    order = sorted(range(len(row)), key=lambda j: (-row[j], j))
    total = sum(row, Fraction(0))
    return sum((row[j] * 7 / total for j in order), Fraction(0))


class Calibration:
    """Times of the reference kernel, sampled between units of timed work.

    The shared host runs identical work at two speeds, nearly 2x apart, and
    switches between them every few milliseconds to several seconds; one
    second can spend anything from a fifth to all of its time in the slow
    one.  Sampled at most REF_EVERY_S apart over the same stretch of time as
    the work, the kernel's mean time tracks the host's mean speed, and
    ``scale`` turns seconds measured in the run into seconds at the speed
    where the kernel takes REF_S.  A change to the library moves the work's
    time and not the kernel's, so it shows in full."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def due(self) -> None:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return REF_S / statistics.fmean(self.samples)


def build_pool(workload, seed: int, cal: Calibration) -> tuple[list, float]:
    """The workload's pool, and the seconds spent building it, with
    reference samples taken between instances and left out of the time."""
    pool, seconds = [], 0.0
    for index in range(workload.pool_size):
        cal.due()
        t0 = time.perf_counter()
        pool += workload.cases(seed, index)
        seconds += time.perf_counter() - t0
    cal.sample()
    return pool, seconds


class Phase:
    """The ops of one measured phase, in the order they ran."""

    def __init__(self):
        self.cases = []
        self.times: list[float] = []
        self.outcomes = []  # None where the op raised
        self.wall = 0.0
        self.cal = Calibration()


def run_phase(workload, cases, *, seconds=None, count=None, tracer=None) -> Phase:
    """Run ops over ``cases`` in order, wrapping around, until ``seconds``
    of wall time have passed or ``count`` ops have run.  Reference samples
    are taken between ops and left out of their times."""
    import workloads  # here, not at the top: it needs load_library() first

    phase = Phase()
    clock = time.perf_counter
    start = clock()
    while True:
        i = len(phase.times)
        case = cases[i % len(cases)]
        phase.cal.due()
        if tracer is not None:
            tracer.op, tracer.instance = i, case.instance_id
        t0 = clock()
        try:
            result = workloads.run_op(case, workload.certify)
        except Exception:  # a failed op is counted, and the run goes on
            result = None
            print(f"op {i} ({case.family} #{case.instance_id}) raised:", file=sys.stderr)
            traceback.print_exc()
        phase.times.append(clock() - t0)
        phase.cases.append(case)
        phase.outcomes.append(None if result is None else workloads.outcome(case, result))
        if count is not None and len(phase.times) >= count:
            break
        if count is None and clock() - start >= seconds:
            break
    phase.cal.sample()
    phase.wall = clock() - start
    return phase


def op_ok(workload, key, out, expected: dict) -> bool:
    """An op passes if it returned a partition, certified where the workload
    certifies, and its digest matches the pinned one, or else the digest of
    the first run of the same case in this process."""
    if out is None or not out.partition_ok:
        return False
    if workload.certify and not out.certified:
        return False
    return expected.setdefault(key, out.digest) == out.digest


def census(outcomes, families) -> dict:
    """Share of ops with at least one fixed removal, tentative removal and
    update-loop iteration, over all ops and per instance family."""
    import workloads

    groups = {"all": [o.census for o in outcomes if o]}
    for out, family in zip(outcomes, families):
        if out:
            groups.setdefault(family, []).append(out.census)
    table = {}
    for group, rows in groups.items():
        table[group] = {}
        for k, name in enumerate(workloads.CENSUS_FIELDS):
            flags = [row[k] for row in rows]
            if flags and None not in flags:
                table[group][name] = sum(flags) / len(flags)
    return table


def kind_median(phase: Phase) -> float:
    """Median, over the kinds of op in the run, of each kind's median wall
    time.  On the poly34 workloads a kind is one pooled instance, solved
    once per pass.  On certify_small, which never repeats an instance, a
    kind is one (algorithm, n, m) cell; a median within it keeps the rare
    instance whose search runs long from swaying the figure."""
    samples: dict[str, list[float]] = {}
    for case, t in zip(phase.cases, phase.times):
        samples.setdefault(case.kind, []).append(t)
    return statistics.median(statistics.median(ts) for ts in samples.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    pins = json.loads((HERE / "pins.json").read_text())

    # The first build ran up to twice as slow as later ones in probes, like
    # the first op, so it is left untimed; so is the kernel's first call.
    reference_kernel()
    pool = workload.pool(args.seed)
    setup_cal = Calibration()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        pool = None  # let the previous pool go before building the next
        pool, seconds = build_pool(workload, args.seed, setup_cal)
        setup_times.append(seconds)

    expected: dict = {}
    reference_expected: dict = {}
    if not workload.certify:
        digests = pins["digests"][workload.name]
        reference_expected[0] = digests[0]
        if args.seed == pins["seed"]:
            expected.update(enumerate(digests))

    warmup = run_phase(workload, [workload.reference()], count=1)
    ok = [op_ok(workload, 0, warmup.outcomes[0], reference_expected)]

    # A traced run splits its time between the plain pass and the replay.
    seconds = args.seconds / 2 if args.trace else args.seconds
    measured = run_phase(workload, pool, seconds=seconds)
    ok += [op_ok(workload, i % len(pool), o, expected) for i, o in enumerate(measured.outcomes)]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "warmup_s": warmup.times[0],
        "ops": len(measured.times),
        "ops_per_s": len(measured.times) / measured.wall,
        "op_s_p50_all_ops": statistics.median(measured.times),
        "op_s_p50_wall": kind_median(measured),
        "setup_s_wall": statistics.median(setup_times),
        "ref_scale": measured.cal.scale(),
        "ref_samples": len(measured.cal.samples),
        "census": census(measured.outcomes, [c.family for c in measured.cases]),
    }
    if len(measured.times) >= P90_MIN_OPS:
        report["op_s_p90"] = tracing.nearest_rank(measured.times, 0.9)
    ratios = [o.min_ratio for o in measured.outcomes if o and o.min_ratio is not None]
    if ratios:
        report["min_certified_ratio"] = float(min(ratios))

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, measured.cases, count=len(measured.cases), tracer=tracer)
        finally:
            tracer.restore()
        ok += [op_ok(workload, i % len(pool), o, expected) for i, o in enumerate(traced.outcomes)]
        values, absent = tracer.metrics()
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        values["trace.overhead_frac"] = 1 - (sum(measured.times) * measured.cal.scale()) / (
            sum(traced.times) * traced.cal.scale()
        )
        values["trace.ops"] = len(traced.times)
        units.update({"trace.overhead_frac": "ratio", "trace.ops": "count"})
        for name in workloads.CENSUS_FIELDS:
            units[name] = "ratio"
            if name in report["census"].get("all", {}):
                values[name] = report["census"]["all"][name]
            else:
                absent.append(name)
        report["absent"] = absent + [f"target {t}" for t in tracer.absent_targets]
        tracer.write(ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        values = {
            "op_s_p50": kind_median(measured) * measured.cal.scale(),
            "setup_s": statistics.median(setup_times) * setup_cal.scale(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    failed = ok.count(False)
    report["failed_frac"] = failed / len(ok)
    report["metrics"] = metrics
    print(json.dumps(report), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(ok), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
