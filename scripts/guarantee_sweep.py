"""Sweep seeded random instances and certify every guarantee with the oracle.

For each trial we generate an instance, run the chosen allocators, and have
the verifier recompute exact maximin shares from the original instance.  The
summary reports, per algorithm: the worst observed ratio, how many agents sat
exactly on the guarantee line, and how often the update loop or the bag phase
did any work.  Everything except wall time is exact rational arithmetic.

Example commands:
  python3 scripts/guarantee_sweep.py --count 500
  python3 scripts/guarantee_sweep.py --count 200 --algorithms poly34,exist34plus --n-max 4
  python3 scripts/guarantee_sweep.py --count 50 --dist correlated:0:80:15 --worst 5
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mmsalloc.cli import ALGORITHMS, run_algorithm, target_alpha
from mmsalloc.generate import gen_instance, make_spec
from mmsalloc.oracle import DEFAULT_CAP
from mmsalloc.verify import check_alpha_mms


@dataclass
class AlgoTally:
    worst: Fraction | None = None
    worst_seed: int | None = None
    on_the_line: int = 0
    agents: int = 0
    rescale_runs: int = 0
    tentative_runs: int = 0
    failures: list = field(default_factory=list)
    wall: float = 0.0


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=300, help="number of instances")
    ap.add_argument("--seed", type=int, default=0, help="trial t uses seed SEED+t")
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--m-max", type=int, default=12)
    ap.add_argument("--dist", default="uniform:0:100")
    ap.add_argument(
        "--algorithms",
        default="poly34,exist34,exist34plus",
        help="comma-separated subset of: " + ",".join(ALGORITHMS),
    )
    ap.add_argument("--worst", type=int, default=3, help="report the K worst trials")
    args = ap.parse_args()
    args.names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for name in args.names:
        if name not in ALGORITHMS:
            ap.error(f"unknown algorithm {name!r}")
    if args.n_min < 1:
        ap.error(f"--n-min must be >= 1, got {args.n_min}")
    if args.n_max < args.n_min:
        ap.error(f"--n-max {args.n_max} is below --n-min {args.n_min}")
    if args.m_max < args.n_max:
        ap.error(f"--m-max {args.m_max} is below --n-max {args.n_max}; trials need m >= n")
    if args.m_max > DEFAULT_CAP:
        ap.error(f"--m-max {args.m_max} exceeds the oracle's item cap of {DEFAULT_CAP}")
    return args


def main() -> int:
    args = parse_args()
    names = args.names
    tallies = {name: AlgoTally() for name in names}
    for trial in range(args.count):
        seed = args.seed + trial
        n = args.n_min + trial % (args.n_max + 1 - args.n_min)
        m = n + trial % (args.m_max + 1 - n)
        inst = gen_instance(make_spec(n, m, args.dist, seed))
        for name in names:
            tally = tallies[name]
            start = time.perf_counter()
            alloc, stats = run_algorithm(name, inst, oracle_cap=DEFAULT_CAP)
            tally.wall += time.perf_counter() - start
            target = target_alpha(name, inst.n)
            report = check_alpha_mms(inst, alloc, target)
            if not report.overall:
                tally.failures.append(seed)
            for row in report.per_agent:
                if row.ratio is None:
                    continue
                tally.agents += 1
                if row.ratio == target:
                    tally.on_the_line += 1
                if tally.worst is None or row.ratio < tally.worst:
                    tally.worst = row.ratio
                    tally.worst_seed = seed
            if stats.update_loop_iterations:
                tally.rescale_runs += 1
            if stats.tentative_assignments:
                tally.tentative_runs += 1

    print(f"{args.count} instances, dist {args.dist}, seeds {args.seed}..{args.seed + args.count - 1}")
    for name in names:
        t = tallies[name]
        worst = "NA" if t.worst is None else f"{t.worst} (~{float(t.worst):.4f}, seed {t.worst_seed})"
        print(f"\n{name}:")
        print(f"  worst ratio          {worst}")
        print(f"  agents on the line   {t.on_the_line} / {t.agents}")
        print(f"  trials with rescale  {t.rescale_runs}")
        print(f"  trials with tentative removals  {t.tentative_runs}")
        print(f"  solver wall time     {t.wall:.3f}s total")
        if t.failures:
            print(f"  GUARANTEE FAILURES at seeds: {t.failures[: args.worst]}")
    bad = sum(len(t.failures) for t in tallies.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
