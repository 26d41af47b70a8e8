"""Measure how the exact maximin-share oracle scales with item count.

The oracle is a depth-first search over bundle assignments with a
water-filling bound and symmetry pruning.  Its first leaf is the
largest-first greedy assignment, which seeds the incumbent.  Its cost
grows exponentially in the item count but is very sensitive to value
structure.  This script times it on uniform random rows for a grid of
(m, k) and prints one row per cell with the median and the maximum wall
time, in seconds to the microsecond.  Both are over --trials fresh rows;
values are integers in [0, 100].

Example commands:
  python3 scripts/oracle_bench.py
  python3 scripts/oracle_bench.py --m-max 20 --k 2,3,4 --trials 9
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mmsalloc.oracle import ORACLE_CAP, exact_mms


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m-min", type=int, default=6)
    ap.add_argument("--m-max", type=int, default=16)
    ap.add_argument("--k", default="2,3,4", help="comma-separated bundle counts")
    ap.add_argument("--trials", type=int, default=5, help="rows per (m, k) cell")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        args.ks = [int(tok) for tok in args.k.split(",") if tok.strip()]
    except ValueError:
        ap.error(f"--k must list integers, got {args.k!r}")
    if not args.ks or min(args.ks) < 1:
        ap.error(f"--k must list bundle counts >= 1, got {args.k!r}")
    if args.trials < 1:
        ap.error(f"--trials must be >= 1, got {args.trials}")
    if args.m_max < args.m_min:
        ap.error(f"--m-max {args.m_max} is below --m-min {args.m_min}")
    if args.m_max > ORACLE_CAP:
        ap.error(f"--m-max {args.m_max} exceeds the oracle cap of {ORACLE_CAP}")
    return args


def main() -> int:
    args = parse_args()
    rng = random.Random(args.seed)

    print(f"{'m':>4} {'k':>3} {'median_s':>10} {'max_s':>10}")
    for m in range(args.m_min, args.m_max + 1):
        for k in args.ks:
            if k > m:
                continue
            walls = []
            for _ in range(args.trials):
                row = [rng.randint(0, 100) for _ in range(m)]
                start = time.perf_counter()
                exact_mms(row, k)
                walls.append(time.perf_counter() - start)
            print(
                f"{m:>4} {k:>3} {statistics.median(walls):>10.6f}"
                f" {max(walls):>10.6f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
