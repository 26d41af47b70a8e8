"""Command-line front end.

Subcommands: solve (run an allocator on an instance file), mms (exact
maximin share of one valuation row), verify (certify an allocation file),
gen (seeded random instance), bench (CSV sweep over seeded instances).

Exit codes: 0 success, 1 guarantee verification failed, 2 bad input,
3 internal invariant violation.  All solver arithmetic is exact; the only
float anywhere is the wall-time column in bench output.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from fractions import Fraction

from .errors import InputError, InvariantViolation
from .generate import gen_instance, make_spec
from .jsonio import (
    allocation_to_json,
    dump_json,
    instance_to_json,
    load_allocation,
    load_instance,
    parse_alpha,
)
from .model import as_rational
from .oracle import DEFAULT_CAP, exact_mms
from .solver import (
    ALPHA_BASE,
    MODE_BASE,
    MODE_PLUS,
    gamma_constant,
    solve_existence,
    solve_poly34,
)
from .verify import check_alpha_mms

ALGORITHMS = ("poly34", "exist34", "exist34plus")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def run_algorithm(name: str, inst, oracle_cap: int):
    """Run the allocator named by ``name`` (one of ALGORITHMS)."""
    if name == "poly34":
        return solve_poly34(inst)
    if name == "exist34":
        return solve_existence(inst, MODE_BASE, oracle_cap=oracle_cap)
    if name == "exist34plus":
        return solve_existence(inst, MODE_PLUS, oracle_cap=oracle_cap)
    raise InputError(f"unknown algorithm {name!r}")


def target_alpha(name: str, n: int) -> Fraction:
    """The guarantee fraction the named allocator promises for n agents."""
    if name == "exist34plus":
        return ALPHA_BASE + gamma_constant(n)
    return ALPHA_BASE


def _cmd_solve(args) -> int:
    inst = load_instance(_read_text(args.input))
    alloc, _stats = run_algorithm(args.algorithm, inst, args.oracle_cap)
    envelope = allocation_to_json(alloc)
    ok = True
    if args.verify:
        report = check_alpha_mms(
            inst, alloc, target_alpha(args.algorithm, inst.n), args.oracle_cap
        )
        envelope["verify"] = report.to_json()
        ok = report.overall
    _write_text(args.output, dump_json(envelope))
    return 0 if ok else 1


def _cmd_mms(args) -> int:
    tokens = [t.strip() for t in args.values.split(",") if t.strip()]
    if not tokens:
        raise InputError("--values must list at least one value")
    row = [as_rational(t) for t in tokens]
    res = exact_mms(row, args.k, cap=args.oracle_cap)
    print(res.value)
    print(
        ",".join(
            "{" + ",".join(str(row[p]) for p in part) + "}"
            for part in res.partition
        )
    )
    return 0


def _cmd_verify(args) -> int:
    inst = load_instance(_read_text(args.input))
    alloc = load_allocation(_read_text(args.allocation))
    report = check_alpha_mms(inst, alloc, parse_alpha(args.alpha), args.oracle_cap)
    _write_text(args.output, dump_json(report.to_json()))
    return 0 if report.overall else 1


def _cmd_gen(args) -> int:
    spec = make_spec(args.n, args.m, args.dist, args.seed)
    inst = gen_instance(spec)
    _write_text(args.output, dump_json(instance_to_json(inst)))
    return 0


def _cmd_bench(args) -> int:
    names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for name in names:
        if name not in ALGORITHMS:
            raise InputError(
                f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}"
            )
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")

    out = sys.stdout
    if args.output not in (None, "-"):
        try:
            out = open(args.output, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            [
                "trial",
                "algorithm",
                "n",
                "m",
                "seed",
                "min_ratio",
                "update_loop_iterations",
                "bag_rounds",
                "wall_time_s",
            ]
        )
        for trial in range(args.trials):
            seed = args.seed + trial
            inst = gen_instance(make_spec(args.n, args.m, args.dist, seed))
            for name in names:
                start = time.perf_counter()
                alloc, stats = run_algorithm(name, inst, args.oracle_cap)
                wall = time.perf_counter() - start
                report = check_alpha_mms(
                    inst, alloc, target_alpha(name, inst.n), args.oracle_cap
                )
                ratios = [r.ratio for r in report.per_agent if r.ratio is not None]
                min_ratio = str(min(ratios)) if ratios else "NA"
                writer.writerow(
                    [
                        trial,
                        name,
                        inst.n,
                        inst.m,
                        seed,
                        min_ratio,
                        stats.update_loop_iterations,
                        stats.bag_rounds,
                        f"{wall:.6f}",
                    ]
                )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsalloc",
        description="Approximate maximin-share allocation of indivisible items.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="allocate the items of an instance file")
    p.add_argument("--input", required=True, help="instance JSON file, or - for stdin")
    p.add_argument("--output", default=None, help="allocation JSON file (default stdout)")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="poly34")
    p.add_argument(
        "--verify",
        action="store_true",
        help="certify the result against exact shares (oracle-sized instances)",
    )
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mms", help="exact maximin share of one valuation row")
    p.add_argument("--values", required=True, help="comma-separated values, e.g. 4,3,2,1")
    p.add_argument("--k", type=int, required=True, help="number of bundles")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("verify", help="certify an allocation file")
    p.add_argument("--input", required=True, help="instance JSON file, or - for stdin")
    p.add_argument("--allocation", required=True, help="allocation JSON file")
    p.add_argument("--alpha", default="3/4", help="guarantee fraction, e.g. 3/4")
    p.add_argument("--output", default=None, help="report JSON file (default stdout)")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True, help="agent count")
    p.add_argument("--m", type=int, required=True, help="item count")
    p.add_argument(
        "--dist",
        default="uniform:1:100",
        help="uniform:LO:HI | correlated:LO:HI:NOISE | identical:LO:HI",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="instance JSON file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="seeded sweep; one CSV row per trial and algorithm")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="trial t uses seed SEED+t")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--dist", default="uniform:1:100")
    p.add_argument("--algorithms", default="poly34", help="comma-separated subset of: " + ",".join(ALGORITHMS))
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--output", default=None, help="CSV file (default stdout)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
