"""Command-line front end.

Subcommands: solve (run an allocator on an instance file), mms (exact
maximin share of one valuation row), verify (certify an allocation file),
gen (seeded random instance), bench (seeded sweep: one CSV row per trial
and algorithm, every result certified, per-algorithm tallies on stderr).

Exit codes: 0 success, 1 guarantee verification failed, 2 bad input,
3 internal invariant violation.  All arithmetic is exact and every output
is byte-deterministic.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
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
from .oracle import ORACLE_CAP, exact_mms
from .reduction import DEFAULT_ALPHA
from .solver import (
    MODE_BASE,
    MODE_PLUS,
    gamma_constant,
    solve_existence,
    solve_poly34,
)
from .verify import check_alpha_mms

ALGORITHMS = ("poly34", "exist34", "exist34plus")
BENCH_COLUMNS = "trial,algorithm,n,m,seed,min_ratio,update_loop_iterations,bag_rounds"


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


def run_algorithm(name: str, inst):
    """Run the allocator named by ``name`` (one of ALGORITHMS)."""
    if name == "poly34":
        return solve_poly34(inst)
    if name == "exist34":
        return solve_existence(inst, MODE_BASE)
    if name == "exist34plus":
        return solve_existence(inst, MODE_PLUS)
    raise InputError(f"unknown algorithm {name!r}")


def target_alpha(name: str, n: int) -> Fraction:
    """The guarantee fraction the named allocator promises for n agents."""
    if name == "exist34plus":
        return DEFAULT_ALPHA + gamma_constant(n)
    return DEFAULT_ALPHA


def _cmd_solve(args) -> int:
    inst = load_instance(_read_text(args.input))
    if args.verify and inst.m > ORACLE_CAP:  # refuse before solving, as exact_mms would after
        raise InputError(f"{inst.m} items exceeds the search cap of {ORACLE_CAP}")
    alloc, stats = run_algorithm(args.algorithm, inst)
    envelope = allocation_to_json(alloc, stats)
    ok = True
    if args.verify:
        report = check_alpha_mms(inst, alloc, target_alpha(args.algorithm, inst.n))
        envelope["verify"] = report.to_json()
        ok = report.overall
    _write_text(args.output, dump_json(envelope))
    return 0 if ok else 1


def _cmd_mms(args) -> int:
    if args.k > ORACLE_CAP:  # past it every share is 0, with k witness bundles to print
        raise InputError(f"--k {args.k} exceeds the oracle cap of {ORACLE_CAP}")
    tokens = [t.strip() for t in args.values.split(",")]
    if "" in tokens:
        raise InputError(f"--values has an empty field: {args.values!r}")
    row = [as_rational(t) for t in tokens]
    res = exact_mms(row, args.k)
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
    report = check_alpha_mms(inst, alloc, parse_alpha(args.alpha))
    _write_text(args.output, dump_json(report.to_json()))
    return 0 if report.overall else 1


def _cmd_gen(args) -> int:
    spec = make_spec(args.n, args.m, args.dist, args.seed)
    inst = gen_instance(spec)
    _write_text(args.output, dump_json(instance_to_json(inst)))
    return 0


def _parse_range(flag: str, text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        bounds = int(lo), int(hi if sep else lo)
    except ValueError:
        raise InputError(f"{flag} must be N or LO:HI, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise InputError(f"{flag} {text} is an empty range")
    return bounds


def _bench_specs(args) -> list:
    """One instance spec per trial, every bound checked up front.

    Trial t cycles n through the --n range, then m through the part of the
    --m range at or above that n, and uses seed SEED+t."""
    n_lo, n_hi = _parse_range("--n", args.n)
    m_lo, m_hi = _parse_range("--m", args.m)
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    if n_lo < 1:
        raise InputError(f"--n must be >= 1, got {n_lo}")
    if m_hi < n_hi:
        raise InputError(f"--m {m_hi} is below --n {n_hi}; trials need m >= n")
    if m_hi > ORACLE_CAP:
        raise InputError(f"--m {m_hi} exceeds the oracle cap of {ORACLE_CAP}")
    specs = []
    for t in range(args.trials):
        n = n_lo + t % (n_hi - n_lo + 1)
        lo = max(m_lo, n)
        m = lo + t % (m_hi - lo + 1)
        specs.append(make_spec(n, m, args.dist, args.seed + t))
    return specs


@dataclass
class _Tally:
    """What one algorithm did over a bench sweep; printed to stderr."""

    worst: tuple[Fraction, int] | None = None  # (ratio, seed)
    on_line: int = 0
    agents: int = 0
    loop_trials: int = 0
    tentative_trials: int = 0
    failing: list[int] = field(default_factory=list)

    def add(self, seed, ratios, alpha, stats, ok) -> None:
        if ratios and (self.worst is None or min(ratios) < self.worst[0]):
            self.worst = (min(ratios), seed)
        self.on_line += ratios.count(alpha)
        self.agents += len(ratios)
        self.loop_trials += stats.update_loop_iterations > 0
        self.tentative_trials += stats.tentative_assignments > 0
        if not ok:
            self.failing.append(seed)

    def summary(self, trials: int) -> str:
        worst = "NA" if self.worst is None else "{} (seed {})".format(*self.worst)
        failing = " ".join(map(str, self.failing)) or "none"
        return (
            f"  worst ratio         {worst}\n"
            f"  on the line         {self.on_line} / {self.agents} positive-share agents\n"
            f"  update loop ran     {self.loop_trials} / {trials} trials\n"
            f"  tentative removals  {self.tentative_trials} / {trials} trials\n"
            f"  failing seeds       {failing}"
        )


def _cmd_bench(args) -> int:
    names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not names or len(set(names)) < len(names):
        raise InputError(f"--algorithms must name each algorithm once, got {args.algorithms!r}")
    for name in names:
        if name not in ALGORITHMS:
            raise InputError(
                f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}"
            )
    specs = _bench_specs(args)

    out = sys.stdout
    if args.output not in (None, "-"):
        try:
            out = open(args.output, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    tallies = {name: _Tally() for name in names}
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS.split(","))
        for trial, spec in enumerate(specs):
            inst = gen_instance(spec)
            # One set of exact shares certifies every algorithm's allocation.
            shares = [int(exact_mms(row, inst.n).value) for row in inst.rows]
            for name in names:
                alloc, stats = run_algorithm(name, inst)
                alpha = target_alpha(name, inst.n)
                report = check_alpha_mms(inst, alloc, alpha, shares)
                ratios = [r.ratio for r in report.per_agent if r.ratio is not None]
                tallies[name].add(spec.seed, ratios, alpha, stats, report.overall)
                min_ratio = str(min(ratios)) if ratios else "NA"
                writer.writerow(
                    [trial, name, inst.n, inst.m, spec.seed, min_ratio]
                    + [stats.update_loop_iterations, stats.bag_rounds]
                )
    finally:
        if out is not sys.stdout:
            out.close()
    for name, tally in tallies.items():
        print(f"{name}:\n{tally.summary(len(specs))}", file=sys.stderr)
    return 1 if any(t.failing for t in tallies.values()) else 0


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
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mms", help="exact maximin share of one valuation row")
    p.add_argument("--values", required=True, help="comma-separated values, e.g. 4,3,2,1")
    p.add_argument("--k", type=int, required=True, help="number of bundles")
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("verify", help="certify an allocation file")
    p.add_argument("--input", required=True, help="instance JSON file, or - for stdin")
    p.add_argument("--allocation", required=True, help="allocation JSON file")
    p.add_argument("--alpha", default="3/4", help="guarantee fraction, e.g. 3/4")
    p.add_argument("--output", default=None, help="report JSON file (default stdout)")
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
    p.add_argument("--n", default="3", help="agent count N, or a range LO:HI")
    p.add_argument("--m", default="10", help="item count M, or a range LO:HI")
    p.add_argument("--dist", default="uniform:1:100")
    p.add_argument("--algorithms", default="poly34", help="comma-separated subset of: " + ",".join(ALGORITHMS))
    p.add_argument("--output", default=None, help="CSV file (default stdout)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        if not isinstance(exc, InputError) and "integer string conversion" not in str(exc):
            raise  # only str() of an int past sys.get_int_max_str_digits() is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
