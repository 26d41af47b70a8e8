"""Seeded workloads: the instances each one builds and the operation it times.

Every instance is derived from (workload, seed, index) alone, so the same
seed gives the same instance bytes on every run and platform.  Generation
is set-up; an operation (op) is one solve, plus its certification on the
workloads that certify.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mmsalloc

DEFAULT_SEED = 0
ALPHA_BASE = Fraction(3, 4)

# Sizes are chosen so one poly34 op takes 0.5-1.5 s on a 2-core Xeon VM.  A
# 35 s run makes two or more passes over the uniform pool and about one and
# a half over the cascade pool, whose 24 instances average out how often the
# near family's update loop fires.
UNIFORM_N, UNIFORM_M, UNIFORM_POOL = 60, 600, 8
REMOVAL_N = 40  # 40 large items + 120 fillers: ~36 fixed removals per solve
NEAR_N = 50  # 250 items: the update loop fires 8-14 times, no removals
CASCADE_POOL = 24
# Enough instances that no run at the parent commit gets through the pool,
# so a cache that lives across instances has nothing to reuse.
CERTIFY_POOL = 8000
CERTIFY_SIZES = tuple((n, m) for n in range(2, 5) for m in range(n + 1, 15))
CERTIFY_DISTS = ("uniform:1:100", "correlated:20:100:10")
CERTIFY_ALGORITHMS = ("poly34", "exist34", "exist34plus")


@dataclass(frozen=True)
class Case:
    """The input of one op: an instance, its pool index and family, the
    algorithm to run on it, and the kind of op it is.  Ops of one kind do
    the same work, or work of the same shape, so their times are averaged."""

    instance_id: int
    family: str
    algorithm: str
    inst: mmsalloc.Instance
    kind: str


# Census property -> the SolveStats field that counts it.
CENSUS_FIELDS = {
    "census.fixed_op_frac": "fixed_assignments",
    "census.tentative_op_frac": "tentative_assignments",
    "census.loop_op_frac": "update_loop_iterations",
}


@dataclass(frozen=True)
class Outcome:
    """What one op returned, reduced to what the checks and census need, so
    that a run does not keep every allocation alive."""

    digest: str
    partition_ok: bool
    certified: bool | None  # None where the workload does not certify
    min_ratio: Fraction | None  # worst certified ratio; None if no share > 0
    census: tuple[bool | None, ...]  # per CENSUS_FIELDS; None if the field is gone


def subseed(workload: str, seed: int, index: int) -> int:
    """A 64-bit generator seed for one instance, stable across platforms."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _shuffled_columns(rng: random.Random, rows: list[list[int]]) -> mmsalloc.Instance:
    # One column permutation for every agent, so big items stay shared and
    # sorting and lifting have real work to do.
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    return mmsalloc.make_instance([[row[p] for p in perm] for row in rows])


def removal_instance(rng: random.Random, n: int = REMOVAL_N) -> mmsalloc.Instance:
    """Per agent, n items in [800, 1000] and 3n fillers in [1, 20]: the fixed
    phase removes almost every agent, so row renormalization dominates."""
    rows = [
        [rng.randint(800, 1000) for _ in range(n)]
        + [rng.randint(1, 20) for _ in range(3 * n)]
        for _ in range(n)
    ]
    return _shuffled_columns(rng, rows)


def near_instance(rng: random.Random, n: int = NEAR_N) -> mmsalloc.Instance:
    """Per agent, n-1 items in [6500, 6700], one in [3740, 3760], n in
    [3680, 3720] and 3n fillers in [1, 20]: bags sit just around the
    thresholds, so the update loop (undo, rescale, rerun) fires."""
    rows = [
        [rng.randint(6500, 6700) for _ in range(n - 1)]
        + [rng.randint(3740, 3760)]
        + [rng.randint(3680, 3720) for _ in range(n)]
        + [rng.randint(1, 20) for _ in range(3 * n)]
        for _ in range(n)
    ]
    return _shuffled_columns(rng, rows)


def _uniform_cases(seed: int, index: int) -> list[Case]:
    spec = mmsalloc.make_spec(
        UNIFORM_N, UNIFORM_M, "uniform:1:1000", subseed("poly34_uniform", seed, index)
    )
    return [Case(index, "uniform", "poly34", mmsalloc.gen_instance(spec), f"#{index}")]


def _cascade_cases(seed: int, index: int) -> list[Case]:
    rng = random.Random(subseed("poly34_cascade", seed, index))
    if index % 2 == 0:
        return [Case(index, "removal", "poly34", removal_instance(rng), f"#{index}")]
    return [Case(index, "near", "poly34", near_instance(rng), f"#{index}")]


def _certify_cases(seed: int, index: int) -> list[Case]:
    # Sizes and distributions cycle deterministically; only values vary with
    # the seed, which keeps the mix of cheap and costly oracle calls steady.
    n, m = CERTIFY_SIZES[(index // 2) % len(CERTIFY_SIZES)]
    dist = CERTIFY_DISTS[index % 2]
    spec = mmsalloc.make_spec(n, m, dist, subseed("certify_small", seed, index))
    inst = mmsalloc.gen_instance(spec)
    family = dist.split(":")[0]
    return [
        Case(index, family, alg, inst, f"{alg} n={n} m={m}")
        for alg in CERTIFY_ALGORITHMS
    ]


@dataclass(frozen=True)
class Workload:
    """A named pool of cases.  Workloads that certify check every op with
    check_alpha_mms; the others are too large for the oracle, so their
    digests are pinned in pins.json instead."""

    name: str
    pool_size: int
    cases: Callable[[int, int], list[Case]]  # (seed, instance index) -> ops
    certify: bool

    def pool(self, seed: int) -> list[Case]:
        return [c for i in range(self.pool_size) for c in self.cases(seed, i)]

    def reference(self) -> Case:
        """The warm-up op: instance 0 of the default seed, checked like any
        op, so on the pinned workloads every run checks one pinned digest."""
        return self.cases(DEFAULT_SEED, 0)[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poly34_uniform", UNIFORM_POOL, _uniform_cases, certify=False),
        Workload("poly34_cascade", CASCADE_POOL, _cascade_cases, certify=False),
        Workload("certify_small", CERTIFY_POOL, _certify_cases, certify=True),
    )
}


def target_alpha(case: Case) -> Fraction:
    """The guarantee each algorithm promises: 3/4, or 3/4 + 1/(12n)."""
    if case.algorithm == "exist34plus":
        return ALPHA_BASE + Fraction(1, 12 * case.inst.n)
    return ALPHA_BASE


def solve(case: Case):
    if case.algorithm == "poly34":
        return mmsalloc.solve_poly34(case.inst)
    mode = mmsalloc.MODE_PLUS if case.algorithm == "exist34plus" else mmsalloc.MODE_BASE
    return mmsalloc.solve_existence(case.inst, mode)


def run_op(case: Case, certify: bool):
    """One op: solve, and certify when the workload does.  Checks that need
    no oracle are left to ``outcome`` so they stay out of the op's time."""
    alloc, stats = solve(case)
    report = mmsalloc.check_alpha_mms(case.inst, alloc, target_alpha(case)) if certify else None
    return alloc, stats, report


def digest(alloc) -> str:
    """Hash of bundles, leftovers and leftover agent; stats are left out so
    that reshaping the solver's telemetry does not change it."""
    body = json.dumps(
        [alloc.bundles, alloc.leftovers, alloc.leftover_agent], separators=(",", ":")
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def partitions(alloc, n: int, m: int) -> bool:
    """Bundles give every item to exactly one of the n agents, and the
    recorded leftovers sit in the leftover agent's bundle."""
    if len(alloc.bundles) != n:
        return False
    items = sorted(j for bundle in alloc.bundles for j in bundle)
    if items != list(range(m)):
        return False
    if not alloc.leftovers:
        return True
    agent = alloc.leftover_agent
    return agent is not None and 0 <= agent < n and set(alloc.leftovers) <= set(alloc.bundles[agent])


def outcome(case: Case, result) -> Outcome:
    alloc, stats, report = result
    certified = min_ratio = None
    if report is not None:
        certified = report.overall and report.alpha == target_alpha(case)
        ratios = [row.ratio for row in report.per_agent if row.ratio is not None]
        min_ratio = min(ratios) if ratios else None
    counts = [getattr(stats, field, None) for field in CENSUS_FIELDS.values()]
    return Outcome(
        digest(alloc),
        partitions(alloc, case.inst.n, case.inst.m),
        certified,
        min_ratio,
        tuple(None if c is None else c > 0 for c in counts),
    )
