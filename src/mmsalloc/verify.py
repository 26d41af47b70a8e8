"""Independent certification of allocations and solver state structure.

Everything here recomputes maximin shares from the original instance with
the exact oracle; nothing trusts solver bookkeeping.  These checks are
meant for desk-scale instances (the oracle is exponential in the item
count and stops at ``ORACLE_CAP``); beyond it the guarantee rests on the
algorithm, not on us.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .model import Instance, Allocation
from .oracle import exact_mms
from .reduction import DEFAULT_ALPHA, FIXED_SHAPES, ReductionState, candidate_bundles


@dataclass(frozen=True)
class VerifyAgent:
    """One row of a verification report; ratio is None when the share is
    zero (any bundle satisfies such an agent)."""

    agent: int
    bundle_value: Fraction
    mms: Fraction
    ratio: Fraction | None
    ok: bool

    def to_json(self) -> dict:
        return {
            "agent": self.agent,
            "bundle_value": str(self.bundle_value),
            "mms": str(self.mms),
            "ratio": None if self.ratio is None else str(self.ratio),
            "pass": self.ok,
        }


@dataclass(frozen=True)
class VerifyReport:
    alpha: Fraction
    per_agent: tuple[VerifyAgent, ...]
    overall: bool

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "overall": self.overall,
            "per_agent": [row.to_json() for row in self.per_agent],
        }


def check_alpha_mms(inst: Instance, alloc: Allocation, alpha: Fraction) -> VerifyReport:
    """Certify that every agent's bundle is worth at least alpha times her
    exact maximin share.  The bundles must partition the items."""
    if len(alloc.bundles) != inst.n:
        raise InputError(
            f"allocation has {len(alloc.bundles)} bundles for {inst.n} agents"
        )
    seen: set[int] = set()
    count = 0
    for bundle in alloc.bundles:
        for j in bundle:
            seen.add(j)
            count += 1
    if count != inst.m or seen != set(range(inst.m)):
        raise InputError("bundles do not partition the item set")

    rows = []
    for i in range(inst.n):
        mms = exact_mms(inst.values[i], inst.n).value
        got = inst.bundle_value(i, alloc.bundles[i])
        if mms == 0:
            rows.append(VerifyAgent(i, got, mms, None, True))
        else:
            ratio = got / mms
            rows.append(VerifyAgent(i, got, mms, ratio, ratio >= alpha))
    return VerifyReport(alpha, tuple(rows), all(r.ok for r in rows))


def check_valid_reduction(
    inst: Instance, agent: int, bundle: tuple[int, ...], alpha: Fraction
) -> bool:
    """True iff removing (agent, bundle) from the instance is harmless:
    the receiver gets at least alpha times her share, and no survivor's
    share at the reduced agent count drops below her share at the full
    count.  Both sides are computed with the exact oracle.  The bundle must
    list distinct items of the instance (InputError otherwise)."""
    if inst.n < 2:
        raise InputError("a reduction check needs at least two agents")
    if agent < 0 or agent >= inst.n:
        raise InputError(f"agent {agent} out of range")
    taken = set(bundle)
    if len(taken) != len(bundle):
        raise InputError("bundle repeats an item")
    if not taken <= set(range(inst.m)):
        raise InputError("bundle mentions items outside the instance")

    mu_agent = exact_mms(inst.values[agent], inst.n).value
    if inst.bundle_value(agent, bundle) < alpha * mu_agent:
        return False

    rest = [j for j in range(inst.m) if j not in taken]
    for i in range(inst.n):
        if i == agent:
            continue
        before = exact_mms(inst.values[i], inst.n).value
        row_after = [inst.values[i][j] for j in rest]
        after = exact_mms(row_after, inst.n - 1).value
        if after < before:
            return False
    return True


def corollary_violations(state: ReductionState) -> list[dict]:
    """The structural bounds that must hold once no removal shape fires.

    Three families per remaining agent, all strict: each agent values each
    of the three fixed removal bundles of ``candidate_bundles`` (the best
    item, the middle pair, the tail triple) under 3/4.  Returns one dict
    per violated bound; empty means all bounds hold.
    """
    bundles = list(zip(FIXED_SHAPES, candidate_bundles(state)))
    out: list[dict] = []
    for a in state.agents:
        for family, bundle in bundles:
            value = state.bundle_value(a, bundle)
            if not value < DEFAULT_ALPHA:
                out.append({"agent": a, "family": family, "value": str(value)})
    return out
