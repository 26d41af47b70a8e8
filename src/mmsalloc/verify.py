"""Independent certification of allocations and solver state structure.

Everything here recomputes maximin shares from the original instance with
the exact oracle; nothing trusts solver bookkeeping.  These checks are
meant for desk-scale instances (the oracle is exponential in the item
count); beyond the cap the guarantee rests on the algorithm, not on us.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .bags import bag_layout
from .errors import InputError
from .model import Instance, Allocation
from .oracle import DEFAULT_CAP, exact_mms
from .reduction import FIXED_SHAPES, ReductionState, candidate_bundles


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


def check_alpha_mms(
    inst: Instance,
    alloc: Allocation,
    alpha: Fraction,
    oracle_cap: int = DEFAULT_CAP,
) -> VerifyReport:
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
        mms = exact_mms(inst.values[i], inst.n, cap=oracle_cap).value
        got = inst.bundle_value(i, alloc.bundles[i])
        if mms == 0:
            rows.append(VerifyAgent(i, got, mms, None, True))
        else:
            ratio = got / mms
            rows.append(VerifyAgent(i, got, mms, ratio, ratio >= alpha))
    return VerifyReport(alpha, tuple(rows), all(r.ok for r in rows))


def check_valid_reduction(
    inst: Instance,
    agent: int,
    bundle: tuple[int, ...],
    alpha: Fraction,
    oracle_cap: int = DEFAULT_CAP,
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

    mu_agent = exact_mms(inst.values[agent], inst.n, cap=oracle_cap).value
    if inst.bundle_value(agent, bundle) < alpha * mu_agent:
        return False

    rest = [j for j in range(inst.m) if j not in taken]
    for i in range(inst.n):
        if i == agent:
            continue
        before = exact_mms(inst.values[i], inst.n, cap=oracle_cap).value
        row_after = [inst.values[i][j] for j in rest]
        after = exact_mms(row_after, inst.n - 1, cap=oracle_cap).value
        if after < before:
            return False
    return True


def corollary_violations(
    state: ReductionState, margin: Fraction = Fraction(0)
) -> list[dict]:
    """The structural bounds that must hold once no removal shape fires.

    Three families per remaining agent, all strict: each agent values each
    of the three fixed removal bundles of ``candidate_bundles`` (the best
    item, the middle pair, the tail triple) under 3/4 + margin.  Returns
    one dict per violated bound; empty means all bounds hold.
    """
    bound = Fraction(3, 4) + margin
    bundles = list(zip(FIXED_SHAPES, candidate_bundles(state)))
    out: list[dict] = []
    for a in state.agents:
        for family, bundle in bundles:
            value = state.bundle_value(a, bundle)
            if not value < bound:
                out.append({"agent": a, "family": family, "value": str(value)})
    return out


def check_corollary_bounds(
    state: ReductionState, margin: Fraction = Fraction(0)
) -> bool:
    """True iff every remaining agent satisfies all three bound families."""
    return not corollary_violations(state, margin)


@dataclass(frozen=True)
class HighBagReport:
    """Structural facts about one agent whose bag layout has an overfull
    bag (value above 1).  The first five fields are exact evaluations of
    what must hold for such an agent; the two witness fields are oracle
    diagnostics on one optimal partition and are None unless requested.

    witness_giver_ok is a sound check (the claim holds for every optimal
    partition, so a failing witness is a real violation).  The single-big
    claim only promises that some optimal partition has at most one large
    item per bundle; the oracle's witness may not be that partition, so
    witness_single_big=False is not a violation.
    """

    agent: int
    in_high_class: bool
    low_nonempty: bool | None = None
    high_nonempty: bool | None = None
    top_item_large: bool | None = None
    bags_capped: bool | None = None
    fillers_small: bool | None = None
    witness_giver_ok: bool | None = None
    witness_single_big: bool | None = None

    def to_json(self) -> dict:
        return {
            "agent": self.agent,
            "in_high_class": self.in_high_class,
            "low_nonempty": self.low_nonempty,
            "high_nonempty": self.high_nonempty,
            "top_item_large": self.top_item_large,
            "bags_capped": self.bags_capped,
            "fillers_small": self.fillers_small,
            "witness_giver_ok": self.witness_giver_ok,
            "witness_single_big": self.witness_single_big,
        }


def check_high_bag_structure(
    state: ReductionState,
    agent: int,
    with_oracle: bool = False,
    oracle_cap: int = DEFAULT_CAP,
) -> HighBagReport:
    """Evaluate the structure forced on an agent with an overfull bag.

    On a state where no removal shape fires and rows sum to the agent
    count, an agent who values some bag above 1 must also: value some bag
    below 3/4, value her best item above 5/8, value every bag below 9/8,
    and value every non-bag item below 1/8.  Agents without an overfull
    bag get in_high_class=False and no further fields.
    """
    if agent not in state.agents:
        raise InputError(f"agent {agent} is not in the state")
    items = state.items
    row = state.vals[agent]
    bags, fillers = bag_layout(state)
    bag_values = [state.bundle_value(agent, bag) for bag in bags]

    high = [v for v in bag_values if v > 1]
    if not high:
        return HighBagReport(agent=agent, in_high_class=False)
    low = [v for v in bag_values if v < Fraction(3, 4)]

    report = HighBagReport(
        agent=agent,
        in_high_class=True,
        low_nonempty=bool(low),
        high_nonempty=True,
        top_item_large=row[items[0]] > Fraction(5, 8),
        bags_capped=all(v < Fraction(9, 8) for v in bag_values),
        fillers_small=all(row[j] < Fraction(1, 8) for j in fillers),
    )
    if not with_oracle:
        return report

    current_row = [row[j] for j in items]
    covered = len(items) - len(fillers)
    witness = exact_mms(current_row, len(state.agents), cap=oracle_cap).partition
    giver = any(
        sum((current_row[p] for p in part if p >= covered), Fraction(0))
        > Fraction(1, 4)
        for part in witness
    )
    single_big = all(
        sum(1 for p in part if current_row[p] > Fraction(5, 8)) <= 1
        for part in witness
    )
    return replace(report, witness_giver_ok=giver, witness_single_big=single_big)
