"""Oracle-backed audits of the solver's removals and fixed-phase states.

These check solver internals, not results: ``check_valid_reduction`` audits
one logged removal against exact shares of the instance it was made on, and
``corollary_violations`` lists the structural bounds a state breaks once no
fixed removal shape fires.  The certifier of allocations is
``mmsalloc.verify``; nothing in the package calls these.
"""

from __future__ import annotations

from fractions import Fraction

from mmsalloc.errors import InputError
from mmsalloc.model import Instance
from mmsalloc.oracle import exact_mms
from mmsalloc.reduction import DEFAULT_ALPHA, FIXED_SHAPES, ReductionState, candidate_bundles


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

    row = inst.rows[agent]
    if sum(row[j] for j in bundle) < alpha * exact_mms(row, inst.n).value:
        return False

    rest = [j for j in range(inst.m) if j not in taken]
    for i, row in enumerate(inst.rows):
        if i == agent:
            continue
        before = exact_mms(row, inst.n).value
        after = exact_mms([row[j] for j in rest], inst.n - 1).value
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
