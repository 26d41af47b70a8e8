"""Bag construction, per-agent bag profiles, and the filling loop.

After the reduction phases nothing short of a combined bundle can satisfy
anyone, so the remaining items are dealt into n two-item bags that pair the
j-th largest item with the (2n-j+1)-th: bag k holds positions {k, 2n-k+1}.
Items past position 2n are "fillers".  Each round tops a bag up with fillers
(largest first) until some remaining agent accepts it.

The per-agent profile measures how far the bags are from uniform for that
agent: how many bags sit below the acceptance threshold (and by how much in
total), how many sit above the high-water mark, and how much filler value
exists to make up the difference.  A profile where high bags outnumber low
bags while fillers cannot cover the shortfall is the signal that the
agent's working share bound is overestimated and must be rescaled before
bag filling can be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .reduction import ReductionState

# A profile's low and high bag values, in units of the working share bound.
LOW_BAG = Fraction(3, 4)
HIGH_BAG = Fraction(1)


def init_bags(n: int, item_count: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Bag layout as 1-based positions: bag k pairs position k with 2n-k+1.

    Positions beyond ``item_count`` are omitted (bags may then hold one item
    or even none).

    >>> init_bags(3)
    ((1, 6), (2, 5), (3, 4))
    """
    return tuple(
        tuple(p for p in (k + 1, 2 * n - k) if item_count is None or p <= item_count)
        for k in range(n)
    )


def bag_layout(
    state: ReductionState,
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The bags of ``init_bags`` as item-id tuples for the state's remaining
    agents and items, and the fillers (the items past position 2n, in
    descending value order)."""
    n = len(state.agents)
    items = state.items
    bags = tuple(tuple(items[p - 1] for p in bag) for bag in init_bags(n, len(items)))
    return bags, items[min(2 * n, len(items)):]


@dataclass(frozen=True)
class AgentProfile:
    """How one agent sees the current bag layout.

    low_bags / high_bags count bags strictly below LOW_BAG (3/4) and
    strictly above HIGH_BAG (1); deficit is the total shortfall of the
    low bags; filler_value is the agent's value for everything outside the
    bags.  has_high_bag marks the agent as unbalanced, and needs_rescale
    marks the stronger condition that her working share bound is provably
    overestimated: more high bags than low ones, yet not enough filler value
    to plug the low bags' deficit (each low bag can also absorb up to 1/8
    from elsewhere in the accounting, hence the low_bags/8 allowance).
    """

    agent: int
    low_bags: int
    high_bags: int
    deficit: Fraction
    filler_value: Fraction
    has_high_bag: bool
    needs_rescale: bool


def profile_agent(state: ReductionState, agent: int) -> AgentProfile:
    bags, fillers = bag_layout(state)
    bag_values = [state.bundle_value(agent, bag) for bag in bags]
    low_vals = [v for v in bag_values if v < LOW_BAG]
    high_count = sum(1 for v in bag_values if v > HIGH_BAG)
    deficit = sum((LOW_BAG - v for v in low_vals), Fraction(0))
    filler_value = state.bundle_value(agent, fillers)
    has_high = high_count > 0
    needs = (
        has_high
        and high_count > len(low_vals)
        and filler_value < deficit + Fraction(len(low_vals), 8)
    )
    return AgentProfile(
        agent=agent,
        low_bags=len(low_vals),
        high_bags=high_count,
        deficit=deficit,
        filler_value=filler_value,
        has_high_bag=has_high,
        needs_rescale=needs,
    )


def agents_needing_rescale(state: ReductionState) -> tuple[int, ...]:
    """Agents whose profile demands an upper-bound rescale, ascending by id."""
    return tuple(
        a for a in state.agents if profile_agent(state, a).needs_rescale
    )


@dataclass(frozen=True)
class BagFillResult:
    """One (agent, bundle) per round, untouched fillers, and a round trace."""

    assignments: tuple[tuple[int, tuple[int, ...]], ...]
    leftovers: tuple[int, ...]
    trace: tuple[dict, ...]


def fill_bags(state: ReductionState, alpha: Fraction) -> BagFillResult:
    """Run one filling round per remaining agent; does not mutate the state.

    Round k starts from bag k and adds fillers (largest value first) until a
    remaining agent values the bag at or above alpha; the lowest-indexed such
    agent takes it.  Raises InvariantViolation if the fillers run dry with
    nobody satisfied, which signals a broken precondition upstream, never an
    expected outcome.
    """
    agents = list(state.agents)
    bags, fillers = bag_layout(state)

    assignments = []
    trace = []
    next_filler = 0
    for rnd, bag in enumerate(bags):
        bundle = list(bag)
        added = []
        while True:
            quals = [
                a for a in agents if state.bundle_value(a, bundle) >= alpha
            ]
            if quals:
                break
            if next_filler >= len(fillers):
                raise InvariantViolation(
                    f"round {rnd}: no filler left and no agent accepts {bundle}"
                )
            extra = fillers[next_filler]
            next_filler += 1
            bundle.append(extra)
            added.append(extra)
        winner = quals[0]
        agents.remove(winner)
        final = tuple(sorted(bundle))
        assignments.append((winner, final))
        trace.append(
            {
                "round": rnd,
                "base_bag": list(bag),
                "added": added,
                "agent": winner,
                "value": str(state.bundle_value(winner, final)),
            }
        )
    leftovers = tuple(fillers[next_filler:])
    return BagFillResult(tuple(assignments), leftovers, tuple(trace))
