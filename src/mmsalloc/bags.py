"""Bag construction, per-agent bag profiles, and the filling loop.

After the reduction phases nothing short of a combined bundle can satisfy
anyone, so the remaining items are dealt into n two-item bags that pair the
j-th largest item with the (2n-j+1)-th (``bag_layout``).  Items past the
first 2n are "fillers".  Each round tops a bag up with fillers (largest
first) until some remaining agent accepts it.

The per-agent profile measures how far the bags are from uniform for that
agent: how many bags sit below the acceptance threshold, how many sit above
the high-water mark, and her ``spare`` value, the fillers plus the low bags,
as one int in her row's raw units.  It reads only the agent's 2n bag
entries, as two columns, and takes the fillers' worth from her row total.
A profile where high bags outnumber low bags while the spare value falls
short of ``SPARE_PER_LOW_BAG`` per low bag is the signal that the agent's
working share bound is overestimated and must be rescaled before bag
filling can be trusted.  The state's memo keeps each layout and, per agent,
the verdict with the scale it was judged at, so a scan after a rescale with
no removal profiles only that agent.  A clone profiles afresh; the update
loop's snapshot gets the live memo back from ``undo_tentative``.  A fill
keeps running raw sums against each agent's least accepted raw sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterator

from .errors import InvariantViolation
from .reduction import ReductionState

# A profile's low and high bag values, in units of the working share bound.
LOW_BAG = Fraction(3, 4)
HIGH_BAG = Fraction(1)
# The fillers plus the low bags must be worth this much per low bag: each low
# bag's LOW_BAG, plus 1/8 it may absorb from elsewhere in the accounting.
SPARE_PER_LOW_BAG = Fraction(7, 8)

# The bags, then the fillers: built once per state and shared by its profiles.
Layout = tuple[tuple[tuple[int, ...], ...], list[int]]


def bag_layout(state: ReductionState) -> Layout:
    """The bags and the fillers for the state's remaining agents and items.

    With n agents, bag k (counting from 0) pairs ``items[k]`` with
    ``items[2n-1-k]``, dropping an index past the last item, so a bag may
    hold one item or none.  The fillers are the items from index 2n on, in
    descending value order.  Built once per layout version: do not mutate.
    """
    entry = state.memo.get(state.version)
    if entry is None:
        n = len(state.agents)
        items = state.items
        bags = tuple(tuple(items[p] for p in (k, 2 * n - 1 - k) if p < len(items)) for k in range(n))
        # The layout, and agent -> (scale, needs_rescale) for the scans of it.
        entry = state.memo[state.version] = ((bags, items[2 * n:]), {})
    return entry[0]


@dataclass(frozen=True)
class AgentProfile:
    """How one agent sees the current bag layout.

    low_bags / high_bags count bags strictly below LOW_BAG (3/4) and
    strictly above HIGH_BAG (1); spare is the agent's raw value (unscaled,
    in her row's int units) of the fillers plus the low bags.  needs_rescale
    marks that her working share bound is provably overestimated: more high
    bags than low ones, while scale * spare < SPARE_PER_LOW_BAG * low_bags.
    """

    agent: int
    low_bags: int
    high_bags: int
    spare: int
    needs_rescale: bool


def profile_agent(state: ReductionState, agent: int, layout: Layout) -> AgentProfile:
    # Bag k pairs items[k] with items[2n-1-k]: the head column (0 past the last
    # item) plus the reversed tail column, aligned to the end.  No filler is read.
    n, items, row = len(layout[0]), state.items, state.rows[agent]
    raws = [*map(row.__getitem__, items[:n]), *[0] * (n - len(items))]
    tail = items[n:2 * n][::-1]
    raws[n - len(tail):] = map(add, raws[n - len(tail):], map(row.__getitem__, tail))
    low_lhs, low_rhs = state.cross_terms(agent, LOW_BAG)
    high_lhs, high_rhs = state.cross_terms(agent, HIGH_BAG)
    # For lhs > 0: r * lhs < rhs iff r < ceil(rhs / lhs); r * lhs > rhs iff r > rhs // lhs.
    low = [*filter((-(-low_rhs // low_lhs)).__gt__, raws)]
    high_count = sum(map((high_rhs // high_lhs).__lt__, raws))
    # The fillers plus the low bags: her total less the bags that are not low.
    spare = state.totals[agent] - sum(raws) + sum(low)
    lhs, rhs = state.cross_terms(agent, SPARE_PER_LOW_BAG)
    needs = high_count > len(low) and spare * lhs < rhs * len(low)
    return AgentProfile(agent, len(low), high_count, spare, needs)


def agents_needing_rescale(state: ReductionState) -> Iterator[int]:
    """Agents whose profile demands an upper-bound rescale, ascending by id.

    Lazy: each agent is judged, on the one layout, only when the iterator
    reaches her, so ``next(agents_needing_rescale(state), None)`` stops there.
    """
    layout = bag_layout(state)
    verdicts = state.memo[state.version][1]
    for a in state.agents:
        # Every rescale stores a new Fraction, so identity is exact and hashes none.
        seen = verdicts.get(a)
        if seen is None or seen[0] is not state.scale[a]:
            seen = verdicts[a] = (state.scale[a], profile_agent(state, a, layout).needs_rescale)
        if seen[1]:
            yield a


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
    bags, fillers = bag_layout(state)
    # Scales stay put while the bags fill: agent a accepts raw r when r >= least[a].
    terms = {a: state.cross_terms(a, alpha) for a in state.agents}
    least = {a: -(-rhs // lhs) for a, (lhs, rhs) in terms.items()}

    assignments, trace = [], []
    next_filler = 0
    for rnd, bag in enumerate(bags):
        first_filler, raw = next_filler, {}
        # Each waiting agent's raw sum of the bundle: summed as the bare bag is
        # offered round, then, once nobody takes it, topped up per filler.
        takers = (
            a for a, t in least.items()
            if raw.setdefault(a, sum(map(state.rows[a].__getitem__, bag))) >= t
        )
        while (winner := next(takers, None)) is None:
            if next_filler >= len(fillers):
                raise InvariantViolation(
                    f"round {rnd}: no filler left and no agent accepts "
                    f"{[*bag, *fillers[first_filler:next_filler]]}"
                )
            j = fillers[next_filler]
            raw = {a: r + state.rows[a][j] for a, r in raw.items()}
            takers = (a for a, t in least.items() if raw[a] >= t)
            next_filler += 1
        del least[winner]
        final = tuple(sorted((*bag, *fillers[first_filler:next_filler])))
        assignments.append((winner, final))
        trace.append(
            {
                "round": rnd,
                "base_bag": list(bag),
                "added": fillers[first_filler:next_filler],
                "agent": winner,
                "value": str(state.bundle_value(winner, final)),
            }
        )
    leftovers = tuple(fillers[next_filler:])
    return BagFillResult(tuple(assignments), leftovers, tuple(trace))
