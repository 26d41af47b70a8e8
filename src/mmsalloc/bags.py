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
entries, by one getter per layout, and takes the fillers' worth from her total.
A profile where high bags outnumber low bags while the spare value falls
short of ``SPARE_PER_LOW_BAG`` per low bag is the signal that the agent's
working share bound is overestimated and must be rescaled before bag
filling can be trusted.  The state's memo keeps each agent's profile until
a removal ends the layout or a rescale of hers drops it, so a scan after a
rescale with no removal profiles only that agent, and the rescale bound
reads the profile the scan made.  A clone profiles afresh.
A fill keeps the waiting agents' raw sums as one list, adds each filler's
column to it in one pass, and stops at the first sum at its agent's cut-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat, tee
from operator import add, ge, gt, itemgetter, lt
from typing import Iterator

from .errors import InvariantViolation
from .reduction import ReductionState

# A profile's low and high bag values, in units of the working share bound.
LOW_BAG = Fraction(3, 4)
HIGH_BAG = Fraction(1)
# The fillers plus the low bags must be worth this much per low bag: each low
# bag's LOW_BAG, plus 1/8 it may absorb from elsewhere in the accounting.
SPARE_PER_LOW_BAG = Fraction(7, 8)


def bag_layout(state: ReductionState) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The bags and the fillers for the state's remaining agents and items.

    With n agents, bag k (counting from 0) pairs ``items[k]`` with
    ``items[2n-1-k]``, dropping an index past the last item, so a bag may
    hold one item or none.  The fillers are the items from index 2n on, in
    descending value order.  A profile reads the same pairs straight from
    ``items``, so only a fill builds this.
    """
    n, items = len(state.agents), state.items
    bags = tuple(tuple(items[p] for p in (k, 2 * n - 1 - k) if p < len(items)) for k in range(n))
    return bags, items[2 * n:]


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


def profile_agent(state: ReductionState, agent: int) -> AgentProfile:
    # Bag k pairs items[k] with items[2n-1-k]: the head column (0 past the last
    # item) plus the reversed tail column, aligned to the end.  One getter per
    # layout reads both, kept in a dict as every memo entry is.  No filler is read.
    n, row = len(state.agents), state.rows[agent]
    if (columns := state.memo.get("columns")) is None:
        at = [*state.items[:n], *state.items[n:2 * n][::-1]]
        # itemgetter gives a bare item for one index and refuses none.
        get = itemgetter(*at) if len(at) > 1 else lambda r: (*map(r.__getitem__, at),)
        columns = state.memo["columns"] = {"get": get}
    got = columns["get"](row)
    raws = [*got[:n], *[0] * (n - len(got))]
    raws[2 * n - len(got):] = map(add, raws[2 * n - len(got):], got[n:])
    low_lhs, low_rhs = state.cross_terms(agent, LOW_BAG)
    high_lhs, high_rhs = state.cross_terms(agent, HIGH_BAG)
    # For lhs > 0: r * lhs < rhs iff r < ceil(rhs / lhs); r * lhs > rhs iff r > rhs // lhs.
    low = [*compress(raws, map(lt, raws, repeat(-(-low_rhs // low_lhs))))]
    high_count = sum(map(gt, raws, repeat(high_rhs // high_lhs)))
    # The fillers plus the low bags: her total less the bags that are not low.
    spare = state.totals[agent] - sum(raws) + sum(low)
    lhs, rhs = state.cross_terms(agent, SPARE_PER_LOW_BAG) if high_count > len(low) else (0, 0)
    needs = high_count > len(low) and spare * lhs < rhs * len(low)
    return AgentProfile(agent, len(low), high_count, spare, needs)


def agents_needing_rescale(state: ReductionState) -> Iterator[int]:
    """Agents whose profile demands an upper-bound rescale, ascending by id.

    Lazy: each agent is judged only when the iterator reaches her, so
    ``next(agents_needing_rescale(state), None)`` stops there.
    """
    # agent -> her profile, for this layout's scans; a rescale drops her.
    verdicts = state.memo.setdefault("verdicts", {})
    for a in state.agents:
        if (prof := verdicts.get(a)) is None:
            prof = verdicts[a] = profile_agent(state, a)
        if prof.needs_rescale:
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
    # Waiting agents by ascending id, their rows and least accepted raw sums.
    agents = list(state.agents)
    rows = [state.rows[a] for a in agents]
    least = [-(-rhs // lhs) for lhs, rhs in map(state.cross_terms, agents, repeat(alpha))]

    assignments, trace = [], []
    next_filler = 0
    for rnd, bag in enumerate(bags):
        first_filler = next_filler
        # The bare bag is summed column by column as the scan goes, so the scan
        # stops at the first taker; base keeps what it summed, for a first filler.
        sums = map(itemgetter(bag[0]), rows) if bag else repeat(0, len(rows))
        for j in bag[1:]:
            sums = map(add, sums, map(itemgetter(j), rows))
        raw, base = tee(sums)
        while (pos := next(compress(count(), map(ge, raw, least)), None)) is None:
            if next_filler >= len(fillers):
                raise InvariantViolation(
                    f"round {rnd}: no filler left and no agent accepts "
                    f"{[*bag, *fillers[first_filler:next_filler]]}"
                )
            # Nobody takes it: one pass adds the next filler to every waiting agent's sum.
            raw = base = [*map(add, base, map(itemgetter(fillers[next_filler]), rows))]
            next_filler += 1
        winner = agents.pop(pos)
        del rows[pos], least[pos]
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
