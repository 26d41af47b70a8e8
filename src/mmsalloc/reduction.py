"""Greedy removal of high-value bundles from a sorted instance.

The solver repeatedly looks at four candidate bundles built from fixed
positions of the (descending-sorted, still-remaining) item list:

* "top"         position 1 alone
* "mid_pair"    positions n and n+1
* "tail_triple" positions 2n-1, 2n, 2n+1
* "top_tail"    positions 1 and 2n+1

where n is the number of remaining agents.  Whenever some remaining agent
values one of these bundles at or above the acceptance threshold, the
lowest-indexed such bundle goes to the lowest-indexed such agent and both
leave the instance.  Removing a bundle of this shape never lowers any
remaining agent's maximin share, which is what makes the whole scheme sound.

Positions past the end of the item list are simply omitted (bundle values
only shrink, so qualification only gets harder).

A ``ReductionState`` is single-owner and mutated in place by the operations
here; they hand the state back for chaining.  Its rows are the sorted
integer rows that ``model.order_instance`` cleared, read-only and shared by
clones.  An agent's scale is an int pair ``(num, den)``, read by no other
module, and she values raw ``r`` at ``num * r / den``: a threshold test
(``values_at_least``) is an integer sum and cross-multiplication, a rescale
multiplies the pair and reduces it once, and a renormalization stores the
agent count over her raw total, unreduced.  That total is summed once, with
the row (``OrderedView.sums``), then reduced by each removal in one column
pass.  Its memo is scratch for one layout: each removal starts a new one.
A shape that finds no taker enters there, under the shape and threshold,
the agents it tested, so the fixed and tentative phases test an agent on
each shape once per layout and scale.  One state lives through a whole
solve.  A tentative phase is rolled back in place to the state's ``mark``
from before it, its log length and scales:
``undo_tentative`` puts back the agents and items of the later log records,
re-sums the totals and starts a new memo.  The state reports each removal,
before making it, through one optional hook that receives the event name,
its JSON-ready fields and the state itself; it copies nothing, so whoever
listens decides what to keep.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import filterfalse, repeat
from operator import itemgetter, sub
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InvariantViolation
from .model import OrderedView

SHAPES = ("top", "mid_pair", "tail_triple", "top_tail")
FIXED_SHAPES = SHAPES[:3]
DEFAULT_ALPHA = Fraction(3, 4)

# Shape tag for the degenerate removal of an agent whose remaining row summed
# to zero: she is satisfied by the empty bundle and leaves immediately.
ZERO_SHAPE = "zero"


@dataclass(frozen=True)
class AssignmentRecord:
    agent: int
    bundle: tuple[int, ...]
    kind: str  # "fixed" | "tentative"
    shape: str  # one of SHAPES, or "zero"

    def to_json(self) -> dict:
        return {
            "agent": self.agent,
            "bundle": list(self.bundle),
            "kind": self.kind,
            "shape": self.shape,
        }


class ReductionState:
    """Remaining agents/items, one scale per agent, and the removal log.

    ``agents`` and ``items`` keep their original ids and stay ascending, so
    item order remains descending-by-value for every agent throughout.
    ``rows[a][j]`` is agent ``a``'s raw integer value for item ``j``; the
    rows are never written, and clones share them.  Agent ``a`` values item
    ``j`` at ``num * rows[a][j] / den`` for ``(num, den) = scale[a] > 0``,
    and ``totals[a]`` is her raw sum over ``items``, passed in or summed.
    When ``renormalize`` is set, every surviving agent is rescaled after each
    removal so her remaining items sum exactly to the number of remaining
    agents (keeping each maximin share at most 1 via the average bound).

    An optional ``observer`` callable receives ``(event, fields, state)``
    before each removal, with the JSON-ready fields of the event and this
    state as it still is; it must not touch the state.  Clones start
    without one.

    ``memo`` is scratch for the current agents and items, a dict of dicts: a
    removal or an undo rebinds it to a new one, and ``scale_row`` drops the
    rescaled agent from each.  A clone starts with an empty one, so nothing
    done to a copy reaches its parent.
    """

    def __init__(
        self,
        agents: Iterable[int],
        items: Iterable[int],
        rows: Sequence[Sequence[int]],
        scale: Mapping[int, tuple[int, int]],
        renormalize: bool,
        totals: Sequence[int] | None = None,
    ):
        self.agents: list[int] = sorted(agents)
        self.items: list[int] = sorted(items)
        self.rows = rows
        self.scale: dict[int, tuple[int, int]] = {a: scale[a] for a in self.agents}
        self.totals = {a: sum(map(rows[a].__getitem__, self.items)) if totals is None else totals[a]
                       for a in self.agents}
        self.renormalize = renormalize
        self.log: list[AssignmentRecord] = []
        self.observer: Callable[[str, dict, ReductionState], None] | None = None
        self.memo: dict = {}

    # -- construction and bookkeeping -------------------------------------

    @classmethod
    def from_instance(
        cls, view: OrderedView, agent_ids: Sequence[int], scales: Mapping, renormalize: bool
    ) -> "ReductionState":
        """All of ``view``'s items and ``agent_ids``, each agent on her sorted
        integer row at her starting scale (see ``solver.normalize_*``).  Every
        listed agent's row must be nonzero: nothing is dropped or rescaled here.
        """
        # Every row has the same length; a view with no agents has no items.
        m = max(map(len, view.int_rows), default=0)
        return cls(agent_ids, range(m), view.int_rows, scales, renormalize, view.sums)

    def clone(self) -> "ReductionState":
        twin = copy.copy(self)
        twin.agents, twin.items, twin.log = list(self.agents), list(self.items), list(self.log)
        twin.scale, twin.totals, twin.memo = dict(self.scale), dict(self.totals), {}
        twin.observer = None
        return twin

    def mark(self) -> tuple[int, dict[int, tuple[int, int]]]:
        """What ``undo_tentative`` rolls back to: the log length and a copy of the scales."""
        return len(self.log), dict(self.scale)

    def bundle_value(self, agent: int, items: Iterable[int]) -> Fraction:
        num, den = self.scale[agent]
        return Fraction(num * sum(map(self.rows[agent].__getitem__, items)), den)

    def cross_terms(self, agent: int, alpha: Fraction) -> tuple[int, int]:
        """``(lhs, rhs)``: ``agent`` values raw ``r`` at ``alpha`` or more iff ``r*lhs >= rhs``."""
        num, den = self.scale[agent]
        return num * alpha.denominator, alpha.numerator * den

    def values_at_least(self, agent: int, items: Iterable[int], alpha: Fraction) -> bool:
        """``bundle_value(agent, items) >= alpha``, compared on ints."""
        lhs, rhs = self.cross_terms(agent, alpha)
        return sum(map(self.rows[agent].__getitem__, items)) * lhs >= rhs

    def scale_row(self, agent: int, factor: Fraction) -> None:
        if factor <= 0:
            raise InvariantViolation(f"row scale factor {factor} not positive")
        num, den = self.scale[agent]
        num, den = num * factor.numerator, den * factor.denominator
        g = math.gcd(num, den)
        self.scale[agent] = (num // g, den // g)
        # Only her entries read her scale.
        for seen in self.memo.values():
            seen.pop(agent, None)

    def _notify(self, event: str, fields: dict) -> None:
        if self.observer is not None:
            self.observer(event, fields, self)


def candidate_bundles(state: ReductionState) -> tuple[tuple[int, ...], ...]:
    """The four positional bundles for the current remaining-agent count
    (at least one), in priority order, truncated to existing positions."""
    n, items = len(state.agents), state.items
    return (
        tuple(items[:1]),
        tuple(items[n - 1:n + 1]),
        tuple(items[2 * n - 2:2 * n + 1]),
        (*items[:1], *items[2 * n:2 * n + 1]),
    )


def apply_reduction(
    state: ReductionState,
    agent: int,
    bundle: Iterable[int],
    kind: str,
    shape: str,
    alpha: Fraction,
) -> ReductionState:
    """Remove one agent with one bundle, log it, and restore the invariants.

    The bundle must be distinct remaining items that the receiving agent
    values at ``alpha`` or more (InvariantViolation otherwise).  Afterwards
    any surviving agent whose whole row became zero is removed too (the
    empty bundle satisfies her), and when the state renormalizes, the
    surviving rows are rescaled to sum to the new agent count.
    """
    bundle, items = tuple(bundle), state.items
    if agent not in state.agents:
        raise InvariantViolation(f"agent {agent} is not in the state")
    spots = [bisect_left(items, j) for j in bundle]
    if len(set(spots)) < len(spots) or [items[p] for p in spots if p < len(items)] != [*bundle]:
        raise InvariantViolation(f"bundle {bundle} is not distinct remaining items")
    if not state.values_at_least(agent, bundle, alpha):
        raise InvariantViolation(
            f"agent {agent} values {bundle} at {state.bundle_value(agent, bundle)} < {alpha}"
        )

    record = AssignmentRecord(agent, bundle, kind, shape)
    state._notify("reduce", record.to_json())

    state.agents.remove(agent)
    for p in sorted(spots, reverse=True):
        del items[p]
    totals = state.totals
    del totals[agent]
    # One column pass; itemgetter gives a bare item for one index and refuses none.
    rows = itemgetter(*totals)(state.rows) if len(totals) > 1 else map(state.rows.__getitem__, totals)
    worth = map(itemgetter(*bundle), rows) if bundle else repeat(0)
    if len(bundle) > 1:
        worth = map(sum, worth)
    totals = state.totals = dict(zip(totals, map(sub, totals.values(), worth)))
    state.log.append(record)
    state.memo = {}

    if 0 in totals.values():
        for a in [a for a in state.agents if totals[a] == 0]:
            zero = AssignmentRecord(a, (), kind, ZERO_SHAPE)
            state._notify("reduce", zero.to_json())
            state.agents.remove(a)
            del totals[a]
            state.log.append(zero)
    if state.renormalize:
        state.scale.update(zip(totals, zip(repeat(len(totals)), totals.values())))
    return state


def _greedy_loop(
    state: ReductionState,
    alpha: Fraction,
    shapes: tuple[str, ...],
    kind: str,
) -> ReductionState:
    # ``shapes`` is a prefix of SHAPES, so zipping keeps the priority order.
    # A shape with no taker enters every agent it tested under (shape, alpha):
    # they fail that shape at this layout, whichever phase asks next, and
    # ``scale_row`` drops the agent it rescales, so only she is retested.
    # The key holds alpha as ints, which hash in C; a Fraction hashes in Python.
    ratio = alpha.as_integer_ratio()
    while state.agents:
        for shape, bundle in zip(shapes, candidate_bundles(state)):
            if not bundle:
                continue
            seen = state.memo.setdefault((shape, ratio), {})
            fresh = [*filterfalse(seen.__contains__, state.agents)] if seen else state.agents
            agent = next((a for a in fresh if state.values_at_least(a, bundle, alpha)), None)
            if agent is not None:
                apply_reduction(state, agent, bundle, kind, shape, alpha=alpha)
                break
            seen.update(dict.fromkeys(fresh, False))
        else:
            break
    return state


def reduce_all_shapes(state: ReductionState, alpha: Fraction) -> ReductionState:
    """Drain all four bundle shapes at the given threshold; removals are final.

    Used by the existence-style pipeline where the threshold already equals
    the target fraction of each (share-normalized) agent's maximin share.
    """
    return _greedy_loop(state, alpha, SHAPES, "fixed")


def reduce_fixed(state: ReductionState) -> ReductionState:
    """Drain the first three shapes at DEFAULT_ALPHA (3/4); these removals
    are provably safe whenever every remaining maximin share is at most 1,
    so they are final."""
    return _greedy_loop(state, DEFAULT_ALPHA, FIXED_SHAPES, "fixed")


def reduce_tentative(state: ReductionState) -> ReductionState:
    """Drain all four shapes at DEFAULT_ALPHA (3/4), but reversibly.

    The fourth shape ("top_tail") is only safe when the working upper bounds
    on the maximin shares are tight, which is checked after the fact; so the
    whole phase is recorded as tentative; a caller that may roll it back takes
    the state's ``mark`` before it for ``undo_tentative``.  A
    "top_tail" removal can unlock further removals of the earlier shapes;
    those happen inside this phase and are tentative too.
    """
    return _greedy_loop(state, DEFAULT_ALPHA, SHAPES, "tentative")


def undo_tentative(state: ReductionState, mark: tuple[int, Mapping]) -> set[int]:
    """Roll ``state`` back in place to ``mark``, its ``mark()`` from before the
    tentative phase, and return the items of the log records past it.  Their
    agents and items go back in, each total is re-summed, the marked scales
    return and the memo starts afresh.  When nothing follows the mark, nothing
    changes, the memo included.
    """
    length, scale = mark
    undone = state.log[length:]
    held = {j for record in undone for j in record.bundle}
    if undone:
        del state.log[length:]
        state.agents = sorted([*state.agents, *(record.agent for record in undone)])
        state.items = sorted([*state.items, *held])
        state.totals = {a: sum(map(state.rows[a].__getitem__, state.items)) for a in state.agents}
        state.scale, state.memo = dict(scale), {}
    return held
