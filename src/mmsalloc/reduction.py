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
here; they hand the state back for chaining.  The tentative phase snapshots
the full state first so it can be undone exactly.  The state reports each
removal, before making it, through one optional hook that receives the
event name, its JSON-ready fields and the state itself (the solver's
rescale diagnostics use the same hook); it copies nothing, so whoever
listens decides what to keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InvariantViolation
from .model import Instance

SHAPES = ("top", "mid_pair", "tail_triple", "top_tail")
FIXED_SHAPES = ("top", "mid_pair", "tail_triple")
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
    """Remaining agents/items, their current valuations, and the removal log.

    ``agents`` and ``items`` keep their original ids and stay ascending, so
    item order remains descending-by-value for every agent throughout.  When
    ``renormalize`` is set, every surviving row is rescaled after each
    removal so it sums exactly to the number of remaining agents (keeping
    each maximin share at most 1 via the average bound).

    An optional ``observer`` callable receives ``(event, fields, state)``
    before each removal, with the JSON-ready fields of the event and this
    state as it still is; it must not touch the state.  Clones start
    without one.
    """

    def __init__(
        self,
        agents: Iterable[int],
        items: Iterable[int],
        vals: dict[int, dict[int, Fraction]],
        renormalize: bool,
    ):
        self.agents: list[int] = sorted(agents)
        self.items: list[int] = sorted(items)
        self.vals: dict[int, dict[int, Fraction]] = {
            a: dict(vals[a]) for a in self.agents
        }
        self.renormalize = renormalize
        self.log: list[AssignmentRecord] = []
        self.observer: Callable[[str, dict, ReductionState], None] | None = None
        self._snapshot: ReductionState | None = None

    # -- construction and bookkeeping -------------------------------------

    @classmethod
    def from_instance(
        cls,
        inst: Instance,
        agent_ids: Sequence[int] | None = None,
        renormalize: bool = True,
    ) -> "ReductionState":
        agents = list(agent_ids) if agent_ids is not None else list(range(inst.n))
        vals = {a: {j: inst.values[a][j] for j in range(inst.m)} for a in agents}
        state = cls(agents, range(inst.m), vals, renormalize)
        state._drop_zero_rows(kind="fixed")
        if renormalize:
            state._renormalize_rows()
        return state

    def clone(self) -> "ReductionState":
        twin = ReductionState.__new__(ReductionState)
        twin.agents = list(self.agents)
        twin.items = list(self.items)
        twin.vals = {a: dict(row) for a, row in self.vals.items()}
        twin.renormalize = self.renormalize
        twin.log = list(self.log)
        twin.observer = None
        twin._snapshot = None
        return twin

    def total(self, agent: int) -> Fraction:
        return sum(self.vals[agent].values(), Fraction(0))

    def bundle_value(self, agent: int, items: Iterable[int]) -> Fraction:
        row = self.vals[agent]
        return sum((row[j] for j in items), Fraction(0))

    def scale_row(self, agent: int, factor: Fraction) -> None:
        if factor <= 0:
            raise InvariantViolation(f"row scale factor {factor} not positive")
        row = self.vals[agent]
        for j in row:
            row[j] *= factor

    def _notify(self, event: str, fields: dict) -> None:
        if self.observer is not None:
            self.observer(event, fields, self)

    def _renormalize_rows(self) -> None:
        target = Fraction(len(self.agents))
        for a in self.agents:
            tot = self.total(a)
            if tot == 0:
                raise InvariantViolation(f"agent {a} has a zero row at renormalize")
            if tot != target:
                self.scale_row(a, target / tot)

    def _drop_zero_rows(self, kind: str) -> None:
        zeroed = [a for a in self.agents if self.total(a) == 0]
        for a in zeroed:
            self._notify(
                "reduce", {"kind": kind, "shape": ZERO_SHAPE, "agent": a, "bundle": []}
            )
            self.agents.remove(a)
            del self.vals[a]
            self.log.append(AssignmentRecord(a, (), kind, ZERO_SHAPE))


def candidate_bundles(state: ReductionState) -> tuple[tuple[int, ...], ...]:
    """The four positional bundles for the current remaining-agent count,
    in priority order, truncated to existing positions."""
    n = len(state.agents)
    items = state.items
    if n == 0:
        return ((), (), (), ())

    def at(*positions: int) -> tuple[int, ...]:
        return tuple(items[p - 1] for p in positions if 1 <= p <= len(items))

    return (
        at(1),
        at(n, n + 1),
        at(2 * n - 1, 2 * n, 2 * n + 1),
        at(1, 2 * n + 1),
    )


def qualifying_agents(
    state: ReductionState, bundle: Iterable[int], alpha: Fraction
) -> tuple[int, ...]:
    """Remaining agents who value the bundle at or above alpha (exact compare),
    in ascending id order."""
    b = tuple(bundle)
    return tuple(a for a in state.agents if state.bundle_value(a, b) >= alpha)


def apply_reduction(
    state: ReductionState,
    agent: int,
    bundle: Iterable[int],
    kind: str,
    shape: str,
    alpha: Fraction | None = None,
) -> ReductionState:
    """Remove one agent with one bundle, log it, and restore the invariants.

    If ``alpha`` is given, the receiving agent must value the bundle at or
    above it (InvariantViolation otherwise).  Afterwards any surviving agent
    whose whole row became zero is removed too (the empty bundle satisfies
    her), and when the state renormalizes, the surviving rows are rescaled
    to sum to the new agent count.
    """
    bundle = tuple(bundle)
    if agent not in state.vals:
        raise InvariantViolation(f"agent {agent} is not in the state")
    item_set = set(state.items)
    if any(j not in item_set for j in bundle):
        raise InvariantViolation(f"bundle {bundle} is not a subset of remaining items")
    if alpha is not None and state.bundle_value(agent, bundle) < alpha:
        raise InvariantViolation(
            f"agent {agent} values {bundle} at {state.bundle_value(agent, bundle)} < {alpha}"
        )

    state._notify(
        "reduce", {"kind": kind, "shape": shape, "agent": agent, "bundle": list(bundle)}
    )

    state.agents.remove(agent)
    del state.vals[agent]
    removed = set(bundle)
    state.items = [j for j in state.items if j not in removed]
    for a in state.agents:
        row = state.vals[a]
        for j in bundle:
            del row[j]
    state.log.append(AssignmentRecord(agent, bundle, kind, shape))

    state._drop_zero_rows(kind=kind)
    if state.renormalize and state.agents:
        state._renormalize_rows()
    return state


def _greedy_loop(
    state: ReductionState,
    alpha: Fraction,
    shapes: tuple[str, ...],
    kind: str,
) -> ReductionState:
    while state.agents:
        bundles = candidate_bundles(state)
        assigned = False
        for shape, bundle in zip(SHAPES, bundles):
            if shape not in shapes or not bundle:
                continue
            quals = qualifying_agents(state, bundle, alpha)
            if quals:
                apply_reduction(state, quals[0], bundle, kind, shape, alpha=alpha)
                assigned = True
                break
        if not assigned:
            break
    return state


def reduce_all_shapes(state: ReductionState, alpha: Fraction) -> ReductionState:
    """Drain all four bundle shapes at the given threshold; removals are final.

    Used by the existence-style pipeline where the threshold already equals
    the target fraction of each (share-normalized) agent's maximin share.
    """
    return _greedy_loop(state, alpha, SHAPES, "fixed")


def reduce_fixed(state: ReductionState, alpha: Fraction = DEFAULT_ALPHA) -> ReductionState:
    """Drain the first three shapes only; these removals are provably safe
    whenever every remaining maximin share is at most 1, so they are final."""
    return _greedy_loop(state, alpha, FIXED_SHAPES, "fixed")


def reduce_tentative(state: ReductionState, alpha: Fraction = DEFAULT_ALPHA) -> ReductionState:
    """Drain all four shapes, but reversibly.

    The fourth shape ("top_tail") is only safe when the working upper bounds
    on the maximin shares are tight, which is checked after the fact; so the
    whole phase is recorded as tentative and the state is snapshotted first
    for an exact undo.  A "top_tail" removal can unlock further removals of
    the earlier shapes; those happen inside this phase and are tentative too.
    """
    state._snapshot = state.clone()
    return _greedy_loop(state, alpha, SHAPES, "tentative")


def undo_tentative(state: ReductionState) -> ReductionState:
    """Restore the snapshot taken when the tentative phase began.

    Returns the restored state (callers rebind).  Without a prior tentative
    phase the state comes back unchanged.
    """
    if state._snapshot is None:
        return state
    restored = state._snapshot
    restored.observer = state.observer
    state._snapshot = None
    return restored
