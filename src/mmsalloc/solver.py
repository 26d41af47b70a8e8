"""End-to-end allocation pipelines.

Both solvers run one pipeline, ``_solve``: sort items, give each active
agent a starting scale, greedily remove satisfied (agent, bundle) pairs,
deal the rest into end-to-end bags, fill the bags, then translate
everything back to the original items.  The front ends supply only what
differs: which agents leave with the empty bundle, the normalizer, the
reduction phase, the fill threshold, and the shares behind
``per_agent_ratio``.  All of it reads the cleared int rows
``Instance.rows``: a share computed on one is in its units, so the row's
denominator cancels.

``solve_poly34`` guarantees every agent 3/4 of her maximin share without
ever computing a maximin share: each row is scaled to the average bound
instead and rescaled after each removal (strongly polynomial).
Whenever the bag profiles prove some agent's working bound is
overestimated, the tentative removals are rolled back, that agent's row is
rescaled by the tightest certified bound, and the removal phases rerun.

``solve_existence`` computes each agent's exact maximin share first (via
the branch-and-bound oracle), scales each row by it, and removes all four
bundle shapes once; in plus mode the guarantee rises to 3/4 + 1/(12 n).

Each solve reports through one event stream: the records end up in
``SolveStats.events``, and an optional observer receives each one as it
is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable

from .bags import (
    SPARE_PER_LOW_BAG,
    agents_needing_rescale,
    fill_bags,
    profile_agent,
)
from .errors import InputError, InvariantViolation
from .model import (
    Allocation,
    Instance,
    OrderedView,
    lift_allocation,
    order_instance,
)
from .oracle import exact_mms
from .reduction import (
    DEFAULT_ALPHA,
    FIXED_SHAPES,
    ZERO_SHAPE,
    AssignmentRecord,
    ReductionState,
    candidate_bundles,
    reduce_all_shapes,
    reduce_fixed,
    reduce_tentative,
    undo_tentative,
)

MODE_BASE = "three_quarter"
MODE_PLUS = "three_quarter_plus"


@dataclass(frozen=True)
class SolveStats:
    """Counters and an audit trail for one solve.

    per_agent_ratio holds v_i(bundle)/share_i against the original instance
    and is only filled by pipelines that computed exact shares anyway; a None
    entry means that agent's share is zero (anything satisfies her).  events
    is a JSON-ready trace of reductions, rescales, undos, and bag rounds.
    """

    update_loop_iterations: int
    fixed_assignments: int
    tentative_assignments: int
    bag_rounds: int
    per_agent_ratio: tuple[Fraction | None, ...] | None
    events: tuple[dict, ...]

    def to_json(self) -> dict:
        ratios = None
        if self.per_agent_ratio is not None:
            ratios = [None if r is None else str(r) for r in self.per_agent_ratio]
        return {
            "update_loop_iterations": self.update_loop_iterations,
            "fixed_assignments": self.fixed_assignments,
            "tentative_assignments": self.tentative_assignments,
            "bag_rounds": self.bag_rounds,
            "per_agent_ratio": ratios,
            "events": list(self.events),
        }


def gamma_constant(n: int) -> Fraction:
    """The guarantee margin of the plus pipeline: 1/(12 n) for n agents."""
    if n < 1:
        raise InputError(f"agent count must be >= 1, got {n}")
    return Fraction(1, 12 * n)


def iteration_cap(n: int) -> int:
    """Hard budget for the rescale loop: comfortably above the provable
    O(n^3) bound, so hitting it means a bug, not a big instance."""
    return 4 * n**3 + 16


def rescale_candidates(
    state: ReductionState, agent: int, held_out: set[int]
) -> dict[str, tuple[int, int]]:
    """Certified upper bounds on ``agent``'s maximin share, by source.

    Each candidate says: if the agent's true share exceeded this value, some
    removal or profile condition would have fired already.  The caller takes
    the max.  ``held_out`` lists items that were tentatively assigned before
    the rollback; the "open_pair" candidate only considers items outside it.

    Keys: "top", "mid_pair" and "tail_triple" (4/3 of the agent's value for
    that fixed removal bundle of ``candidate_bundles``), "open_pair" (4/3 of
    the best non-held bag item plus the best non-held filler), and
    "bag_deficit", ``scale * spare / (7/8 * low_bags)`` from the agent's
    bag profile: a scan fires for her exactly when it is < 1 with more high
    bags than low.  A candidate with no witness items (for "bag_deficit", no
    low bag) is omitted.  Each bound is a pair ``(num, den)``, den > 0.
    """
    num, den = state.scale[agent]
    raw = state.rows[agent].__getitem__
    cands = {
        shape: (4 * num * sum(map(raw, bundle)), 3 * den)
        for shape, bundle in zip(FIXED_SHAPES, candidate_bundles(state))
    }
    # The bags hold the first 2n items, the fillers the rest, best first.
    n = len(state.agents)
    bag_item = next((j for j in state.items[:2 * n] if j not in held_out), None)
    filler_item = next((j for j in state.items[2 * n:] if j not in held_out), None)
    if bag_item is not None and filler_item is not None:
        cands["open_pair"] = (4 * num * (raw(bag_item) + raw(filler_item)), 3 * den)
    # A memo entry lives as long as its layout and her scale, so it is hers here.
    prof = state.memo.get("verdicts", {}).get(agent) or profile_agent(state, agent)
    if prof.low_bags > 0:
        lhs, rhs = state.cross_terms(agent, SPARE_PER_LOW_BAG)
        cands["bag_deficit"] = (prof.spare * lhs, rhs * prof.low_bags)
    return cands


def update_upper_bound(
    state: ReductionState,
    agent: int,
    held_out: set[int],
) -> Fraction:
    """The tightest certified bound on ``agent``'s maximin share, in (0, 1).

    The caller divides the agent's row by this value.  Whether the agent
    needs a rescale is not re-checked here: the update loop establishes that
    on the post-tentative state, while the bound is evaluated on the
    rolled-back one, where the agent's profile can read differently.
    """
    cands = rescale_candidates(state, agent, held_out)
    best = max(cands.values(), key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))
    alpha = Fraction(*best)
    if not 0 < alpha < 1:
        raise InvariantViolation(
            f"rescale bound for agent {agent} is {alpha}, outside (0, 1); "
            f"candidates: { {k: str(Fraction(*v)) for k, v in cands.items()} }"
        )
    return alpha


def _reduce_with_updates(
    state: ReductionState, emit: Callable[..., None]
) -> tuple[ReductionState, int]:
    """The reduction phase of ``solve_poly34``: fixed removals, then
    tentative ones, and while some agent's bag profile proves her working
    bound too high, roll back to the clone taken at the first tentative
    removal (none if nothing was removed; the held items come from the log),
    rescale the first such agent's row by the tightest certified bound and
    rerun both phases.  Returns the final state and its update-loop count.

    The state is fresh, so it holds every active agent and the cap is
    ``iteration_cap`` of the active count; its hook is ``emit``.
    """
    count = len(state.agents)
    cap = iteration_cap(count)
    iterations = 0

    def snap(event: str, fields: dict, live: ReductionState) -> None:
        # The snapshot shares the memo: the first removal rebinds the state's
        # own, so the snapshot keeps only what was found at its layout.
        nonlocal snapshot
        if snapshot is None:
            snapshot = live.clone()
            snapshot.memo = live.memo
        emit(event, fields, live)

    while True:
        reduce_fixed(state)
        emit("fixed_phase_done", state=state)
        snapshot, state.observer = None, snap
        reduce_tentative(state)
        state.observer = emit
        target = next(agents_needing_rescale(state), None)
        if target is None:
            break
        iterations += 1
        if iterations > cap:
            raise InvariantViolation(
                f"rescale loop passed {cap} iterations for {count} agents"
            )
        state, held = (state, set()) if snapshot is None else undo_tentative(state, snapshot)
        emit("undo_tentative")
        bound = update_upper_bound(state, target, held)
        state.scale_row(target, 1 / bound)
        emit("rescale", {"agent": target, "bound": str(bound)})
    emit("finalize_tentative")
    return state, iterations


def _compose_allocation(
    inst: Instance, view: OrderedView, assigned: list, leftovers: tuple[int, ...]
) -> Allocation:
    """Merge the ``(agent, bundle)`` assignments over sorted positions, fold
    leftovers into the last assigned bundle, and lift back to original items.
    """
    bundles: dict[int, tuple[int, ...]] = {i: () for i in range(inst.n)}
    for agent, bundle in assigned:
        bundles[agent] = bundle

    leftover_agent = None
    if leftovers:
        if not assigned:
            raise InvariantViolation("leftover items with nobody to take them")
        leftover_agent = assigned[-1][0]
        bundles[leftover_agent] = tuple(sorted(bundles[leftover_agent] + leftovers))

    ordered_alloc = Allocation(
        bundles=tuple(tuple(sorted(bundles[i])) for i in range(inst.n)),
        leftovers=leftovers,
        leftover_agent=leftover_agent,
    )
    return lift_allocation(inst, view, ordered_alloc)


def normalize_average(view: OrderedView, agents: list[int]) -> dict[int, tuple[int, int]]:
    """One scale per agent of ``agents``, ``(len(agents), sum(int_row))``,
    so her scaled row sums to the agent count and her maximin share is at
    most 1 (the average bound).  Every row must be nonzero."""
    return {a: (len(agents), view.sums[a]) for a in agents}


def normalize_mms(shares: dict[int, int]) -> dict[int, tuple[int, int]]:
    """One scale per agent of ``shares``, ``(1, share)``, making her positive
    share 1.  Each share is in the units of her cleared row."""
    return {a: (1, mu) for a, mu in shares.items()}


def _solve(
    inst: Instance,
    dropped: list[int],
    normalize: Callable[[OrderedView, list[int]], dict[int, tuple[int, int]]],
    reduce: Callable[[ReductionState, Callable[..., None]], tuple[ReductionState, int]],
    alpha: Fraction,
    shares: list[int] | None,
    observer: Callable[[str, dict], None] | None,
) -> tuple[Allocation, SolveStats]:
    """The pipeline both solvers share.

    ``dropped`` lists the agents the empty bundle satisfies, in the order
    their removals are reported; everyone else is active.  ``normalize``
    gives each active agent a starting scale, they go through the ``reduce``
    phase (which returns the final state and its update-loop iteration
    count), and whoever is left gets a bag filled to ``alpha``.
    ``shares`` are the exact shares of the rows at the full agent count when
    the caller has them; they give ``per_agent_ratio``.  Without them, rows are
    renormalized to the agent count after every removal.
    """
    records: list[dict] = []

    def emit(event: str, fields: dict | None = None, state: ReductionState | None = None) -> None:
        # Every event is one JSON-ready record; the observer gets a copy, and
        # a clone of ``state`` when one comes with the event, so a solve that
        # nobody observes copies nothing.  This is also the state's hook.
        record = {"event": event, **(fields or {})}
        records.append(record)
        if observer is not None:
            payload = dict(record)
            if state is not None:
                payload["state"] = state.clone()
            observer(event, payload)

    for i in dropped:
        emit("reduce", AssignmentRecord(i, (), "fixed", ZERO_SHAPE).to_json())
    active = [i for i in range(inst.n) if i not in dropped]

    view = order_instance(inst)
    state = ReductionState.from_instance(
        view, active, normalize(view, active), renormalize=shares is None
    )
    state.observer = emit
    iterations = 0
    if active:
        # With nobody active there is nothing to reduce, and no phase to report.
        state, iterations = reduce(state, emit)
    fills = fill_bags(state, alpha)
    for row in fills.trace:
        emit("bag_round", row)
    # The dropped agents come first, so they take the leftovers only when
    # nobody is active.
    assigned = [(i, ()) for i in dropped] + [(r.agent, r.bundle) for r in state.log]
    alloc = _compose_allocation(inst, view, assigned + list(fills.assignments), fills.leftovers)
    real = [r for r in state.log if r.shape != ZERO_SHAPE]
    fixed = sum(1 for r in real if r.kind == "fixed")
    tentative = sum(1 for r in real if r.kind == "tentative")
    bag_rounds = len(fills.assignments)

    ratios = None
    if shares is not None:
        ratios = tuple(
            None if mu == 0 else Fraction(sum(inst.rows[i][j] for j in alloc.bundles[i]), mu)
            for i, mu in enumerate(shares)
        )
    stats = SolveStats(iterations, fixed, tentative, bag_rounds, ratios, tuple(records))
    return alloc, stats


def solve_poly34(
    inst: Instance, observer: Callable[[str, dict], None] | None = None
) -> tuple[Allocation, SolveStats]:
    """Allocate every item; every agent gets at least 3/4 of her maximin
    share.  Never consults the exact-share oracle.

    ``observer(event, record)`` receives each record of ``stats.events`` as
    it is made; a removal arrives with a ``"state"`` clone from before it,
    and each completed fixed phase with a clone from after it.  Returns
    (allocation, stats).
    """
    silent = [i for i in range(inst.n) if not any(inst.rows[i])]
    return _solve(
        inst,
        silent,
        normalize_average,
        reduce=_reduce_with_updates,
        alpha=DEFAULT_ALPHA,
        shares=None,
        observer=observer,
    )


def solve_existence(
    inst: Instance,
    mode: str = MODE_BASE,
    observer: Callable[[str, dict], None] | None = None,
) -> tuple[Allocation, SolveStats]:
    """Allocate with exact maximin shares in hand.

    mode selects the guarantee: MODE_BASE gives 3/4 of each share, MODE_PLUS
    gives 3/4 + 1/(12 n).  Shares come from the exact oracle, so the item
    count must fit under ``oracle.ORACLE_CAP``.  Stats include per-agent
    ratios against the original instance.  ``observer`` works as in
    ``solve_poly34``.
    """
    if mode not in (MODE_BASE, MODE_PLUS):
        raise InputError(f"unknown mode {mode!r}")
    alpha = DEFAULT_ALPHA + gamma_constant(inst.n) if mode == MODE_PLUS else DEFAULT_ALPHA

    # Exact shares of the int rows at the full agent count, kept for honest
    # ratios.  Agents whose share is zero are satisfied by the empty bundle and leave, and
    # the survivors' shares are recomputed once, at the survivor count:
    # merging bundles never lowers the minimum, so no share drops to zero.
    first_pass = [int(exact_mms(row, inst.n).value) for row in inst.rows]
    dropped = [i for i, mu in enumerate(first_pass) if mu == 0]
    shares = {i: mu for i, mu in enumerate(first_pass) if mu > 0}
    if dropped:
        shares = {i: int(exact_mms(inst.rows[i], len(shares)).value) for i in shares}

    return _solve(
        inst,
        dropped,
        lambda view, active: normalize_mms(shares),
        reduce=lambda state, emit: (reduce_all_shapes(state, alpha), 0),
        alpha=alpha,
        shares=first_pass,
        observer=observer,
    )
