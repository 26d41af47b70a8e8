"""The update loop's memo: what it keeps never changes what the solver does.

A state keeps a memo of bag layouts, profile verdicts and removal passes
that found no taker, keyed on the layout version and each agent's scale.
A clone starts with an empty one; only the update loop's snapshot gets the
live memo back, from ``undo_tentative``.  Here every scan the update loop
makes is checked against a fresh profile of every agent, on the loop
family's pinned seeds and on near-threshold rows at n = 20 and 40; the
profile count of the benchmark's near instance is pinned; a rerun from a
snapshot, or another solve, must not see verdicts it did not make; an edited
copy, an observer's or a plain clone, changes nothing its parent does; and
a removal pass after a rescale tests only the rescaled agent.
"""

import hashlib
from fractions import Fraction

import pytest
from test_scale_digests import CASES, near_threshold
from test_update_loop_family import SEEDS, loop_family

import mmsalloc.bags as bags_mod
import mmsalloc.solver as solver_mod
from mmsalloc.bags import agents_needing_rescale, bag_layout, profile_agent
from mmsalloc.jsonio import allocation_to_json, dump_json
from mmsalloc.model import make_instance, order_instance
from mmsalloc.reduction import ReductionState, apply_reduction, reduce_fixed, reduce_tentative
from mmsalloc.solver import normalize_average, solve_poly34


def fresh_first(state):
    # A new state on the same agents, items and scales starts with no memo.
    twin = ReductionState(state.agents, state.items, state.rows, state.scale, state.renormalize)
    layout = bag_layout(twin)
    return next((a for a in twin.agents if profile_agent(twin, a, layout).needs_rescale), None)


def solve_checked(inst, monkeypatch):
    picks = []

    def checked(state):
        got = next(agents_needing_rescale(state), None)
        assert got == fresh_first(state), len(picks)
        picks.append(got)
        return iter(() if got is None else (got,))

    monkeypatch.setattr(solver_mod, "agents_needing_rescale", checked)
    alloc, stats = solve_poly34(inst)
    assert len(picks) == stats.update_loop_iterations + 1
    assert picks[-1] is None
    return stats


@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_cached_scan_matches_fresh_profiles_on_loop_family(seed, monkeypatch):
    stats = solve_checked(loop_family(seed), monkeypatch)
    assert stats.update_loop_iterations == SEEDS[seed][0]


@pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (40, 1), (40, 3)])
def test_cached_scan_matches_fresh_profiles_on_near_rows(n, seed, monkeypatch):
    stats = solve_checked(near_threshold(seed, n), monkeypatch)
    assert stats.update_loop_iterations >= 1
    assert stats.fixed_assignments > 0


def test_near_instance_profiles_each_agent_about_once(monkeypatch):
    # The benchmark's near_instance(random.Random(1)): 50 agents, 11 rescales.
    # Every pass re-profiled all agents up to the first hit (370 profiles);
    # now a pass profiles only the rescaled agent, plus one per bound.
    calls = []

    def counted(state, agent, layout):
        calls.append(agent)
        return profile_agent(state, agent, layout)

    monkeypatch.setattr(bags_mod, "profile_agent", counted)
    monkeypatch.setattr(solver_mod, "profile_agent", counted)
    _, stats = solve_poly34(near_threshold(1, 50))
    assert stats.update_loop_iterations == 11
    assert len(calls) <= 80


def envelope_digest(inst):
    alloc, stats = solve_poly34(inst)
    return hashlib.sha256(dump_json(allocation_to_json(alloc, stats)).encode()).hexdigest()


def test_solves_share_nothing():
    a, b = near_threshold(1, 20), loop_family(834)
    alone = envelope_digest(b)
    envelope_digest(a)
    assert envelope_digest(b) == alone


def test_an_observer_editing_its_copy_changes_nothing():
    # The observer drops an agent from its fixed_phase_done copy and scans
    # it; the solve still runs as a plain one does.
    build, iterations, expected = CASES["near_50"]

    def observer(event, record):
        if event == "fixed_phase_done":
            copy = record["state"]
            del copy.agents[0]
            tuple(agents_needing_rescale(copy))

    alloc, stats = solve_poly34(build(), observer=observer)
    envelope = dump_json(allocation_to_json(alloc, stats))
    assert stats.update_loop_iterations == iterations
    assert hashlib.sha256(envelope.encode()).hexdigest() == expected


def test_a_clone_shares_no_scratch_with_its_parent():
    view = order_instance(make_instance([[740, 740, 375, 373, 370, 370, 8, 8, 8, 8]] * 3))
    st = ReductionState.from_instance(view, range(3), normalize_average(view, range(3)), True)
    twin = st.clone()
    del twin.items[0]
    assert bag_layout(twin) == (((1, 6), (2, 5), (3, 4)), [7, 8, 9])
    tuple(agents_needing_rescale(twin))
    fresh = ReductionState(st.agents, st.items, st.rows, st.scale, st.renormalize)
    assert bag_layout(st) == bag_layout(fresh) == (((0, 5), (1, 4), (2, 3)), [6, 7, 8, 9])
    assert tuple(agents_needing_rescale(st)) == tuple(agents_needing_rescale(fresh)) == (0, 1, 2)


def test_rerun_from_a_snapshot_profiles_afresh(monkeypatch):
    # Without renormalization a removal keeps every scale object, so only the
    # version tells the discarded run's layout and verdicts from the rerun's.
    # Agent 3 leaving with the 1000 leaves every survivor needing a rescale;
    # leaving with a filler instead leaves all three bags high.
    view = order_instance(make_instance([[1000, 740, 740, 375, 373, 370, 370, 8, 8, 8, 8]] * 4))
    state = ReductionState.from_instance(
        view, range(4), normalize_average(view, range(4)), renormalize=False
    )
    snapshot = state.clone()
    apply_reduction(state, 3, (0,), "tentative", "top", alpha=Fraction(0))
    assert tuple(agents_needing_rescale(state)) == (0, 1, 2)
    apply_reduction(snapshot, 3, (10,), "tentative", "top", alpha=Fraction(0))
    assert snapshot.version != state.version
    calls = []

    def counted(st, agent, layout):
        calls.append(agent)
        return profile_agent(st, agent, layout)

    monkeypatch.setattr(bags_mod, "profile_agent", counted)
    assert tuple(agents_needing_rescale(snapshot)) == ()
    assert calls == [0, 1, 2]
    assert bag_layout(snapshot) == (((0, 5), (1, 4), (2, 3)), [6, 7, 8, 9])


def test_removal_pass_retests_only_rescaled_agents(monkeypatch):
    # No fixed or tentative shape fires at first; a repeat pass tests nobody,
    # a pass after a rescale tests only that agent, and one that now takes a
    # bundle takes it exactly as a fresh pass would.
    view = order_instance(make_instance([[740, 740, 375, 373, 370, 370, 8, 8, 8, 8]] * 3))
    st = ReductionState.from_instance(view, range(3), normalize_average(view, range(3)), True)
    reduce_fixed(reduce_tentative(st))
    assert st.log == []
    tested = []
    real = ReductionState.values_at_least

    def counted(self, agent, items, alpha):
        tested.append(agent)
        return real(self, agent, items, alpha)

    monkeypatch.setattr(ReductionState, "values_at_least", counted)
    reduce_tentative(reduce_fixed(st))
    assert tested == []
    st.scale_row(1, Fraction(1, 2))
    reduce_fixed(st)
    assert tested == [1, 1, 1]
    st.scale_row(2, Fraction(76, 74))
    fresh = ReductionState(st.agents, st.items, st.rows, st.scale, True)
    assert reduce_fixed(st).log == reduce_fixed(fresh).log
    assert [(r.agent, r.shape) for r in st.log][:1] == [(2, "top")]
