"""The update loop's memo: what it keeps never changes what the solver does.

A state keeps a memo of profile verdicts and of removal passes that found
no taker.  An entry lasts until a removal rebinds the memo to a new dict or
a rescale of its agent rebinds it to a copy without her entries.  A clone
starts with an empty one; the update loop gives its snapshot the live memo,
which the live state leaves behind at its first tentative removal.  Here
every scan the update loop makes is checked against a fresh profile of
every agent, on the loop family's pinned seeds and on near-threshold rows
at n = 20 and 40; the profile and threshold-test counts of the benchmark's
near instance are pinned; a rerun from a snapshot, or another solve, must
not see verdicts it did not make; an edited copy, an observer's or a plain
clone, changes nothing its parent does; a removal pass after a rescale
tests only the rescaled agent; and so does the rerun's first fixed pass
after an undone tentative removal.  Random rescales, removals and
memo-sharing clones never make a state scan or remove otherwise than a
memo-free one.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scale_digests import CASES, near_threshold
from test_update_loop_family import SEEDS, loop_family

import mmsalloc.bags as bags_mod
import mmsalloc.solver as solver_mod
from mmsalloc.bags import agents_needing_rescale, bag_layout, profile_agent
from mmsalloc.jsonio import allocation_to_json, dump_json
from mmsalloc.model import make_instance, order_instance
from mmsalloc.reduction import (
    ReductionState,
    apply_reduction,
    candidate_bundles,
    reduce_fixed,
    reduce_tentative,
)
from mmsalloc.solver import normalize_average, solve_poly34


def fresh_first(state):
    # A new state on the same agents, items and scales starts with no memo.
    twin = ReductionState(state.agents, state.items, state.rows, state.scale, state.renormalize)
    return next((a for a in twin.agents if profile_agent(twin, a).needs_rescale), None)


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
    # now a pass profiles only the rescaled agent, plus one per bound.  Both
    # counts are exact, so a memo that quietly tests more fails here.
    calls, tested = [], []
    real = ReductionState.values_at_least

    def counted(state, agent):
        calls.append(agent)
        return profile_agent(state, agent)

    def counted_test(self, agent, items, alpha):
        tested.append(agent)
        return real(self, agent, items, alpha)

    monkeypatch.setattr(bags_mod, "profile_agent", counted)
    monkeypatch.setattr(solver_mod, "profile_agent", counted)
    monkeypatch.setattr(ReductionState, "values_at_least", counted_test)
    _, stats = solve_poly34(near_threshold(1, 50))
    assert stats.update_loop_iterations == 11
    assert len(calls) == 72
    assert len(tested) == 427


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
    # memo, which each removal rebinds, keeps the discarded run's verdicts
    # from the rerun.
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
    assert snapshot.memo is not state.memo
    calls = []

    def counted(st, agent):
        calls.append(agent)
        return profile_agent(st, agent)

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


def test_rerun_after_an_undone_removal_tests_only_the_rescaled_agent(monkeypatch):
    # The fixed phase finds no taker; then agent 0 takes the top_tail bundle
    # and the tentative phase goes on to remove everyone.  A stand-in scan
    # asks once to rescale agent 1.  The snapshot kept the memo from before
    # the first tentative removal, the fixed phase's no-taker record included,
    # so the rerun's first fixed pass tests agent 1 alone, and she takes the
    # tail triple that her new bound puts at exactly 3/4.
    near = [7000, 7000, 3700, 3700, 3700, 3700, 96] + [92] * 12
    top_tail = [7400, 7400, 3700, 3700, 3600, 3600, 100] + [100] * 5 + [0] * 7
    scans = []

    def scan(state):
        scans.append(state)
        return iter([1] if len(scans) == 1 else [])

    trail = []
    real = ReductionState.values_at_least

    def counted(self, agent, items, alpha):
        trail.append(agent)
        return real(self, agent, items, alpha)

    def observer(event, record):
        if event == "rescale":
            trail.append(event)
        elif event == "reduce":
            trail.append((record["agent"], record["kind"], record["shape"]))

    monkeypatch.setattr(solver_mod, "agents_needing_rescale", scan)
    monkeypatch.setattr(ReductionState, "values_at_least", counted)
    _, stats = solve_poly34(make_instance([top_tail, near, near]), observer=observer)
    assert stats.update_loop_iterations == 1
    cut = trail.index("rescale")
    assert (0, "tentative", "top_tail") in trail[:cut]
    # Three shapes tested, then apply_reduction's own check of her bundle.
    assert trail[cut + 1:cut + 6] == [1, 1, 1, 1, (1, "fixed", "tail_triple")]


def sharing_clone(state):
    # The update loop's snapshot: a clone that keeps its parent's memo.
    twin = state.clone()
    twin.memo = state.memo
    return twin


def states_agree_with_fresh_ones(state):
    # The memo-free answers: every agent profiled, and a removal pass on a
    # clone, which starts with an empty memo.
    fresh = tuple(a for a in state.agents if profile_agent(state, a).needs_rescale)
    assert tuple(agents_needing_rescale(state)) == fresh
    assert reduce_fixed(sharing_clone(state)).log == reduce_fixed(state.clone()).log


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_memo_never_serves_a_stale_verdict(data):
    # The update loop's moves in any order, on either copy: a rescale (of an
    # agent that needs one, when some does), a removal, and a clone that
    # shares its parent's memo.  After each, every state scans and removes
    # as a memo-free one does, reading in both orders what the others wrote.
    n = data.draw(st.integers(2, 5))
    m = data.draw(st.integers(1, 4 * n))
    row = st.lists(st.integers(0, 60), min_size=m, max_size=m).filter(any)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    view = order_instance(make_instance(rows))
    agents = range(n)
    state = ReductionState.from_instance(view, agents, normalize_average(view, agents), data.draw(st.booleans()))
    states = [state, sharing_clone(state)]
    for each in states:
        states_agree_with_fresh_ones(each)
    for _ in range(8):
        state = data.draw(st.sampled_from(states))
        if not state.agents:
            continue
        step = data.draw(st.sampled_from(["scale", "remove", "clone"]))
        if step == "scale":
            den = data.draw(st.integers(1, 8))
            factor = Fraction(den + data.draw(st.integers(1, den)), den)
            needing = [a for a in state.agents if profile_agent(state, a).needs_rescale]
            state.scale_row(data.draw(st.sampled_from(needing or state.agents)), factor)
        elif step == "remove":
            bundle = data.draw(st.sampled_from([b for b in candidate_bundles(state) if b] or [()]))
            agent = data.draw(st.sampled_from(state.agents))
            apply_reduction(state, agent, bundle, "fixed", "top", alpha=Fraction(0))
        else:
            states.append(sharing_clone(state))
        for each in states + states[::-1]:
            states_agree_with_fresh_ones(each)
