"""Removal phases: candidate bundles, eligibility, application, undo."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_oracle import state_key

from mmsalloc.errors import InvariantViolation
from mmsalloc.model import make_instance, order_instance
from mmsalloc.reduction import (
    DEFAULT_ALPHA,
    SHAPES,
    ReductionState,
    apply_reduction,
    candidate_bundles,
    reduce_all_shapes,
    reduce_fixed,
    reduce_tentative,
    undo_tentative,
)
from mmsalloc.solver import normalize_average
from mmsalloc.verify import check_valid_reduction


def state_from_rows(rows, renormalize=True):
    inst = make_instance(rows)
    view = order_instance(inst)
    ids = [i for i in range(inst.n) if sum(inst.values[i]) > 0]
    return ReductionState.from_instance(
        view, ids, normalize_average(view, ids), renormalize=renormalize
    )


def assert_totals(state):
    # The running totals are exactly the remaining agents' raw row sums.
    assert state.totals == {
        a: sum(state.rows[a][j] for j in state.items) for a in state.agents
    }


def test_candidate_bundle_positions():
    # n=3, m=10: top={pos1}, mid={pos3,4}, tail={pos5,6,7}, top+tail={pos1,7}
    st_ = state_from_rows([[10 - j for j in range(10)]] * 3)
    cands = dict(zip(SHAPES, candidate_bundles(st_)))
    assert cands == {
        "top": (0,),
        "mid_pair": (2, 3),
        "tail_triple": (4, 5, 6),
        "top_tail": (0, 6),
    }


def test_candidate_bundles_truncate():
    st_ = state_from_rows([[5, 4, 3], [5, 4, 3]])
    cands = dict(zip(SHAPES, candidate_bundles(st_)))
    # n=2, m=3: tail triple wants positions 3,4,5 -> only position 3 exists
    assert cands["top"] == (0,)
    assert cands["mid_pair"] == (1, 2)
    assert cands["tail_triple"] == (2,)
    assert cands["top_tail"] == (0,)  # position 5 missing


def test_values_at_least_exact_threshold():
    # agent 0 values the top item at exactly 3/4 of her average share
    st_ = state_from_rows([[3, 1, 0, 0], [1, 1, 1, 1]])
    # normalized row 0: (3/2, 1/2, 0, 0); top item = 3/2 = 2 * 3/4
    assert st_.values_at_least(0, (0,), DEFAULT_ALPHA)
    assert st_.values_at_least(0, (0,), Fraction(3, 2))
    just_above = Fraction(3, 2) + Fraction(1, 10**9)
    assert not st_.values_at_least(0, (0,), just_above)
    assert not st_.values_at_least(0, (1,), DEFAULT_ALPHA)
    assert not st_.values_at_least(1, (1,), DEFAULT_ALPHA)


def test_apply_reduction_renormalizes_survivors():
    st_ = state_from_rows([[6, 2, 2, 2], [3, 3, 3, 3]])
    apply_reduction(st_, 0, (0,), "fixed", "top", alpha=Fraction(0))
    assert st_.agents == [1]
    assert st_.items == [1, 2, 3]
    assert st_.bundle_value(1, st_.items) == 1


def test_apply_reduction_threshold_guard():
    st_ = state_from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])
    with pytest.raises(InvariantViolation, match=r"agent 0 values \(3,\) at 1/2 < 3/4"):
        apply_reduction(st_, 0, (3,), "fixed", "top", alpha=DEFAULT_ALPHA)


def test_apply_reduction_rejects_unknown_agent_or_items():
    st_ = state_from_rows([[2, 1], [2, 1]])
    with pytest.raises(InvariantViolation):
        apply_reduction(st_, 7, (0,), "fixed", "top", alpha=Fraction(0))
    with pytest.raises(InvariantViolation):
        apply_reduction(st_, 0, (9,), "fixed", "top", alpha=Fraction(0))


def test_state_rows_are_integers_and_values_exact():
    # Mixed denominators, a zero, and equal values written differently: the
    # state keeps integer rows yet values every bundle exactly as the instance.
    inst = make_instance(
        [
            ["1/2", "2/4", "1/3", 0, "5/6", 2],
            ["7/9", "1/6", "0.25", "3/4", 0, "1/2"],
            [3, 1, 4, 1, 5, 9],
        ]
    )
    # Starting at 1/d, the state values the sorted rows as they are.
    view = order_instance(inst)
    scales = {a: Fraction(1, d) for a, d in enumerate(view.denominators)}
    state = ReductionState.from_instance(view, [0, 1, 2], scales, renormalize=False)
    assert all(type(v) is int for a in state.agents for v in state.rows[a])
    bundles = [(), (0,), (1, 2), (0, 3, 5), tuple(range(inst.m))]
    for a in state.agents:
        for bundle in bundles:
            sorted_value = sum(Fraction(view.int_rows[a][p], view.denominators[a]) for p in bundle)
            assert state.bundle_value(a, bundle) == sorted_value
            unsorted = [view.ranking[a][p] for p in bundle]
            assert state.bundle_value(a, bundle) == inst.bundle_value(a, unsorted)


def test_removal_renormalization_discards_earlier_rescale():
    # Pins the open question of the integer row kernel in ROADMAP.md:
    # renormalizing after a removal throws away an earlier rescale of a
    # survivor, because every surviving total is set back to the agent count.
    st_ = state_from_rows([[6, 2, 2, 2], [3, 3, 3, 3], [1, 2, 3, 4]])
    st_.scale_row(2, Fraction(2))
    assert st_.bundle_value(2, st_.items) == 6
    apply_reduction(st_, 0, (0,), "fixed", "top", alpha=Fraction(0))
    assert st_.agents == [1, 2]
    assert st_.bundle_value(2, st_.items) == len(st_.agents)


def test_zero_row_cascade():
    # once items 0 and 1 leave, agent 1 values nothing and must exit too
    st_ = state_from_rows([[4, 4, 1, 1], [5, 5, 0, 0], [1, 1, 1, 1]])
    apply_reduction(st_, 0, (0, 1), "fixed", "mid_pair", alpha=Fraction(0))
    assert st_.agents == [2]
    shapes = [(r.agent, r.shape, r.bundle) for r in st_.log]
    assert (0, "mid_pair", (0, 1)) in shapes
    assert (1, "zero", ()) in shapes
    # survivor renormalized to the final agent count
    assert st_.bundle_value(2, st_.items) == 1
    assert_totals(st_)


def test_reduce_fixed_prefers_lower_shape_then_lower_agent():
    # both agents qualify on the top item; agent 0 must win it
    st_ = state_from_rows([[9, 1, 1, 1], [9, 1, 1, 1]])
    reduce_fixed(st_)
    first = st_.log[0]
    assert (first.agent, first.shape, first.kind) == (0, "top", "fixed")


def test_reduce_fixed_never_uses_top_tail():
    rows = [[700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10]] * 3
    st_ = state_from_rows(rows)
    reduce_fixed(st_)
    assert all(r.shape != "top_tail" for r in st_.log)


def test_tentative_cascade_unlocks_tail_triple():
    # agent 0 leaves with positions {1, 7}; renormalization then pushes
    # agent 1's tail triple to the threshold, which was below it before
    a = [700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10]
    b = [740, 740, 375, 374, 372, 372, 5, 5, 5, 5, 5, 1, 1]
    c = [1] * 13
    st_ = state_from_rows([a, b, c])
    reduce_fixed(st_)
    assert st_.log == []
    reduce_tentative(st_)
    got = [(r.agent, r.shape, r.kind, r.bundle) for r in st_.log]
    assert got == [
        (0, "top_tail", "tentative", (0, 6)),
        (1, "tail_triple", "tentative", (3, 4, 5)),
    ]


def test_undo_tentative_restores_state():
    a = [700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10]
    b = [740, 740, 375, 374, 372, 372, 5, 5, 5, 5, 5, 1, 1]
    st_ = state_from_rows([a, b, [1] * 13])
    before = state_key(st_)
    snapshot = st_.clone()
    reduce_tentative(st_)
    assert state_key(st_) != before
    st_, _ = undo_tentative(st_, snapshot)
    assert state_key(st_) == before
    assert st_.log == []


def test_undo_restores_totals_after_a_survivor_renormalized():
    # agent 2 was scaled down, then renormalized by each tentative removal;
    # the undo brings back her scale and every total from the snapshot
    a = [700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10]
    b = [740, 740, 375, 374, 372, 372, 5, 5, 5, 5, 5, 1, 1]
    st_ = state_from_rows([a, b, [1] * 13])
    st_.scale_row(2, Fraction(1, 2))
    before, totals = state_key(st_), dict(st_.totals)
    snapshot = st_.clone()
    reduce_tentative(st_)
    assert st_.agents == [2]
    assert st_.bundle_value(2, st_.items) == 1
    assert_totals(st_)
    st_, _ = undo_tentative(st_, snapshot)
    assert (state_key(st_), st_.totals) == (before, totals)
    assert st_.bundle_value(2, st_.items) == Fraction(3, 2)
    assert_totals(st_)


def test_clone_copies_totals():
    st_ = state_from_rows([[6, 2, 2, 2], [3, 3, 3, 3], [1, 2, 3, 4]])
    twin = st_.clone()
    assert twin.totals == st_.totals and twin.totals is not st_.totals
    apply_reduction(twin, 0, (0,), "fixed", "top", alpha=Fraction(0))
    assert_totals(twin)
    assert_totals(st_)


def test_reduce_all_shapes_includes_top_tail():
    a = [700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10]
    st_ = state_from_rows([a, a, a])
    reduce_all_shapes(st_, DEFAULT_ALPHA)
    assert any(r.shape == "top_tail" for r in st_.log)
    assert all(r.kind == "fixed" for r in st_.log)


def test_records_serialize():
    st_ = state_from_rows([[9, 1, 1], [9, 1, 1]])
    reduce_fixed(st_)
    doc = st_.log[0].to_json()
    assert doc == {"agent": 0, "bundle": [0], "kind": "fixed", "shape": "top"}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fixed_reductions_are_valid_reductions(data):
    # audit every fixed removal against the oracle definition: receiver
    # satisfied, and no survivor's exact share decreases.  Entries over 2, 3
    # and 6 give rows whose cleared denominator exceeds 1, so renormalization
    # divides the agent count by raw sums of scaled-up ints.
    n = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(n, 7))
    entry = st.one_of(
        st.integers(0, 9), st.builds(Fraction, st.integers(0, 9), st.sampled_from([2, 3, 6]))
    )
    rows = data.draw(
        st.lists(
            st.lists(entry, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    inst = make_instance(rows)
    if any(sum(inst.values[i]) == 0 for i in range(n)):
        return
    snapshots = []

    def observer(event, fields, state):
        if event == "reduce":
            snapshots.append({**fields, "state": state.clone()})

    view = order_instance(inst)
    ids = list(range(n))
    st_ = ReductionState.from_instance(view, ids, normalize_average(view, ids), True)
    st_.observer = observer
    reduce_fixed(st_)
    # every removal starts from restored rows, and so does the final state:
    # each row sums exactly to the agent count, so no row is zero
    restored = [snap["state"] for snap in snapshots if snap["shape"] != "zero"]
    for state in restored + [st_]:
        assert all(state.bundle_value(a, state.items) == len(state.agents) for a in state.agents)
    # every snapshot is a clone, zero-row cascades included
    for state in [snap["state"] for snap in snapshots] + [st_, st_.clone()]:
        assert_totals(state)
    for snap in snapshots:
        before = snap["state"]
        if snap["shape"] == "zero":
            assert before.bundle_value(snap["agent"], before.items) == 0
            continue
        agents = before.agents
        items = before.items
        if len(agents) < 2:
            continue  # the definition is vacuous for a lone agent
        sub = make_instance(
            [[before.bundle_value(i, (j,)) for j in items] for i in agents]
        )
        pos = {j: p for p, j in enumerate(items)}
        assert check_valid_reduction(
            sub,
            agents.index(snap["agent"]),
            tuple(pos[j] for j in snap["bundle"]),
            DEFAULT_ALPHA,
        )
    # the tentative phase keeps the totals at each removal, and its undo
    # restores them with the snapshot
    fixed_count = len(snapshots)
    before = state_key(st_), dict(st_.totals)
    snapshot = st_.clone()
    reduce_tentative(st_)
    for state in [snap["state"] for snap in snapshots[fixed_count:]] + [st_]:
        assert_totals(state)
    st_, _ = undo_tentative(st_, snapshot)
    assert (state_key(st_), st_.totals) == before
    assert_totals(st_)
