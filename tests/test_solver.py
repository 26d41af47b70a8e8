"""End-to-end solver behavior on hand-built and random instances."""

from fractions import Fraction

import pytest
from naive_oracle import scale_agent, state_key, upper_bound_reference
from test_scale_digests import near_threshold, removal_heavy
from test_update_loop_family import SEEDS, WIDE_SEEDS, loop_family

import mmsalloc.reduction as reduction_mod
import mmsalloc.solver as solver_mod
from mmsalloc.errors import InputError, InvariantViolation
from mmsalloc.generate import gen_instance, make_spec
from mmsalloc.jsonio import allocation_to_json, dump_json
from mmsalloc.model import Allocation, Instance, make_instance, order_instance
from mmsalloc.oracle import exact_mms
from mmsalloc.reduction import ReductionState, reduce_tentative, undo_tentative
from mmsalloc.solver import (
    MODE_BASE,
    MODE_PLUS,
    gamma_constant,
    iteration_cap,
    normalize_average,
    rescale_candidates,
    solve_existence,
    solve_poly34,
    update_upper_bound,
)
from mmsalloc.verify import check_alpha_mms

RESCALE_ROW = [740, 740, 375, 373, 370, 370, 8, 8, 8, 8]
CASCADE_ROWS = [
    [700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10],
    [740, 740, 375, 374, 372, 372, 5, 5, 5, 5, 5, 1, 1],
    [1] * 13,
]
FIVE_CANDIDATE_ROW = [7400, 7000, 3700, 3600, 3550, 3500] + [96] * 13 + [2]


def average_state(inst):
    view = order_instance(inst)
    ids = list(range(inst.n))
    return ReductionState.from_instance(view, ids, normalize_average(view, ids), True)


def partitioned(inst, alloc):
    flat = sorted(j for b in alloc.bundles for j in b)
    return flat == list(range(inst.m))


def test_gamma_constant():
    assert gamma_constant(1) == Fraction(1, 12)
    assert gamma_constant(4) == Fraction(1, 48)
    with pytest.raises(InputError):
        gamma_constant(0)


def test_iteration_cap():
    assert iteration_cap(1) == 20
    assert iteration_cap(5) == 516


def test_rescale_candidates_all_five():
    inst = make_instance([FIVE_CANDIDATE_ROW] * 3)
    st = average_state(inst)
    cands = rescale_candidates(st, 0, set())
    assert {shape: Fraction(*pair) for shape, pair in cands.items()} == {
        "top": Fraction(74, 75),
        "mid_pair": Fraction(73, 75),
        "tail_triple": Fraction(1191, 1250),
        "open_pair": Fraction(1874, 1875),
        "bag_deficit": Fraction(171, 175),
    }
    assert update_upper_bound(st, 0, set()) == Fraction(1874, 1875)


def test_rescale_candidates_respect_held_out():
    inst = make_instance([FIVE_CANDIDATE_ROW] * 3)
    st = average_state(inst)
    # holding out the best bag item and best filler moves the open pair
    # to the next positions (7000 and the next 96)
    held = {0, 6}
    cands = rescale_candidates(st, 0, held)
    assert Fraction(*cands["open_pair"]) == Fraction(4, 3) * Fraction(7000 + 96, 10000)
    # other candidates are untouched by the hold-out
    assert Fraction(*cands["top"]) == Fraction(74, 75)


def test_solve_rescale_loop_runs_once():
    inst = make_instance([RESCALE_ROW] * 3)
    alloc, stats = solve_poly34(inst)
    assert stats.update_loop_iterations == 1
    rescales = [e for e in stats.events if e["event"] == "rescale"]
    assert rescales == [{"event": "rescale", "agent": 0, "bound": "374/375"}]
    assert partitioned(inst, alloc)
    assert check_alpha_mms(inst, alloc, Fraction(3, 4)).overall


def test_solve_tentative_cascade_instance():
    a = [700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10]
    b = [740, 740, 375, 374, 372, 372, 5, 5, 5, 5, 5, 1, 1]
    inst = make_instance([a, b, [1] * 13])
    alloc, stats = solve_poly34(inst)
    assert alloc.bundles == ((0, 6), (3, 4, 5), (1, 2, 7, 8, 9, 10, 11, 12))
    assert alloc.leftovers == (11, 12)
    assert alloc.leftover_agent == 2
    assert stats.tentative_assignments == 2
    assert stats.bag_rounds == 1
    assert check_alpha_mms(inst, alloc, Fraction(3, 4)).overall


def test_poly34_never_calls_oracle(monkeypatch):
    inst = gen_instance(make_spec(4, 11, "uniform:0:100", 5))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return exact_mms(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "exact_mms", counted)
    solve_poly34(inst)
    assert calls == []
    # the counter sits where the solvers look the oracle up
    solve_existence(inst)
    assert len(calls) == inst.n


@pytest.mark.parametrize(
    "build, removals, rounds",
    [
        (lambda: removal_heavy(0), 37, 3),
        (lambda: gen_instance(make_spec(60, 600, "uniform:1:1000", 0)), 0, 60),
    ],
    ids=["removal_40", "uniform_60x600"],
)
def test_a_solve_builds_one_fraction_per_bag_round(build, removals, rounds, monkeypatch):
    # A host-independent cost guard: a solve with no update-loop iteration
    # builds a Fraction only for each bag round's value, which leaves the
    # solver in the trace, and none inside a removal.  With Fraction scales
    # these solves built 820 and 120.
    inst = build()
    built, removed, removing = [], [], []
    new, apply = Fraction.__new__, reduction_mod.apply_reduction

    def counted(cls, *args, **kwargs):
        built.append(bool(removing))
        return new(cls, *args, **kwargs)

    def applied(*args, **kwargs):
        removed.append(args[1])
        removing.append(args[1])
        try:
            return apply(*args, **kwargs)
        finally:
            removing.pop()

    monkeypatch.setattr(reduction_mod, "apply_reduction", applied)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    _, stats = solve_poly34(inst)
    monkeypatch.undo()
    assert (stats.update_loop_iterations, len(removed), stats.bag_rounds) == (0, removals, rounds)
    assert built == [False] * rounds


def test_poly34_deterministic():
    inst = gen_instance(make_spec(4, 12, "uniform:1:100", 17))
    a1, s1 = solve_poly34(inst)
    a2, s2 = solve_poly34(inst)
    assert a1 == a2
    assert s1.events == s2.events
    assert dump_json(allocation_to_json(a1, s1)) == dump_json(allocation_to_json(a2, s2))


def test_poly34_scale_invariant():
    inst = gen_instance(make_spec(3, 9, "uniform:1:50", 23))
    scaled = scale_agent(inst, 1, Fraction(7, 3))
    a1, _ = solve_poly34(inst)
    a2, _ = solve_poly34(scaled)
    assert a1.bundles == a2.bundles
    assert a1.leftover_agent == a2.leftover_agent


def test_all_zero_instance_parks_items():
    inst = make_instance([[0, 0, 0], [0, 0, 0]])
    alloc, stats = solve_poly34(inst)
    assert alloc.bundles == ((), (0, 1, 2))
    assert alloc.leftover_agent == 1
    assert stats.per_agent_ratio is None
    assert check_alpha_mms(inst, alloc, Fraction(3, 4)).overall


def test_zero_agent_among_active_ones():
    inst = make_instance([[0, 0, 0, 0], [4, 3, 2, 1], [1, 1, 1, 1]])
    alloc, stats = solve_poly34(inst)
    assert alloc.bundles[0] == ()
    assert partitioned(inst, alloc)
    zero_events = [
        e for e in stats.events if e["event"] == "reduce" and e["shape"] == "zero"
    ]
    assert [e["agent"] for e in zero_events] == [0]
    assert check_alpha_mms(inst, alloc, Fraction(3, 4)).overall


def test_single_agent_gets_everything():
    inst = make_instance([[5, 3, 1]])
    alloc, _ = solve_poly34(inst)
    assert alloc.bundles == ((0, 1, 2),)
    assert check_alpha_mms(inst, alloc, Fraction(1)).overall


def test_no_items():
    inst = make_instance([[], [], []])
    alloc, _ = solve_poly34(inst)
    assert alloc.bundles == ((), (), ())


def test_zero_agent_instance():
    # No agents means no items; the base solvers return the empty allocation,
    # while the plus margin 1/(12 n) has no n to divide by.
    inst = Instance((), ())
    for alloc, stats in (solve_poly34(inst), solve_existence(inst, MODE_BASE)):
        assert alloc == Allocation((), (), None)
        assert stats.events == ()
    with pytest.raises(InputError):
        solve_existence(inst, MODE_PLUS)


def test_fewer_items_than_agents():
    inst = make_instance([[7, 2], [5, 5], [1, 9]])
    alloc, _ = solve_poly34(inst)
    assert partitioned(inst, alloc)
    # every share is zero here, so anything certifies
    assert check_alpha_mms(inst, alloc, Fraction(3, 4)).overall


def test_events_are_json_ready():
    import json

    inst = make_instance([RESCALE_ROW] * 3)
    _, stats = solve_poly34(inst)
    json.dumps(stats.to_json())


def solve_plus(inst, observer):
    return solve_existence(inst, MODE_PLUS, observer=observer)


@pytest.mark.parametrize(
    "rows, solve",
    [
        ([RESCALE_ROW] * 3, solve_poly34),
        (CASCADE_ROWS, solve_plus),
        ([[4, 4, 2, 2], [7, 0, 0, 0]], solve_plus),
    ],
    ids=["poly34-rescale", "plus-cascade", "plus-zero-share"],
)
def test_observer_receives_the_event_stream(rows, solve):
    inst = make_instance(rows)
    received = []

    def observer(event, record):
        key = state_key(record["state"]) if "state" in record else None
        received.append((event, record, key))

    _, stats = solve(inst, observer=observer)
    assert [event for event, _, _ in received] == [r["event"] for r in stats.events]
    assert [
        {k: v for k, v in record.items() if k != "state"} for _, record, _ in received
    ] == list(stats.events)
    for index, (event, record, key) in enumerate(received):
        # removals and completed fixed phases carry a clone, except the
        # leading zero-shape removals, which happen before there is a state
        leading = all(r.get("shape") == "zero" for _, r, _ in received[: index + 1])
        expects_state = event == "fixed_phase_done" or (event == "reduce" and not leading)
        assert ("state" in record) == expects_state
        if "state" in record:
            clone = record["state"]
            assert state_key(clone) == key  # later mutation left it alone
            if event == "reduce":
                assert record["agent"] in clone.agents
                assert set(record["bundle"]) <= set(clone.items)


def test_existence_base_ratios():
    inst = make_instance([[4, 3, 2, 1], [1, 2, 3, 4]])
    alloc, stats = solve_existence(inst, MODE_BASE)
    assert partitioned(inst, alloc)
    assert stats.per_agent_ratio is not None
    for r in stats.per_agent_ratio:
        assert r is None or r >= Fraction(3, 4)
    assert check_alpha_mms(inst, alloc, Fraction(3, 4)).overall


def test_existence_plus_hits_higher_target():
    inst = gen_instance(make_spec(3, 10, "uniform:1:40", 31))
    alloc, stats = solve_existence(inst, MODE_PLUS)
    target = Fraction(3, 4) + gamma_constant(3)
    assert check_alpha_mms(inst, alloc, target).overall
    for r in stats.per_agent_ratio:
        assert r is None or r >= target


def test_existence_removes_zero_share_agents():
    # two items cannot cover three agents: every share is zero
    inst = make_instance([[5, 3], [2, 2], [9, 1]])
    alloc, stats = solve_existence(inst, MODE_BASE)
    assert partitioned(inst, alloc)
    assert stats.per_agent_ratio == (None, None, None)


def test_existence_mixed_zero_share():
    # agent 1 only values item 0, so her 2-way share is zero
    inst = make_instance([[4, 4, 2, 2], [7, 0, 0, 0]])
    alloc, stats = solve_existence(inst, MODE_BASE)
    assert partitioned(inst, alloc)
    assert stats.per_agent_ratio[1] is None
    assert stats.per_agent_ratio[0] >= Fraction(3, 4)


def test_existence_computes_shares_in_two_passes(monkeypatch):
    calls = []

    def counted(values, k):
        calls.append((values, k))
        return exact_mms(values, k)

    monkeypatch.setattr(solver_mod, "exact_mms", counted)
    # no zero share: one pass, every agent at k = n
    inst = make_instance([[4, 3, 2, 1], [1, 2, 3, 4], [2, 2, 2, 2]])
    solve_existence(inst, MODE_BASE)
    # The oracle gets the instance's own cleared int rows, not a copy.
    assert all(values is inst.rows[i] for i, (values, _) in enumerate(calls))
    assert calls == [(inst.rows[i], 3) for i in range(3)]
    # agent 1 only values item 0, so her 2-way share is zero; the survivor's
    # share is computed once more, at the survivor count
    calls.clear()
    inst = make_instance([[4, 4, 2, 2], [7, 0, 0, 0]])
    solve_existence(inst, MODE_PLUS)
    assert calls == [(inst.rows[0], 2), (inst.rows[1], 2), (inst.rows[0], 1)]
    assert all(values is inst.rows[i] for (values, _), i in zip(calls, (0, 1, 0)))
    # every share zero: nobody survives, so there is no second pass
    calls.clear()
    solve_existence(make_instance([[5, 3], [2, 2], [9, 1]]), MODE_BASE)
    assert [k for _, k in calls] == [3, 3, 3]


def test_existence_rejects_unknown_mode():
    inst = make_instance([[1, 2]])
    with pytest.raises(InputError):
        solve_existence(inst, "nonsense")


def test_held_out_collection_after_real_tentative_phase():
    # the update loop gathers the tentatively removed items before rolling
    # back, so the bound never leans on items another agent already holds
    a = [700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10]
    b = [740, 740, 375, 374, 372, 372, 5, 5, 5, 5, 5, 1, 1]
    inst = make_instance([a, b, [1] * 13])
    st = average_state(inst)
    before = state_key(st)
    mark = st.mark()
    reduce_tentative(st)
    assert undo_tentative(st, mark) == {0, 3, 4, 5, 6}
    assert state_key(st) == before


def test_update_upper_bound_with_held_out_items():
    inst = make_instance([FIVE_CANDIDATE_ROW] * 3)
    st = average_state(inst)
    # with the top item and best filler held out, the open pair weakens
    # below the top candidate, which becomes the binding bound
    bound = update_upper_bound(st, 0, {0, 6})
    assert bound == Fraction(74, 75)
    assert Fraction(*rescale_candidates(st, 0, {0, 6})["open_pair"]) == Fraction(
        4, 3
    ) * Fraction(7000 + 96, 10000)


def test_update_upper_bound_raises_without_low_bags():
    # Bag n-1 is the mid_pair bundle, so with no low bag that candidate is
    # 4/3 of a value >= 3/4: the bound reaches 1 and cannot be a rescale.
    st = average_state(make_instance([[1, 1, 1, 1]] * 2))
    assert "bag_deficit" not in rescale_candidates(st, 0, set())
    with pytest.raises(InvariantViolation, match=r"outside \(0, 1\)"):
        update_upper_bound(st, 0, set())


BOUND_CASES = {
    **{f"near_{s}": (lambda s=s: near_threshold(s, 50), None) for s in (1, 2, 3)},
    **{f"loop_{s}": (lambda s=s: loop_family(s), SEEDS[s][0]) for s in sorted(SEEDS)},
    **{f"wide_{n}_{s}": (lambda s=s, n=n: loop_family(s, n), it)
       for n, seeds in WIDE_SEEDS.items() for s, it in seeds.items()},
}


@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_int_bound_matches_fraction_reference(name, monkeypatch):
    # At every rescale the bound picked by cross-multiplying int pairs is the
    # max of the Fraction candidates, and it is what the rescale event reports.
    build, iterations = BOUND_CASES[name]
    bounds = []
    real = solver_mod.update_upper_bound

    def checked(state, agent, held_out):
        got = real(state, agent, held_out)
        assert type(got) is Fraction and got == upper_bound_reference(state, agent, held_out)
        bounds.append(str(got))
        return got

    monkeypatch.setattr(solver_mod, "update_upper_bound", checked)
    _, stats = solve_poly34(build())
    assert bounds == [e["bound"] for e in stats.events if e["event"] == "rescale"]
    assert len(bounds) == stats.update_loop_iterations >= 1
    assert iterations in (None, stats.update_loop_iterations)
