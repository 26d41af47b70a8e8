"""Bag layout, agent profiles, and the filling round."""

import random
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_oracle import fill_bags_reference, profile_agent_reference, state_key

import mmsalloc.bags as bags_mod
from mmsalloc.bags import (
    agents_needing_rescale,
    bag_layout,
    fill_bags,
    profile_agent,
)
from mmsalloc.errors import InvariantViolation
from mmsalloc.model import OrderedView, make_instance, order_instance
from mmsalloc.reduction import (
    ReductionState,
    apply_reduction,
    candidate_bundles,
    undo_tentative,
)
from mmsalloc.solver import normalize_average, rescale_candidates


def make_state(rows, renormalize=True):
    view = order_instance(make_instance(rows))
    ids = [i for i, row in enumerate(view.int_rows) if any(row)]
    return ReductionState.from_instance(
        view, ids, normalize_average(view, ids), renormalize=renormalize
    )


def layout(n, m):
    # n agents over items range(m); bag_layout reads only agents and items.
    scales = {a: (1, 1) for a in range(n)}
    return bag_layout(ReductionState(range(n), range(m), [[1] * m] * n, scales, False))


def test_bag_layout_pairs_ends():
    assert layout(3, 6) == (((0, 5), (1, 4), (2, 3)), [])
    assert layout(1, 2) == (((0, 1),), [])
    assert layout(0, 0) == ((), [])
    assert layout(2, 7) == (((0, 3), (1, 2)), [4, 5, 6])


def test_bag_layout_truncates_to_item_count():
    assert layout(3, 4) == (((0,), (1,), (2, 3)), [])
    assert layout(2, 2) == (((0,), (1,)), [])
    assert layout(2, 0) == (((), ()), [])


def test_last_bag_is_the_mid_pair():
    # Bag n-1 pairs positions n and n+1 (counting from 1), the mid_pair
    # candidate, truncation included, on any ascending item ids.
    rng = random.Random(7)
    for n in range(1, 7):
        for m in range(21):
            items = sorted(rng.sample(range(40), m))
            scales = {a: (1, 1) for a in range(n)}
            state = ReductionState(range(n), items, [[1] * 40] * n, scales, False)
            assert bag_layout(state)[0][-1] == candidate_bundles(state)[1], (n, items)


def test_bag_layout_holds_item_ids_after_a_removal():
    # Bags index the remaining items, so after item 0 leaves they hold ids.
    st = make_state([[9, 5, 4, 3, 2, 1, 1]] * 3)
    apply_reduction(st, 0, (0,), "fixed", "top", alpha=Fraction(0))
    assert st.items == [1, 2, 3, 4, 5, 6]
    assert bag_layout(st) == (((1, 4), (2, 3)), [5, 6])


def test_profile_classify_example():
    # 6 big items and 28 single-percent fillers; row already sums to 3.00
    row = [73, 68, 37, 36, 30, 28] + [1] * 28
    st = make_state([row, row, row])
    p = profile_agent(st, 0)
    assert p.low_bags == 1          # bag {37, 36} = 0.73
    assert p.high_bags == 1         # bag {73, 28} = 1.01
    # raw 28 of fillers plus the low bag's 73, at scale 1/100
    assert p.spare == 101
    # no more high bags than low, and 1.01 >= 7/8 anyway
    assert p.needs_rescale is False
    assert Fraction(*rescale_candidates(st, 0, set())["bag_deficit"]) == Fraction(101, 100) / Fraction(7, 8)


def test_profile_needs_rescale():
    row = [740, 740, 375, 373, 370, 370, 8, 8, 8, 8]
    st = make_state([row, row, row])
    p = profile_agent(st, 0)
    assert (p.low_bags, p.high_bags) == (1, 2)
    # raw 32 of fillers plus the low bag's 748, at scale 1/1000: 0.78 < 7/8
    assert p.spare == 780
    assert p.needs_rescale is True
    assert tuple(agents_needing_rescale(st)) == (0, 1, 2)
    assert Fraction(*rescale_candidates(st, 0, set())["bag_deficit"]) == Fraction(156, 175)


def test_profile_shortfall_is_strict():
    # bags {560, 290} twice (high) and {290, 290} (low) at scale 1/800: the
    # fillers plus the low bag are worth exactly 7/8, which is no shortfall
    row = [560, 560, 290, 290, 290, 290, 60, 60]
    st = make_state([row] * 3)
    p = profile_agent(st, 0)
    assert (p.low_bags, p.high_bags, p.spare) == (1, 2, 700)
    assert p.needs_rescale is False
    assert Fraction(*rescale_candidates(st, 0, set())["bag_deficit"]) == 1
    # one raw unit less of filler: 3 * 699 / 2399 < 7/8
    st = make_state([row[:-1] + [59]] * 3)
    p = profile_agent(st, 0)
    assert (p.low_bags, p.high_bags, p.spare) == (1, 2, 699)
    assert p.needs_rescale is True
    assert Fraction(*rescale_candidates(st, 0, set())["bag_deficit"]) == Fraction(16776, 16793)


def test_rescale_scan_builds_no_fraction(monkeypatch):
    # A host-independent cost guard: once the state is built, a scan of it
    # compares ints only, for an agent that needs a rescale, one whose high
    # bags do not outnumber her low ones, and one exactly on the 7/8 line.
    states = [
        make_state([[740, 740, 375, 373, 370, 370, 8, 8, 8, 8]] * 3),
        make_state([[73, 68, 37, 36, 30, 28] + [1] * 28] * 3),
        make_state([[560, 560, 290, 290, 290, 290, 60, 60]] * 3),
    ]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert [tuple(agents_needing_rescale(st)) for st in states] == [(0, 1, 2), (), ()]
    assert built == []
    # the candidates are int pairs too; the wrap sees what does build one,
    # a bound that leaves the solver
    cands = rescale_candidates(states[0], 0, set())
    assert built == []
    assert Fraction(*cands["bag_deficit"]) == Fraction(156, 175)
    assert built


def test_rescale_scan_stops_at_first_hit(monkeypatch):
    # every agent needs a rescale; asking for the first profiles only her, a
    # repeat scan of the unchanged state profiles nobody, and a rescale
    # brings back only the rescaled agent
    row = [740, 740, 375, 373, 370, 370, 8, 8, 8, 8]
    st = make_state([row, row, row])
    profiled = []

    def counted(state, agent):
        profiled.append(agent)
        return profile_agent(state, agent)

    monkeypatch.setattr(bags_mod, "profile_agent", counted)
    assert next(agents_needing_rescale(st)) == 0
    assert profiled == [0]
    assert tuple(agents_needing_rescale(st)) == (0, 1, 2)
    assert profiled == [0, 1, 2]
    profiled.clear()
    assert tuple(agents_needing_rescale(st)) == (0, 1, 2)
    assert profiled == []
    st.scale_row(1, Fraction(1, 2))
    assert tuple(agents_needing_rescale(st)) == (0, 2)
    assert profiled == [1]
    # a clone profiles afresh; an undo with nothing past its mark keeps the
    # memo and profiles nobody, while one that rolls back a removal starts a
    # new memo and profiles everyone
    profiled.clear()
    assert tuple(agents_needing_rescale(st.clone())) == (0, 2)
    assert profiled == [0, 1, 2]
    profiled.clear()
    mark = st.mark()
    assert undo_tentative(st, mark) == set()
    assert tuple(agents_needing_rescale(st)) == (0, 2)
    assert profiled == []
    apply_reduction(st, 2, (0,), "tentative", "top", alpha=Fraction(0))
    assert undo_tentative(st, mark) == {0}
    assert tuple(agents_needing_rescale(st)) == (0, 2)
    assert profiled == [0, 1, 2]


def test_rescale_scan_builds_no_layout(monkeypatch):
    # a scan reads the bags straight from the items, and its verdicts live
    # for one layout: a removal leaves the state a new memo with none
    row = [740, 740, 375, 373, 370, 370, 8, 8, 8, 8]
    st = make_state([row, row, row])
    layouts = []

    def counted(state):
        layouts.append(state)
        return bag_layout(state)

    monkeypatch.setattr(bags_mod, "bag_layout", counted)
    assert tuple(agents_needing_rescale(st)) == (0, 1, 2)
    st.scale_row(0, Fraction(1, 2))
    assert tuple(agents_needing_rescale(st)) == (1, 2)
    assert layouts == []
    memo = st.memo
    assert set(memo["verdicts"]) == {0, 1, 2}
    apply_reduction(st, 2, (0,), "fixed", "top", alpha=Fraction(0))
    assert st.memo is not memo and "verdicts" not in st.memo
    assert tuple(agents_needing_rescale(st)) == ()
    assert tuple(agents_needing_rescale(make_state([[1, 1, 1, 1]] * 2))) == ()
    assert layouts == []


def test_fill_bags_single_agent_takes_fillers():
    st = make_state([[4, 4, 1, 1, 1, 1]])
    res = fill_bags(st, Fraction(3, 4))
    assert len(res.assignments) == 1
    agent, bundle = res.assignments[0]
    assert agent == 0
    assert st.bundle_value(0, bundle) >= Fraction(3, 4)
    assert res.trace[0]["round"] == 0


def test_fill_bags_lowest_agent_wins_ties():
    row = [5, 5, 1, 1]
    st = make_state([row, row])
    res = fill_bags(st, Fraction(3, 4))
    assert [a for a, _ in res.assignments] == [0, 1]


def test_fill_bags_leftovers():
    # one agent, two big items already exceed the threshold; the rest stay
    st = make_state([[10, 10, 1, 1, 1]])
    res = fill_bags(st, Fraction(3, 4))
    assert res.assignments[0][1] == (0, 1)
    assert res.leftovers == (2, 3, 4)


def test_fill_bags_empty_state():
    st = make_state([[3, 2, 1]])
    st.agents = ()
    res = fill_bags(st, Fraction(3, 4))
    assert res.assignments == ()
    assert res.leftovers == (0, 1, 2)


def test_fill_bags_exhausted_without_renormalization():
    # tiny values, no renormalization: the threshold is out of reach
    inst = make_instance([[Fraction(1, 100)] * 2] * 2)
    view = order_instance(inst)
    scales = {a: (1, d) for a, d in enumerate(inst.denominators)}
    st = ReductionState.from_instance(view, [0, 1], scales, renormalize=False)
    with pytest.raises(InvariantViolation, match="no filler left and no agent accepts"):
        fill_bags(st, Fraction(3, 4))


def test_fill_bags_is_read_only():
    st = make_state([[4, 4, 1, 1, 1, 1], [4, 4, 1, 1, 1, 1]])
    before = state_key(st)
    fill_bags(st, Fraction(3, 4))
    assert state_key(st) == before


# Rows with mixed denominators, then a few steps on the state: a rescale by
# a drawn factor, a rescale that puts a drawn bundle exactly on a threshold,
# or a removal (which renormalizes the survivors).
ENTRY = st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 2, 3, 5, 6, 7, 12]))
STEP = st.tuples(
    st.sampled_from(["scale", "pin", "remove"]),
    st.integers(0, 10**6),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            # m below n too, so some states have empty bags from the start.
            st.integers(1, 4 * n).flatmap(
                lambda m: st.lists(st.lists(ENTRY, min_size=m, max_size=m), min_size=n, max_size=n)
            ),
            st.lists(STEP, max_size=4),
            st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
        )
    )
)
def test_integer_thresholds_match_fraction_reference(case):
    rows, steps, picks = case
    state = make_state(rows)
    alphas = [Fraction(3, 4), Fraction(3, 4) + Fraction(1, 12 * len(rows)), Fraction(1)]

    def bundles():
        bags, fillers = bag_layout(state)
        drawn = tuple(j for k, j in enumerate(state.items) if picks[k % 3] >> k & 1)
        return [*bags, tuple(fillers), *candidate_bundles(state), tuple(state.items), drawn]

    def check():
        for a in state.agents:
            for bundle in bundles():
                value = state.bundle_value(a, bundle)
                for alpha in alphas:
                    assert state.values_at_least(a, bundle, alpha) == (value >= alpha)
            got = profile_agent(state, a)
            want, bag_deficit = profile_agent_reference(state, a)
            assert asdict(got) == asdict(want)
            pair = rescale_candidates(state, a, set()).get("bag_deficit")
            assert (None if pair is None else Fraction(*pair)) == bag_deficit

    check()
    for kind, pick, factor in steps:
        if not state.agents:
            break
        agent = state.agents[pick % len(state.agents)]
        if kind == "scale":
            state.scale_row(agent, factor)
        elif kind == "pin":
            options = [b for b in bundles() if state.bundle_value(agent, b) > 0]
            if options:
                bundle = options[pick % len(options)]
                alpha = alphas[pick % len(alphas)]
                state.scale_row(agent, alpha / state.bundle_value(agent, bundle))
                assert state.values_at_least(agent, bundle, alpha)
                assert not state.values_at_least(agent, bundle, alpha + Fraction(1, 10**9))
        elif state.items:
            apply_reduction(state, agent, (state.items[0],), "fixed", "top", alpha=Fraction(0))
        check()


class CountingRow(tuple):
    """A row that counts its ``__getitem__`` calls; ``sum`` iterates without making any."""

    reads = 0

    def __getitem__(self, j):
        CountingRow.reads += 1
        return super().__getitem__(j)


def test_profile_reads_only_the_bag_entries():
    # A host-independent cost guard: building the state reads no entry one
    # at a time, and a profile reads 2n entries of the row however many
    # fillers there are; after a removal, 2(n-1).
    n, rng = 6, random.Random(5)
    reads = {}
    for fillers in (0, 10 * n):
        m = 2 * n + fillers
        rows = [CountingRow(sorted((rng.randint(1, 99) for _ in range(m)), reverse=True)) for _ in range(n)]
        view = OrderedView(tuple(tuple(range(m)) for _ in rows), tuple(rows))
        CountingRow.reads = 0
        state = ReductionState.from_instance(view, range(n), normalize_average(view, range(n)), True)
        assert CountingRow.reads == 0
        assert state.totals == {a: sum(rows[a]) for a in range(n)}
        for a in state.agents:
            CountingRow.reads = 0
            got = profile_agent(state, a)
            reads.setdefault(fillers, set()).add(CountingRow.reads)
            assert asdict(got) == asdict(profile_agent_reference(state, a)[0])
        apply_reduction(state, 0, (0,), "fixed", "top", alpha=Fraction(0))
        CountingRow.reads = 0
        profile_agent(state, 1)
        assert CountingRow.reads == 2 * (n - 1)
    assert reads == {0: {2 * n}, 10 * n: {2 * n}}
    # A state of fewer items than the rows hold sums only its own items.
    part = ReductionState(range(n), range(m - 1), rows, {a: (1, 1) for a in range(n)}, False)
    assert part.totals == {a: sum(rows[a][:m - 1]) for a in range(n)}


def fill_outcome(fill, state, alpha):
    try:
        return fill(state, alpha)
    except InvariantViolation as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.integers(n, 4 * n).flatmap(
                lambda m: st.lists(st.lists(ENTRY, min_size=m, max_size=m), min_size=n, max_size=n)
            ),
            st.lists(STEP.filter(lambda step: step[0] != "pin"), max_size=4),
            st.booleans(),
        )
    )
)
def test_fill_bags_matches_reference(case):
    # Scaled and shrunk states, with and without renormalization: the same
    # winners, leftovers and trace, or the same exhausted-filler failure.
    rows, steps, renormalize = case
    state = make_state(rows, renormalize=renormalize)
    alphas = [Fraction(3, 4), Fraction(3, 4) + Fraction(1, 12 * len(rows)), Fraction(1)]
    for kind, pick, factor in steps:
        if not state.agents:
            break
        agent = state.agents[pick % len(state.agents)]
        if kind == "scale":
            state.scale_row(agent, factor)
        elif state.items:
            apply_reduction(state, agent, (state.items[0],), "fixed", "top", alpha=Fraction(0))
    for alpha in alphas:
        expected = fill_outcome(fill_bags_reference, state, alpha)
        assert fill_outcome(fill_bags, state, alpha) == expected
