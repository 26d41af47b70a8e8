"""Bag layout, agent profiles, and the filling round."""

from fractions import Fraction

import pytest
from naive_oracle import state_key

from mmsalloc.bags import (
    agents_needing_rescale,
    fill_bags,
    init_bags,
    profile_agent,
)
from mmsalloc.errors import InvariantViolation
from mmsalloc.model import make_instance, normalize_average, order_instance
from mmsalloc.reduction import ReductionState


def make_state(rows, renormalize=True):
    inst = make_instance(rows)
    view = order_instance(inst)
    norm = normalize_average(view.ordered)
    return ReductionState.from_instance(
        norm, agent_ids=list(range(inst.n)), renormalize=renormalize
    )


def test_init_bags_pairs_ends():
    assert init_bags(3) == ((1, 6), (2, 5), (3, 4))
    assert init_bags(1) == ((1, 2),)
    assert init_bags(0) == ()


def test_init_bags_truncates_to_item_count():
    assert init_bags(3, item_count=4) == ((1,), (2,), (3, 4))
    assert init_bags(2, item_count=2) == ((1,), (2,))
    assert init_bags(2, item_count=0) == ((), ())


def test_profile_classify_example():
    # 6 big items and 28 single-percent fillers; row already sums to 3.00
    row = [73, 68, 37, 36, 30, 28] + [1] * 28
    st = make_state([row, row, row])
    p = profile_agent(st, 0)
    assert p.low_bags == 1          # bag {37, 36} = 0.73
    assert p.high_bags == 1         # bag {73, 28} = 1.01
    assert p.deficit == Fraction(1, 50)
    assert p.filler_value == Fraction(7, 25)
    assert p.has_high_bag is True
    # enough filler mass: 0.28 >= 0.02 + 1/8
    assert p.needs_rescale is False


def test_profile_needs_rescale():
    row = [740, 740, 375, 373, 370, 370, 8, 8, 8, 8]
    st = make_state([row, row, row])
    p = profile_agent(st, 0)
    assert (p.low_bags, p.high_bags) == (1, 2)
    assert p.deficit == Fraction(1, 500)
    assert p.filler_value == Fraction(4, 125)
    assert p.needs_rescale is True
    assert agents_needing_rescale(st) == (0, 1, 2)


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
    st = make_state([[1, 1], [1, 1]], renormalize=False)
    st.vals = {
        a: {j: Fraction(1, 100) for j in st.items} for a in st.agents
    }
    with pytest.raises(InvariantViolation, match="no filler left and no agent accepts"):
        fill_bags(st, Fraction(3, 4))


def test_fill_bags_is_read_only():
    st = make_state([[4, 4, 1, 1, 1, 1], [4, 4, 1, 1, 1, 1]])
    before = state_key(st)
    fill_bags(st, Fraction(3, 4))
    assert state_key(st) == before
