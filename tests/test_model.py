"""Core model: rationals, instances, ordering, lifting, normalization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_oracle import scale_agent

from mmsalloc.errors import InputError
from mmsalloc.model import (
    Allocation,
    as_rational,
    lift_allocation,
    make_instance,
    normalize_average,
    normalize_mms,
    order_instance,
)


def test_as_rational_accepts_exact_forms():
    assert as_rational(7) == Fraction(7)
    assert as_rational("3/7") == Fraction(3, 7)
    assert as_rational("0.25") == Fraction(1, 4)
    assert as_rational(Fraction(2, 3)) == Fraction(2, 3)


@pytest.mark.parametrize("bad", [0.25, 1.0, True, False, None, [1], "1/0", "abc"])
def test_as_rational_rejects_inexact_and_junk(bad):
    with pytest.raises(InputError):
        as_rational(bad)


def test_make_instance_validation():
    with pytest.raises(InputError, match="an instance needs at least one agent"):
        make_instance([])
    with pytest.raises(InputError, match="row 1 has 1 entries, expected 2"):
        make_instance([[1, 2], [1]])
    with pytest.raises(InputError, match=r"values\[0\]\[1\] = -2 is negative"):
        make_instance([[1, -2]])


def test_make_instance_accepts_zero_items():
    inst = make_instance([[], []])
    assert inst.n == 2 and inst.m == 0


def test_instance_accessors():
    inst = make_instance([[4, 3, 2, 1], [1, 1, 1, 1]])
    assert inst.value(0, 0) == 4
    assert inst.bundle_value(0, (0, 3)) == 5
    assert inst.total(1) == 4


def test_order_instance_sorts_and_ranks():
    inst = make_instance([[5, 1, 3, 3]])
    view = order_instance(inst)
    assert view.ordered.values[0] == (5, 3, 3, 1)
    # ties broken by ascending original id
    assert view.ranking[0] == (0, 2, 3, 1)


def test_order_instance_rows_independent():
    inst = make_instance([[1, 2, 3], [3, 2, 1]])
    view = order_instance(inst)
    assert view.ordered.values[0] == (3, 2, 1)
    assert view.ordered.values[1] == (3, 2, 1)
    assert view.ranking[0] == (2, 1, 0)
    assert view.ranking[1] == (0, 1, 2)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_order_preserves_value_multisets(rows):
    inst = make_instance(rows)
    view = order_instance(inst)
    for i in range(inst.n):
        assert sorted(view.ordered.values[i]) == sorted(inst.values[i])
        # ranking is a permutation of the items
        assert sorted(view.ranking[i]) == list(range(inst.m))


def _random_partition(rng, n, m):
    bundles = [[] for _ in range(n)]
    for j in range(m):
        bundles[rng.randrange(n)].append(j)
    return Allocation(bundles=tuple(tuple(b) for b in bundles))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lift_never_loses_value(data):
    # each agent's lifted bundle is worth at least the positional bundle
    import random

    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 10))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 30), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    seed = data.draw(st.integers(0, 10**6))
    inst = make_instance(rows)
    view = order_instance(inst)
    alloc = _random_partition(random.Random(seed), n, m)
    lifted = lift_allocation(inst, view, alloc)
    for i in range(n):
        got = inst.bundle_value(i, lifted.bundles[i])
        positional = view.ordered.bundle_value(i, alloc.bundles[i])
        assert got >= positional


def test_lift_requires_partition():
    inst = make_instance([[3, 2, 1], [1, 2, 3]])
    view = order_instance(inst)
    with pytest.raises(InputError, match="some positions were never assigned"):
        lift_allocation(inst, view, Allocation(bundles=((0,), (1,))))
    with pytest.raises(InputError, match="position 1 is missing or assigned twice"):
        lift_allocation(inst, view, Allocation(bundles=((0, 1), (1, 2))))


def test_lift_identity_when_rows_agree():
    inst = make_instance([[9, 5, 1], [9, 5, 1]])
    view = order_instance(inst)
    alloc = Allocation(bundles=((0, 2), (1,)))
    lifted = lift_allocation(inst, view, alloc)
    assert lifted.bundles == ((0, 2), (1,))


def test_normalize_average_row_sums():
    inst = make_instance([[4, 3, 2, 1], [1, 1, 1, 1]])
    norm = normalize_average(inst)
    for i in range(norm.n):
        assert norm.total(i) == norm.n


def test_normalize_average_keeps_zero_rows():
    inst = make_instance([[0, 0], [3, 1]])
    norm = normalize_average(inst)
    assert norm.values[0] == (0, 0)
    assert norm.total(1) == 2


@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=8),
    st.integers(1, 9),
    st.integers(1, 9),
)
def test_normalize_average_scale_invariant(row, p, q):
    # scaling one agent's row first changes nothing after normalization
    inst = make_instance([row, row])
    if inst.total(0) == 0:
        return
    scaled = scale_agent(inst, 0, Fraction(p, q))
    assert normalize_average(scaled) == normalize_average(inst)


def test_normalize_mms_identity_and_division():
    inst = make_instance([[4, 3, 2, 1]])
    assert normalize_mms(inst, [Fraction(1)]) == inst
    normed = normalize_mms(inst, [Fraction(10)])
    assert normed.values[0] == (
        Fraction(2, 5),
        Fraction(3, 10),
        Fraction(1, 5),
        Fraction(1, 10),
    )


def test_normalize_mms_two_agents_row_sum():
    inst = make_instance([[4, 3, 2, 1], [4, 3, 2, 1]])
    normed = normalize_mms(inst, [Fraction(5), Fraction(5)])
    assert normed.total(0) == 2
    assert normed.total(1) == 2


def test_normalize_mms_rejects_zero_share():
    inst = make_instance([[1, 1]])
    with pytest.raises(InputError, match="agent 0 share 0 is not positive"):
        normalize_mms(inst, [Fraction(0)])
