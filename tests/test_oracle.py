"""Exact maximin-share oracle against frozen values and the naive enumerator."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmsalloc.oracle as oracle_mod
from mmsalloc.errors import InputError
from mmsalloc.oracle import exact_mms
from naive_oracle import naive_mms, partition_min


def test_textbook_case():
    res = exact_mms([4, 3, 2, 1], 2)
    assert res.value == 5
    assert res.partition == ((0, 3), (1, 2))


def test_single_bundle_gets_total():
    assert exact_mms([4, 3, 2, 1], 1).value == 10


def test_one_item_per_bundle_gets_min():
    assert exact_mms([9, 7, 4], 3).value == 4


def test_more_bundles_than_positive_items_is_zero():
    res = exact_mms([0, 0, 5], 2)
    assert res.value == 0
    assert len(res.partition) == 2


def test_uniform_items():
    assert exact_mms([1, 1, 1, 1, 1], 2).value == 2


def test_fractions_in_values():
    res = exact_mms([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 2)
    assert res.value == Fraction(1, 2)


def test_greedy_incumbent_is_not_trusted():
    # largest-first greedy splits as {3,2,2}/{3,2}=5; optimum is {3,3}/{2,2,2}=6
    assert exact_mms([3, 3, 2, 2, 2], 2).value == 6


def test_witness_is_canonical_and_achieves_value():
    row = [74, 74, 40, 12, 7, 7]
    res = exact_mms(row, 2)
    assert res.value == 100
    assert res.partition == ((0, 2), (1, 3, 4, 5))
    assert partition_min(row, res.partition) == res.value


def test_witness_partitions_all_items():
    row = [13, 11, 7, 5, 3, 2, 0]
    res = exact_mms(row, 3)
    flat = sorted(p for part in res.partition for p in part)
    assert flat == list(range(len(row)))
    assert partition_min(row, res.partition) == res.value


def test_determinism():
    row = [17, 13, 11, 7, 5, 3, 2, 2, 1]
    a = exact_mms(row, 3)
    b = exact_mms(row, 3)
    assert a == b


def test_input_validation():
    with pytest.raises(InputError, match="bundle count must be >= 1"):
        exact_mms([1, 2], 0)
    with pytest.raises(InputError, match=r"values\[1\] = -1 is negative"):
        exact_mms([1, -1], 2)
    with pytest.raises(InputError, match="25 items exceeds the search cap of 24"):
        exact_mms([1] * 25, 2)
    with pytest.raises(InputError, match="10 items exceeds the search cap of 9"):
        exact_mms([1] * 10, 2, cap=9)


def test_call_counter_increments():
    before = oracle_mod.ORACLE_CALLS
    exact_mms([5, 4], 2)
    exact_mms([5, 4], 1)
    assert oracle_mod.ORACLE_CALLS == before + 2


def test_partition_min_validates_coverage():
    with pytest.raises(InputError, match="item 1 missing or repeated"):
        partition_min([1, 2, 3], ((0, 1), (1, 2)))
    with pytest.raises(InputError, match="partition does not cover every item"):
        partition_min([1, 2, 3], ((0,), (2,)))


def test_empty_items():
    res = exact_mms([], 2)
    assert res.value == 0
    assert res.partition == ((), ())


def test_agreement_with_naive_seeded():
    rng = random.Random(20260819)
    for _ in range(120):
        m = rng.randint(1, 8)
        k = rng.randint(1, 3)
        row = [rng.randint(0, 12) for _ in range(m)]
        assert exact_mms(row, k).value == naive_mms(row, k)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=7),
    st.integers(1, 3),
)
def test_agreement_with_naive_property(row, k):
    res = exact_mms(row, k)
    assert res.value == naive_mms(row, k)
    assert partition_min(row, res.partition) == res.value


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=10),
    st.integers(1, 4),
)
def test_average_always_dominates(row, k):
    assert exact_mms(row, k).value <= Fraction(sum(row), k)
