"""Exact maximin-share oracle against frozen values and the naive enumerator."""

import builtins
import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsalloc.errors import InputError
from mmsalloc import oracle
from mmsalloc.oracle import exact_mms
from naive_oracle import naive_mms, partition_min, reference_mms


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


# One draw per row kind: small ints with zeros, heavy ties, rationals over
# mixed denominators, large ints, mostly zeros, and ints past 2^64.
GRID_KINDS = (
    lambda rng: rng.randint(0, 9),
    lambda rng: rng.choice((0, 1, 1, 2, 3, 3, 3)),
    lambda rng: Fraction(rng.randint(0, 30), rng.choice((1, 2, 3, 4, 6, 9))),
    lambda rng: rng.randint(0, 10**6),
    lambda rng: rng.choice((0, 0, 0, rng.randint(1, 20))),
    lambda rng: rng.randint(2**64, 2**64 + 2**20),
)
GRID_DIGEST = "00eeff013535a2f669f76bb90113b6e2a87f7a8d6ac7f9a0eba8fa4bbc845c3e"


def test_grid_digest():
    # 396 seeded rows, m 0-10 and every k in 1..m+1: forced-zero shares,
    # greedy leaves at the average, and leaves the search improves on.
    # The sha256 of every (value, partition) pins the witnesses, not only
    # the shares.
    rng = random.Random(25)
    digest = hashlib.sha256()
    for m in range(11):
        for k in range(1, m + 2):
            for draw in GRID_KINDS:
                res = exact_mms([draw(rng) for _ in range(m)], k)
                digest.update(f"{res.value} {res.partition}\n".encode())
    assert digest.hexdigest() == GRID_DIGEST


# Rows drawn like perfbench's certify_small pool: uniform:1:100, and one
# agent's row of correlated:20:100:10 (a base in [20, 100] plus noise).
CERTIFY_KINDS = (
    lambda rng: rng.randint(1, 100),
    lambda rng: max(0, rng.randint(20, 100) + rng.randint(-10, 10)),
)
CERTIFY_DIGEST = "b52a524205c4bde5989ac34e8837be91ae3ff39f38890339338798f898c3208b"


def test_certify_size_digest():
    # 144 seeded rows at the sizes certification reaches, m 11-14 and k 2-4:
    # deeper trees than the grid's, where most nodes sit near the leaves.
    rng = random.Random(26)
    digest = hashlib.sha256()
    for m in range(11, 15):
        for k in range(2, 5):
            for draw in CERTIFY_KINDS:
                for _ in range(6):
                    res = exact_mms([draw(rng) for _ in range(m)], k)
                    digest.update(f"{res.value} {res.partition}\n".encode())
    assert digest.hexdigest() == CERTIFY_DIGEST


TAIL_DIGEST = "eb97fa427aef8cf6be106a68dd547dfd4b2cd3a7f0c60a4578d7d6b46bae06a6"


def test_tail_size_digest():
    # 24 seeded rows past the certification sizes, m 15-16 and k 5-6: the
    # deepest witnesses pinned, where a search change would first move one.
    rng = random.Random(27)
    digest = hashlib.sha256()
    for m in range(15, 17):
        for k in range(5, 7):
            for draw in CERTIFY_KINDS:
                for _ in range(3):
                    res = exact_mms([draw(rng) for _ in range(m)], k)
                    digest.update(f"{res.value} {res.partition}\n".encode())
    assert digest.hexdigest() == TAIL_DIGEST


# Two-bundle rows: values in [0, 100], and values in [0, 2^13], whose
# totals fall on both sides of the two-bundle walk's size cut of 2^16.
TWO_BUNDLE_KINDS = (
    lambda rng: rng.randint(0, 100),
    lambda rng: rng.randint(0, 2**13),
)
TWO_BUNDLE_DIGEST = "d328023d6c09a054d212ce42129db0b44f38d0979bab3f51df6c4d3061b7872c"


def test_two_bundle_digest():
    # 60 seeded k = 2 rows at m 15-24, up to the cap `mmsalloc mms --k 2`
    # accepts: 38 totals at or below the cut, where the subset-sum walk
    # answers, and 22 above it, where the search does.
    rng = random.Random(28)
    digest = hashlib.sha256()
    for m in range(15, 25):
        for draw in TWO_BUNDLE_KINDS:
            for _ in range(3):
                res = exact_mms([draw(rng) for _ in range(m)], 2)
                digest.update(f"{res.value} {res.partition}\n".encode())
    assert digest.hexdigest() == TWO_BUNDLE_DIGEST


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 20),
            st.fractions(min_value=0, max_value=20, max_denominator=6),
        ),
        max_size=12,
    ),
    st.integers(1, 6),
)
@example([0, 7, 0], 1)  # one positive item: the root is the only leaf
@example([0, 3, 0, 2], 3)  # k above the positive count: forced zero
@example([5, 5, 0, 5, 5, 0], 2)  # ties and zeros
@example([30000, 20000, 10000, 5536], 2)  # total at the walk's cut: the walk
@example([30000, 20000, 10000, 5537], 2)  # one past it: the search
@example([Fraction(32765, 2), Fraction(1, 2), 8192, 8193], 2)  # cleared total 65536
@example([10, 6, 5, 4], 3)  # k + 1 items: the singleton bound 6 is the share
@example([0, 10, 0, 6, 5, 4, 0], 3)  # zeros, with fewer than 2k positive items
@example([3, 0, 5, 2], 1)  # one bundle takes everything
def test_search_matches_reference(row, k):
    # The same value and the same witness as the search before its leaves
    # were folded into their parents, before it stopped at the least of its
    # ceilings, and before two bundles were walked by subset sums.
    assert exact_mms(row, k) == reference_mms(row, k)


def test_search_node_count(monkeypatch):
    # A cost guard that does not depend on host speed: every search node
    # sorts its loads once, so the sorts made inside `search` count the
    # nodes, and the two-bundle walk tests one subset-sum window per child
    # it tries.  A looser bound or ceiling, or lost symmetry pruning, visits
    # more of them on these 108 seeded rows (m 6-14, k 2-4).
    calls = Counter()

    def counting_sorted(*args, **kwargs):
        calls[sys._getframe(1).f_code.co_name] += 1
        return builtins.sorted(*args, **kwargs)

    def counting_holds(*args):
        calls["walk"] += 1
        return holds(*args)

    holds = oracle._holds
    monkeypatch.setattr(oracle, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(oracle, "_holds", counting_holds)
    rng = random.Random(2026)
    for m in range(6, 15):
        for k in range(2, 5):
            for draw in CERTIFY_KINDS:
                for _ in range(2):
                    exact_mms([draw(rng) for _ in range(m)], k)
    # 68,289 in all; with the average as its only ceiling and no walk, the
    # search visits 69,884.
    assert (calls["search"], calls["walk"]) == (67886, 403)
