"""Certification checks: guarantee ratios, reduction audits, structure."""

from fractions import Fraction

import pytest

from mmsalloc.errors import InputError
from mmsalloc.model import Allocation, make_instance, order_instance
from mmsalloc.reduction import ReductionState
from mmsalloc.solver import normalize_average, solve_poly34
from mmsalloc.verify import (
    check_alpha_mms,
    check_valid_reduction,
    corollary_violations,
)


def make_state(rows):
    view = order_instance(make_instance(rows))
    ids = list(range(len(rows)))
    return ReductionState.from_instance(view, ids, normalize_average(view, ids), True)


def test_check_alpha_mms_single_agent():
    inst = make_instance([[5, 3, 1]])
    alloc = Allocation(bundles=((0, 1, 2),))
    report = check_alpha_mms(inst, alloc, Fraction(1))
    assert report.overall is True
    assert report.per_agent[0].ratio == 1
    assert report.per_agent[0].mms == 9


def test_check_alpha_mms_identical_pair():
    inst = make_instance([[4, 3, 2, 1]] * 2)
    alloc = Allocation(bundles=((0, 3), (1, 2)))
    report = check_alpha_mms(inst, alloc, Fraction(3, 4))
    assert report.overall is True
    assert [row.mms for row in report.per_agent] == [5, 5]
    assert [row.ratio for row in report.per_agent] == [1, 1]


def test_check_alpha_mms_flags_starved_agent():
    inst = make_instance([[4, 3, 2, 1]] * 2)
    alloc = Allocation(bundles=((), (0, 1, 2, 3)))
    report = check_alpha_mms(inst, alloc, Fraction(3, 4))
    assert report.overall is False
    assert report.per_agent[0].ok is False
    assert report.per_agent[0].ratio == 0
    assert report.per_agent[1].ok is True


def test_check_alpha_mms_zero_share_auto_passes():
    inst = make_instance([[0, 0], [5, 5]])
    alloc = Allocation(bundles=((0,), (1,)))
    report = check_alpha_mms(inst, alloc, Fraction(3, 4))
    assert report.overall is True
    assert report.per_agent[0].ratio is None
    assert report.per_agent[0].ok is True
    row = report.per_agent[0].to_json()
    assert row["ratio"] is None and row["pass"] is True


@pytest.mark.parametrize(
    "bundles",
    [
        ((0, 1, 2, 3),),                 # wrong bundle count
        ((0,), (1, 2)),                  # item 3 missing
        ((0, 1), (1, 2, 3)),             # item 1 duplicated
    ],
)
def test_check_alpha_mms_rejects_non_partitions(bundles):
    inst = make_instance([[4, 3, 2, 1]] * 2)
    with pytest.raises(InputError, match="bundles for 2 agents|do not partition"):
        check_alpha_mms(inst, Allocation(bundles=bundles), Fraction(3, 4))


def test_valid_reduction_top_item():
    inst = make_instance([[4, 3, 2, 1]] * 2)
    assert check_valid_reduction(inst, 0, (0,), Fraction(3, 4)) is True


def test_valid_reduction_empty_bundle_at_alpha_zero():
    inst = make_instance([[4, 3, 2, 1]] * 2)
    assert check_valid_reduction(inst, 0, (), Fraction(0)) is True


def test_valid_reduction_rejects_share_collapse():
    # taking both large items leaves the survivors splitting a single
    # valuable item two ways, so their reduced-count share drops to zero
    inst = make_instance([[4, 4, 4, 0, 0]] * 3)
    assert check_valid_reduction(inst, 0, (0, 1), Fraction(3, 4)) is False


def test_valid_reduction_rejects_underpaid_receiver():
    inst = make_instance([[4, 3, 2, 1]] * 2)
    assert check_valid_reduction(inst, 0, (3,), Fraction(3, 4)) is False


def test_valid_reduction_input_errors():
    single = make_instance([[1, 2]])
    with pytest.raises(InputError):
        check_valid_reduction(single, 0, (), Fraction(3, 4))
    pair = make_instance([[4, 3], [2, 1]])
    with pytest.raises(InputError):
        check_valid_reduction(pair, 5, (), Fraction(3, 4))
    with pytest.raises(InputError):
        check_valid_reduction(pair, 0, (9,), Fraction(3, 4))
    # a repeated item must not count twice toward the receiver's bundle
    skewed = make_instance([[4, 1, 1, 1, 1], [1] * 5])
    assert check_valid_reduction(skewed, 0, (1,), Fraction(3, 4)) is False
    with pytest.raises(InputError, match="bundle repeats an item"):
        check_valid_reduction(skewed, 0, (1,) * 12, Fraction(3, 4))


def test_corollary_bounds_single_family_violation():
    # only the tail triple reaches 3/4 here; it sits exactly on the bound,
    # and the bound is strict
    st = make_state([[70, 40, 40, 40, 10]])
    viol = corollary_violations(st)
    assert viol == [{"agent": 0, "family": "tail_triple", "value": "3/4"}]


def test_corollary_bounds_hold_after_fixed_phase():
    snaps = []

    def observer(name, record):
        if name == "fixed_phase_done":
            snaps.append(record["state"])

    inst = make_instance(
        [
            [700, 500, 400, 340, 250, 250, 150, 150, 100, 80, 50, 20, 10],
            [740, 740, 375, 374, 372, 372, 5, 5, 5, 5, 5, 1, 1],
            [1] * 13,
        ]
    )
    solve_poly34(inst, observer=observer)
    assert snaps
    for st in snaps:
        assert corollary_violations(st) == []


def test_report_json_shape():
    inst = make_instance([[4, 3, 2, 1]] * 2)
    alloc = Allocation(bundles=((0, 3), (1, 2)))
    doc = check_alpha_mms(inst, alloc, Fraction(3, 4)).to_json()
    assert doc["alpha"] == "3/4"
    assert doc["overall"] is True
    assert doc["per_agent"][0] == {
        "agent": 0,
        "bundle_value": "5",
        "mms": "5",
        "ratio": "1",
        "pass": True,
    }
