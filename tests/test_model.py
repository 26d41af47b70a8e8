"""Core model: rationals, instances, ordering, lifting; the solvers' normalizers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audits import check_valid_reduction
from naive_oracle import (
    fraction_rows,
    normalize_average_reference,
    order_instance_reference,
    scale_agent,
)

from mmsalloc.errors import InputError
from mmsalloc.model import (
    Allocation,
    as_rational,
    cleared_row,
    lift_allocation,
    make_instance,
    order_instance,
)
from mmsalloc.oracle import exact_mms
from mmsalloc.solver import (
    MODE_BASE,
    MODE_PLUS,
    normalize_average,
    normalize_mms,
    solve_existence,
    solve_poly34,
)
from mmsalloc.verify import check_alpha_mms


def test_as_rational_accepts_exact_forms():
    assert as_rational(7) == Fraction(7)
    assert as_rational("3/7") == Fraction(3, 7)
    assert as_rational("0.25") == Fraction(1, 4)
    assert as_rational(Fraction(2, 3)) == Fraction(2, 3)
    assert as_rational("2.5e3") == 2500
    assert as_rational("1e-3") == Fraction(1, 1000)


@pytest.mark.parametrize(
    "bad", [0.25, 1.0, True, False, None, [1], "1/0", "abc", "1e5000", "1e-5000"]
)
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


# Each bad entry sits at values[1] of a row, or values[0][1] of a matrix.
BAD_ENTRIES = [
    (True, "boolean is not a valuation: True"),
    (False, "boolean is not a valuation: False"),
    (0.5, "float 0.5 rejected: pass an int or an exact string like '1/3' or '0.25'"),
    ("abc", "cannot parse rational from 'abc'"),
    (-2, "values[0][1] = -2 is negative"),
    ("-1/2", "values[0][1] = -1/2 is negative"),
]


@pytest.mark.parametrize("bad,message", BAD_ENTRIES)
@pytest.mark.parametrize("entry_point", ["make_instance", "exact_mms"])
def test_validation_through_the_int_shortcut(entry_point, bad, message):
    # bool is an int subclass, so the int shortcut must not wave it through;
    # both entry points clear rows with cleared_row and keep their messages.
    if entry_point == "exact_mms":
        message = message.replace("values[0][1]", "values[1]")
        call = lambda: exact_mms([1, bad, 2], 2)
    else:
        call = lambda: make_instance([[1, bad], [3, 4]])
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_int_rows_keep_their_messages():
    # An all-int row with one bad entry leaves the one-step path for the
    # loop: a negative int is reported at its own index, and bools (an int
    # subclass) are refused.
    with pytest.raises(InputError, match=r"^values\[3\] = -7 is negative$"):
        cleared_row([3, 0, 5, -7], "values")
    with pytest.raises(InputError, match=r"^values\[1\]\[0\] = -1 is negative$"):
        make_instance([[1, 2], [-1, 4]])
    with pytest.raises(InputError, match="^boolean is not a valuation: False$"):
        exact_mms([False, True], 1)


@pytest.mark.parametrize(
    "row", [[5, 0, 7], [], [2**70, 0, 1], [Fraction(1, 2), "2/3", 0], [4, "3", 2], [1, 2, -3]]
)
def test_cleared_row_reads_an_iterator_once(row):
    # An iterator clears exactly like the same list: no path reads it twice.
    def outcome(values):
        try:
            return cleared_row(values, "values")
        except InputError as exc:
            return str(exc)

    assert outcome(iter(row)) == outcome(row)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**70), max_size=12))
def test_int_row_clears_like_the_general_path(row):
    # A Fraction entry sends the row through the per-entry loop.
    assert cleared_row(row, "values") == (tuple(row), 1)
    assert cleared_row(row + [Fraction(0)], "values") == (tuple(row) + (0,), 1)


def test_all_int_instance_builds_no_fraction_matrix():
    # Solving and certifying an all-int instance reads only the cleared rows:
    # the Fraction matrix behind Instance.values is never built.
    inst = make_instance([[4, 3, 2, 1, 1], [1, 2, 3, 4, 0], [2, 2, 2, 2, 2]])
    alloc, _ = solve_poly34(inst)
    for mode in (MODE_BASE, MODE_PLUS):
        solve_existence(inst, mode)
    check_alpha_mms(inst, alloc, Fraction(3, 4))
    check_valid_reduction(inst, 0, (0,), Fraction(3, 4))
    assert "values" not in vars(inst)
    assert all(type(v) is int for row in inst.rows for v in row)
    assert inst.denominators == (1, 1, 1)


def test_make_instance_accepts_zero_items():
    inst = make_instance([[], []])
    assert inst.n == 2 and inst.m == 0


def test_instance_accessors():
    inst = make_instance([[4, 3, 2, 1], [1, 1, 1, 1]])
    assert inst.values[0][0] == 4
    assert inst.bundle_value(0, (0, 3)) == 5


def sorted_row(inst, view, i):
    """Agent i's values in sorted order, read from the view's cleared ints."""
    return tuple(Fraction(v, inst.denominators[i]) for v in view.int_rows[i])


def test_order_instance_sorts_and_ranks():
    inst = make_instance([[5, 1, 3, 3]])
    view = order_instance(inst)
    assert sorted_row(inst, view, 0) == (5, 3, 3, 1)
    # ties broken by ascending original id
    assert view.ranking[0] == (0, 2, 3, 1)


# Small values that tie often, and values past 2**30 and 2**64, where CPython
# leaves its one-digit int compare, cleared over denominators up to 12.
SORT_VALUES = [0, 1, 1, 2, "1/2", "2/4", 2**30, 2**30 + 1, 2**64, f"{2**64 + 1}/3", f"{2**70}/4"]


def tied_rows(seed, m, values, n=3):
    rng = random.Random(seed)
    return [[rng.choice(values) for _ in range(m)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(0, 6), st.integers(65, 300)).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from(SORT_VALUES), min_size=m, max_size=m),
        min_size=1,
        max_size=4 if m < 64 else 2,
    )
))
@example([[]])
@example([[7], [0]])
@example([[2, 2], [1, 3], [0, 0]])
@example(tied_rows(0, 65, SORT_VALUES))
@example(tied_rows(1, 300, SORT_VALUES))
@example(tied_rows(2, 300, [0, 1, 2]))
def test_order_instance_matches_keyed_sort_reference(rows):
    # Tie-heavy rows of every width from 0 up: both the rankings and the
    # sorted int rows are those of a keyed sort on the Fraction values.
    # Rows past 64 entries run timsort's merges, not only binary insertion.
    inst = make_instance(rows)
    assert order_instance(inst) == order_instance_reference(inst)


def test_order_instance_rows_independent():
    inst = make_instance([[1, 2, 3], [3, 2, 1]])
    view = order_instance(inst)
    assert sorted_row(inst, view, 0) == (3, 2, 1)
    assert sorted_row(inst, view, 1) == (3, 2, 1)
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
        assert sorted(sorted_row(inst, view, i)) == sorted(fraction_rows(inst)[i])
        # ranking is a permutation of the items
        assert sorted(view.ranking[i]) == list(range(inst.m))


# Rational entries with mixed denominators, zeros, and equal values written
# differently ("1/2", "2/4", "0.5"), so ties between items are common.
RATIONAL_ENTRY = st.one_of(
    st.sampled_from(["0", "0/3", "1/2", "2/4", "0.5", "3/6", "1", "2/2", "4/3", "8/6"]),
    st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 7, 9])),
)


# Rows of rational entries next to all-integer rows (d = 1), at every width
# from the empty row up.
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda m: st.lists(
        st.one_of(
            st.lists(RATIONAL_ENTRY, min_size=m, max_size=m),
            st.lists(st.integers(0, 12), min_size=m, max_size=m),
        ),
        min_size=1,
        max_size=4,
    )
))
def test_integer_kernel_matches_fraction_reference_on_rational_rows(rows):
    inst = make_instance(rows)
    view = order_instance(inst)
    for i, raw in enumerate(rows):
        row = [as_rational(x) for x in raw]
        ints, d = inst.rows[i], inst.denominators[i]
        assert all(type(v) is int for v in ints)
        assert [Fraction(v, d) for v in ints] == row
        assert inst.values[i] == tuple(row)
        assert d == math.lcm(*(v.denominator for v in row))
        if d == 1:
            assert list(ints) == [v.numerator for v in row]
        reference = sorted(range(inst.m), key=lambda j: (-row[j], j))
        assert list(view.ranking[i]) == reference
        assert sorted_row(inst, view, i) == tuple(row[j] for j in reference)
        assert view.int_rows[i] == tuple(ints[j] for j in reference)
    # Each scale times its sorted int row is the reference's normalized row,
    # entry by entry, whether the reference normalizes sorted or original
    # rows; zero rows leave before normalization, as in the solver.
    active = [i for i, row in enumerate(inst.rows) if any(row)]
    scales = normalize_average(view, active)
    sorted_rows = [[row[j] for j in view.ranking[i]] for i, row in enumerate(fraction_rows(inst))]
    sorted_ref = normalize_average_reference(make_instance(sorted_rows), active)
    original_ref = normalize_average_reference(inst, active)
    for i in active:
        scaled = [Fraction(*scales[i]) * v for v in view.int_rows[i]]
        assert scaled == sorted_ref[i]
        assert scaled == [original_ref[i][j] for j in view.ranking[i]]


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
        positional = inst.bundle_value(i, [view.ranking[i][p] for p in alloc.bundles[i]])
        assert got >= positional


def test_lift_requires_partition():
    # (rows, allocation, error): every malformed allocation is an InputError.
    one, two = [[3, 2]], [[3, 2, 1], [1, 2, 3]]
    table = [
        (two, Allocation(bundles=((0,), (1,))), "some positions were never assigned"),
        (two, Allocation(bundles=((0, 1), (1, 2))), "position 1 is missing or assigned twice"),
        (one, Allocation(bundles=((0,), (1,))), "2 bundles for 1 agents"),
        (two, Allocation(bundles=((0, 1, 2),)), "1 bundles for 2 agents"),
        (one, Allocation(bundles=((0, 1),), leftovers=(5,), leftover_agent=0), r"leftovers \(5,\)"),
        (one, Allocation(bundles=((0, 1),), leftovers=(-1,), leftover_agent=0), r"leftovers \(-1,\)"),
        (one, Allocation(bundles=((0, 1),), leftovers=(1,)), r"leftovers \(1,\)"),
        (two, Allocation(bundles=((0,), (1, 2)), leftovers=(1,), leftover_agent=0), r"leftovers \(1,\)"),
    ]
    for rows, alloc, error in table:
        inst = make_instance(rows)
        with pytest.raises(InputError, match=error):
            lift_allocation(inst, order_instance(inst), alloc)


def test_lift_identity_when_rows_agree():
    inst = make_instance([[9, 5, 1], [9, 5, 1]])
    view = order_instance(inst)
    alloc = Allocation(bundles=((0, 2), (1,)))
    lifted = lift_allocation(inst, view, alloc)
    assert lifted.bundles == ((0, 2), (1,))


def scaled_rows(view, scales):
    # Each scale is an int pair (num, den).
    return {a: [Fraction(*scale) * v for v in view.int_rows[a]] for a, scale in scales.items()}


def test_normalize_average_row_sums():
    view = order_instance(make_instance([[4, 3, 2, 1], ["1/2", "1/3", "1/6", 1]]))
    rows = scaled_rows(view, normalize_average(view, [0, 1]))
    assert all(sum(rows[a]) == 2 for a in (0, 1))
    # the agent count is that of the agents asked for, not of the instance
    assert sum(scaled_rows(view, normalize_average(view, [1]))[1]) == 1


@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=8),
    st.integers(1, 9),
    st.integers(1, 9),
)
def test_normalize_average_scale_invariant(row, p, q):
    # scaling one agent's row first changes nothing after normalization
    inst = make_instance([row, row])
    if not any(inst.rows[0]):
        return
    view = order_instance(inst)
    scaled_view = order_instance(scale_agent(inst, 0, Fraction(p, q)))
    assert scaled_rows(scaled_view, normalize_average(scaled_view, [0, 1])) == scaled_rows(
        view, normalize_average(view, [0, 1])
    )


def test_normalize_mms_identity_and_division():
    view = order_instance(make_instance([[4, 3, 2, 1]]))
    assert scaled_rows(view, normalize_mms({0: 1})) == {0: [4, 3, 2, 1]}
    rows = scaled_rows(view, normalize_mms({0: 10}))
    assert rows[0] == [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)]


def test_normalize_mms_divides_cleared_rows():
    # Shares come in the cleared row's units: agent 0's row clears to (3, 2)
    # over 6, so her share 1/3 arrives as 2.
    inst = make_instance([["1/2", "1/3"], [4, 3]])
    view = order_instance(inst)
    assert inst.rows[0] == (3, 2) and inst.denominators[0] == 6
    scales = normalize_mms({0: 2, 1: 7})
    assert {a: Fraction(*pair) for a, pair in scales.items()} == {0: Fraction(1, 2), 1: Fraction(1, 7)}
    rows = scaled_rows(view, scales)
    assert rows == {0: [Fraction(3, 2), 1], 1: [Fraction(4, 7), Fraction(3, 7)]}


def test_normalize_mms_two_agents_row_sum():
    view = order_instance(make_instance([[4, 3, 2, 1], [4, 3, 2, 1]]))
    rows = scaled_rows(view, normalize_mms({0: 5, 1: 5}))
    assert sum(rows[0]) == 2
    assert sum(rows[1]) == 2
