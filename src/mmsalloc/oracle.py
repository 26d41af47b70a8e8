"""Exact maximin-share computation via branch and bound.

The maximin share of a value vector over k bundles is the best worst-bundle
sum achievable by any k-way partition.  The search assigns items in
descending value order and prunes with three devices that never cut off an
optimal branch:

* an incumbent, updated at every better leaf.  The search tries the
  lightest bundle first, so its first leaf is the largest-first greedy
  assignment, and that is the first incumbent;
* a water-filling completion bound: even if the remaining total could be
  split fractionally, the lightest bundles cannot all be raised above the
  fill level, so a branch whose level cannot beat the incumbent is dead;
* load symmetry: bundles with equal current sums are interchangeable, so
  an item is only ever tried in one of them (this also means an item opens
  at most one empty bundle).

Items are ranked once by a reversed stable sort, so equal values keep
ascending id order, and the zeros form the tail of that ranking.  Each
node sorts its bundles by load once, stably, so equal loads keep index
order.  The bound pours the remaining total along that order, and the
children follow it, skipping a bundle whose load equals the previous
child's.  The last item goes only on the lightest bundle: on any other
the lightest load stays the minimum, and the lightest bundle's own leaf
is worth at least that, so no other last child can become the incumbent.
Each leaf runs inside its parent's child loop as one plain sort of the
loads and no bound test, since a leaf whose minimum beats the incumbent
always passes the water fill.  With the sorted loads ``low``, the leaf is
worth ``min(low[0] + last item, low[1])``; only a leaf that beats the
incumbent looks up the lightest bundle's index and copies the assignment.

The search stops at the first leaf that reaches a ceiling no partition can
exceed, the least of three upper bounds on the share, each in whole units:

* the average, the total over k;
* the top-t bound: the k - t bundles that hold none of the t largest items
  share the rest, so the share is at most that rest over k - t, t < k;
* the singleton bound: with c < 2k positive items, at least 2k - c bundles
  hold one positive item each, so the share is at most the (2k - c)-th
  largest item.

Stopping keeps the witness.  The incumbent changes only on a strict gain
and no prune cuts off a leaf that beats it, so the exhaustive search keeps
the first leaf, in its visit order, that attains the share, and a leaf at a
ceiling attains it.

Two bundles with a cleared total up to 2**16 skip the search.  One int
bitset per suffix of the ranking holds that suffix's subset sums; a subset
and its complement split the total, so the share is the largest sum up to
half of it.  A walk then places the items in order, trying the children in
the search's own order (the lighter bundle first, bundle 0 on a tie), and
keeps the first whose remaining items still hold a subset sum in the window
that lifts both bundles to the share.  A child passes exactly when its
subtree holds a leaf at the share: swapping two equal bundles, or moving
the last item onto the lighter one, never lowers the minimum, so the
search's skips drop no completion that only they reach.  The walk thus
ends, without backtracking, on the search's first leaf at the share: the
same witness.  One bundle takes everything and needs neither.

Everything runs on integers internally: ``model.cleared_row`` validates the
row and scales it by its common denominator, and the maximin share scales
along with the values, so the result is exact.  An int row such as
``Instance.rows[i]`` is searched as it is, and its share is in its units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import floordiv
from typing import Sequence

from .errors import InputError
from .model import cleared_row

ORACLE_CAP = 24
# Two bundles are split by subset-sum bitsets up to this cleared total.
_WALK_TOTAL = 1 << 16


@dataclass(frozen=True)
class MmsResult:
    """Share value plus one partition that attains it (a witness)."""

    value: Fraction
    partition: tuple[tuple[int, ...], ...]


def exact_mms(values: Sequence, k: int) -> MmsResult:
    """Exact maximin share of `values` over k bundles, with a witness.

    Refuses rows of more than ORACLE_CAP items (InputError): the search is
    exponential in the worst case and the cap keeps misuse loud.  Zero-value
    items are placed without branching; only positive items are searched.

    >>> exact_mms([4, 3, 2, 1], 2).value
    Fraction(5, 1)
    """
    if k < 1:
        raise InputError(f"bundle count must be >= 1, got {k}")
    weights, denom = cleared_row(values, "values")
    m = len(weights)
    if m > ORACLE_CAP:
        raise InputError(f"{m} items exceeds the search cap of {ORACLE_CAP}")

    value_of = list(weights).__getitem__
    order = sorted(range(m), key=value_of, reverse=True)
    cut = m - weights.count(0)
    positive, zeros = order[:cut], order[cut:]

    bundles: list[list[int]] = [[] for _ in range(k)]

    if cut < k:
        # Some bundle is forced empty, the share is zero.  Witness: one
        # positive item per bundle, zeros appended to the first bundle.
        for slot, j in enumerate(positive):
            bundles[slot].append(j)
        bundles[0].extend(zeros)
        return MmsResult(Fraction(0), _freeze(bundles))

    w = [*map(value_of, positive)]
    suffix = [*accumulate(reversed(w), initial=0)][::-1]
    if k == 1:
        best, best_assign = suffix[0], [0] * cut
    elif k == 2 and suffix[0] <= _WALK_TOTAL:
        best, best_assign = _two_bundles(w, suffix)
    else:
        best, best_assign = _search(w, suffix, k)

    for i, j in enumerate(positive):
        bundles[best_assign[i]].append(j)
    if zeros:
        # Zero items ride along on the first bundle at the share; they change nothing.
        loads = [sum(map(value_of, bundle)) for bundle in bundles]
        bundles[loads.index(best)].extend(zeros)

    return MmsResult(Fraction(best, denom), _freeze(bundles))


def _search(w: list[int], suffix: list[int], k: int) -> tuple[int, list[int]]:
    """The share of descending positive ``w`` over k >= 2 bundles, and the
    bundle of each item in the first leaf that attains it."""
    cut = len(w)
    # The k - t bundles without any of the t largest items share the rest.
    ceiling = min(map(floordiv, suffix[:k], range(k, 0, -1)))
    if cut < 2 * k:
        # At least 2k - cut bundles are singletons; the lightest of them holds
        # at most the (2k - cut)-th largest item.
        ceiling = min(ceiling, w[2 * k - cut - 1])

    # The first leaf is the greedy one.  It gives each bundle one of the k
    # largest items, so its minimum beats 0 and, bounding its ancestors'
    # fill levels from below, no prune reaches it: it is the first incumbent.
    best = 0
    best_assign: list[int] = []
    loads = [0] * k
    assign = [0] * cut
    last = cut - 1
    tail = w[last]
    ids = range(k)
    load_of = loads.__getitem__

    def search(idx: int) -> bool:
        """Depth-first over bundle choices; returns True to stop early."""
        nonlocal best, best_assign
        # Stable, so equal loads keep index order: the witnesses depend on it.
        order = sorted(ids, key=load_of)
        # Water fill: prune unless the rest can lift every bundle past best.
        target = best + 1
        budget = suffix[idx]
        for b in order:
            if (load := loads[b]) >= target:
                break
            budget -= target - load
        if budget < 0:
            return False
        item = w[idx]
        leaves = idx + 1 == last
        prev = -1
        for b in order:
            load = loads[b]
            if load == prev:
                continue  # bundles of equal load are interchangeable
            prev = load
            loads[b] = load + item
            assign[idx] = b
            if leaves:
                # A leaf: the last item on the lightest bundle only.
                low = sorted(loads)
                if (val := min(low[0] + tail, low[1])) > best:
                    assign[last] = loads.index(low[0])
                    best, best_assign = val, assign[:]
                    if best >= ceiling:
                        return True
            elif search(idx + 1):
                return True
            loads[b] = load
        return False

    search(0)
    return best, best_assign


def _two_bundles(w: list[int], suffix: list[int]) -> tuple[int, list[int]]:
    """``_search``'s answer for k = 2, from subset sums and no backtracking."""
    # reach[i] has bit s set iff some subset of w[i:] sums to s.
    reach = [1]
    for item in reversed(w):
        reach.append(reach[-1] | (reach[-1] << item))
    reach.reverse()
    # Each subset's complement is one too, so the share is the best sum up to half.
    best = (reach[0] & ((2 << suffix[0] // 2) - 1)).bit_length() - 1
    slack = suffix[0] - 2 * best
    loads = [0, 0]
    assign = []
    for idx, item in enumerate(w):
        # Lighter bundle first, index order on ties, as `search` tries them.
        # Bundle b takes item and some x of the rest, the other bundle the
        # remainder: b reaches best iff x >= low, and the other iff b ends at
        # most total - best, x <= low + slack.  The first child that passes
        # heads `search`'s first leaf at the share.
        for b in (0, 1) if loads[0] <= loads[1] else (1, 0):
            low = best - loads[b] - item
            if _holds(reach[idx + 1], low, low + slack):
                break
        loads[b] += item
        assign.append(b)
    return best, assign


def _holds(sums: int, low: int, high: int) -> bool:
    """Whether the subset-sum bitset ``sums`` has a bit in [low, high]."""
    low = max(low, 0)
    return low <= high and (sums >> low) & ((2 << (high - low)) - 1) != 0


def _freeze(bundles: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical witness form: items ascending, bundles by first item,
    empty bundles last."""
    # Bundles are disjoint, so tuple order is first-item order.
    full = sorted(map(tuple, map(sorted, filter(None, bundles))))
    return (*full, *[()] * (len(bundles) - len(full)))
