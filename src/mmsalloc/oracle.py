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

Each node sorts its bundles by load once, stably, so equal loads keep
index order.  The bound pours the remaining total along that order, and
the children follow it, skipping a bundle whose load equals the previous
child's.  The last item goes only on the lightest bundle: on any other
the lightest load stays the minimum, and the lightest bundle's own leaf
is worth at least that, so no other last child can become the incumbent.

Everything runs on integers internally: ``model.cleared_row`` validates the
row and scales it by its common denominator, and the maximin share scales
along with the values, so the result is exact.  An int row such as
``Instance.rows[i]`` is searched as it is, and its share is in its units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .model import cleared_row

ORACLE_CAP = 24


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

    order = sorted(range(m), key=lambda j: (-weights[j], j))
    positive = [j for j in order if weights[j] > 0]
    zeros = [j for j in order if weights[j] == 0]

    bundles: list[list[int]] = [[] for _ in range(k)]

    if len(positive) < k:
        # Some bundle is forced empty, the share is zero.  Witness: one
        # positive item per bundle, zeros appended to the first bundle.
        for slot, j in enumerate(positive):
            bundles[slot].append(j)
        bundles[0].extend(zeros)
        return MmsResult(Fraction(0), _freeze(bundles))

    w = [weights[j] for j in positive]
    suffix = [0] * (len(w) + 1)
    for i in range(len(w) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + w[i]
    total = suffix[0]
    ceiling = total // k  # no partition's minimum can exceed the average

    # The first leaf is the greedy one.  It gives each bundle one of the k
    # largest items, so its minimum beats 0 and, bounding its ancestors'
    # fill levels from below, no prune reaches it: it is the first incumbent.
    best = 0
    best_assign: list[int] = []
    best_loads: list[int] = []
    loads = [0] * k
    assign = [0] * len(w)
    last = len(w) - 1

    def search(idx: int) -> bool:
        """Depth-first over bundle choices; returns True to stop early."""
        nonlocal best, best_assign, best_loads
        # Stable, so equal loads keep index order: the witnesses depend on it.
        order = sorted(range(k), key=loads.__getitem__)
        # Water fill: prune unless the rest can lift every bundle past best.
        budget = suffix[idx]
        for b in order:
            if loads[b] > best:
                break
            budget -= best + 1 - loads[b]
        if budget < 0:
            return False
        item = w[idx]
        if idx == last:
            # On any other bundle the lightest load stays the minimum, and
            # the lightest bundle's own leaf is worth at least that.
            b = assign[idx] = order[0]
            loads[b] += item
            if (val := min(loads)) > best:
                best, best_assign, best_loads = val, assign[:], loads[:]
            loads[b] -= item
            return best >= ceiling
        prev = -1
        for b in order:
            load = loads[b]
            if load == prev:
                continue  # bundles of equal load are interchangeable
            prev = load
            loads[b] = load + item
            assign[idx] = b
            if search(idx + 1):
                return True
            loads[b] = load
        return False

    search(0)

    for i, j in enumerate(positive):
        bundles[best_assign[i]].append(j)
    # Zero items ride along on the lightest bundle; they change nothing.
    bundles[best_loads.index(best)].extend(zeros)

    return MmsResult(Fraction(best, denom), _freeze(bundles))


def _freeze(bundles: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical witness form: items ascending, bundles by first item,
    empty bundles last."""
    sorted_bundles = [tuple(sorted(b)) for b in bundles]
    sorted_bundles.sort(key=lambda b: (not b, b[:1]))
    return tuple(sorted_bundles)
