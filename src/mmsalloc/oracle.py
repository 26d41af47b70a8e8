"""Exact maximin-share computation via branch and bound.

The maximin share of a value vector over k bundles is the best worst-bundle
sum achievable by any k-way partition.  The search assigns items in
descending value order and prunes with three devices that never cut off an
optimal branch:

* an incumbent from a largest-first greedy pass, updated as we go;
* a water-filling completion bound: even if the remaining total could be
  split fractionally, the lightest bundles cannot all be raised above the
  fill level, so a branch whose level cannot beat the incumbent is dead;
* load symmetry: bundles with equal current sums are interchangeable, so
  an item is only ever tried in one of them (this also means an item opens
  at most one empty bundle).

Everything runs on integers internally.  Rational inputs are scaled by their
common denominator first; the maximin share scales along with the values, so
the result is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .model import as_rational

# Module-level call counter.  Cheap instrumentation so callers (and the test
# suite) can assert which code paths consult the exact oracle.
ORACLE_CALLS = 0

DEFAULT_CAP = 24


@dataclass(frozen=True)
class MmsResult:
    """Share value plus one partition that attains it (a witness)."""

    value: Fraction
    partition: tuple[tuple[int, ...], ...]


def _fill_level(loads: list[int], budget: int) -> int:
    """Floor of the water-filling level: pour `budget` onto the lightest
    bundles until it runs out.  No completed partition can have a minimum
    above this."""
    ls = sorted(loads)
    k = len(ls)
    cur = ls[0]
    for i in range(k):
        width = i + 1
        if i + 1 < k:
            step = (ls[i + 1] - cur) * width
            if budget < step:
                return cur + budget // width
            budget -= step
            cur = ls[i + 1]
        else:
            return cur + budget // width
    return cur  # unreachable for k >= 1


def exact_mms(values: Sequence, k: int, cap: int = DEFAULT_CAP) -> MmsResult:
    """Exact maximin share of `values` over k bundles, with a witness.

    Refuses instances with more than `cap` items (InputError): the search is
    exponential in the worst case and the cap keeps misuse loud.  Zero-value
    items are placed without branching; only positive items are searched.

    >>> exact_mms([4, 3, 2, 1], 2).value
    Fraction(5, 1)
    """
    global ORACLE_CALLS
    ORACLE_CALLS += 1

    if k < 1:
        raise InputError(f"bundle count must be >= 1, got {k}")
    vals = [as_rational(v) for v in values]
    for j, v in enumerate(vals):
        if v < 0:
            raise InputError(f"values[{j}] = {v} is negative")
    m = len(vals)
    if m > cap:
        raise InputError(f"{m} items exceeds the search cap of {cap}")

    # Work on integers: scale by the common denominator, divide back at the end.
    denom = math.lcm(*(v.denominator for v in vals)) if vals else 1
    weights = [int(v * denom) for v in vals]

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

    # Greedy incumbent: largest item onto the lightest bundle.
    loads = [0] * k
    greedy = [0] * len(w)
    for i, wt in enumerate(w):
        b = min(range(k), key=lambda x: (loads[x], x))
        loads[b] += wt
        greedy[i] = b
    best = min(loads)
    best_assign = greedy[:]

    if best < ceiling:
        loads = [0] * k
        assign = [-1] * len(w)

        def search(idx: int) -> bool:
            """Depth-first over bundle choices; returns True to stop early."""
            nonlocal best, best_assign
            if idx == len(w):
                val = min(loads)
                if val > best:
                    best = val
                    best_assign = assign[:]
                    return best >= ceiling
                return False
            if _fill_level(loads, suffix[idx]) <= best:
                return False
            tried = set()
            for b in sorted(range(k), key=lambda x: (loads[x], x)):
                if loads[b] in tried:
                    continue
                tried.add(loads[b])
                loads[b] += w[idx]
                assign[idx] = b
                if search(idx + 1):
                    return True
                loads[b] -= w[idx]
            assign[idx] = -1
            return False

        search(0)

    for i, j in enumerate(positive):
        bundles[best_assign[i]].append(j)
    # Zero items ride along on the lightest bundle; they change nothing.
    if zeros:
        final_loads = [0] * k
        for i in range(len(w)):
            final_loads[best_assign[i]] += w[i]
        lightest = min(range(k), key=lambda x: (final_loads[x], x))
        bundles[lightest].extend(zeros)

    return MmsResult(Fraction(best, denom), _freeze(bundles))


def _freeze(bundles: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical witness form: items ascending, bundles by first item,
    empty bundles last."""
    sorted_bundles = [tuple(sorted(b)) for b in bundles]
    sorted_bundles.sort(key=lambda b: (not b, b[:1]))
    return tuple(sorted_bundles)
