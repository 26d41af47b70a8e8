"""Core data model: instances, item ordering, allocations.

Values are exact rationals (`fractions.Fraction`) at the API.  Floats are
rejected at the door so that no rounding can creep into the solver path.
An `Instance` keeps each row cleared to ints over one denominator, once
(`cleared_row`): all-int input builds no `Fraction`, and `Instance.values`
derives the rationals only for readers that ask.
All operations are pure: the same inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError


def as_rational(x) -> Fraction:
    """Coerce an int, Fraction, or exact decimal/fraction string to Fraction.

    Floats and bools are rejected: exact arithmetic only.

    >>> as_rational("3/7")
    Fraction(3, 7)
    >>> as_rational("0.25")
    Fraction(1, 4)
    """
    if isinstance(x, bool):
        raise InputError(f"boolean is not a valuation: {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise InputError(
            f"float {x!r} rejected: pass an int or an exact string like '1/3' or '0.25'"
        )
    if isinstance(x, str):
        # Fraction expands 1eX to 10**X: refuse past the limit int() puts on digits.
        limit, (_, e, exp) = sys.get_int_max_str_digits(), x.lower().partition("e")
        try:
            if e and 0 < limit <= abs(int(exp)):
                raise InputError(f"exponent of {x!r} exceeds the limit of {limit} digits")
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {x!r}") from exc
    raise InputError(f"cannot interpret {type(x).__name__} as a rational")


def cleared_row(values: Sequence, label: str) -> tuple[tuple[int, ...], int]:
    """The row, validated, over one common denominator: ``(ints, d)``.

    ``as_rational(values[j]) == Fraction(ints[j], d)`` and ``d`` is the lcm
    of the denominators, so the ints sort, sum and compare as the row does.
    Plain ints skip ``as_rational``; a negative entry is reported as
    ``label[j]``.

    >>> cleared_row([Fraction(1, 2), "2/3", 0], "values")
    ((3, 4, 0), 6)
    >>> cleared_row([5, 0, 7], "values"), cleared_row([], "values")
    (((5, 0, 7), 1), ((), 1))
    """
    row = []
    for j, x in enumerate(values):
        v = x if type(x) is int else as_rational(x)
        if v < 0:
            raise InputError(f"{label}[{j}] = {v} is negative")
        row.append(v)
    if (d := math.lcm(*(v.denominator for v in row))) == 1:
        return tuple(v.numerator for v in row), d
    return tuple(v.numerator * (d // v.denominator) for v in row), d


@dataclass(frozen=True)
class Instance:
    """An additive fair-division instance: one valuation row per agent.

    Agent i values item j at ``Fraction(rows[i][j], denominators[i])``, her
    row as ``cleared_row`` returns it.  ``values`` derives the ``Fraction``
    matrix on first read, for callers that want the rationals.
    """

    rows: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(Fraction(v, d) for v in row) for row, d in zip(self.rows, self.denominators)
        )

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def bundle_value(self, agent: int, items: Iterable[int]) -> Fraction:
        return Fraction(sum(map(self.rows[agent].__getitem__, items)), self.denominators[agent])


def make_instance(values: Sequence[Sequence]) -> Instance:
    """Validate and clear a valuation matrix.

    Entries may be ints, Fractions, or exact strings.  Raises InputError
    when the matrix is empty, ragged, or has a negative entry.
    """
    rows = [list(row) for row in values]
    if not rows:
        raise InputError("an instance needs at least one agent")
    width = len(rows[0])
    cleared = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"row {i} has {len(row)} entries, expected {width}")
        cleared.append(cleared_row(row, f"values[{i}]"))
    return Instance(tuple(r for r, _ in cleared), tuple(d for _, d in cleared))


@dataclass(frozen=True)
class OrderedView:
    """Every agent's cleared row sorted descending, plus the way back.

    ranking[i][p] is the original item id sitting at sorted position p for
    agent i, and ``int_rows[i][p]`` is ``inst.rows[i][ranking[i][p]]``.
    Ties sort by ascending original item id, so the view is deterministic.
    """

    ranking: tuple[tuple[int, ...], ...]
    int_rows: tuple[tuple[int, ...], ...]


def order_instance(inst: Instance) -> OrderedView:
    """Sort every agent's row into descending order of value.

    >>> view = order_instance(make_instance([[1, "3/2", 2]]))
    >>> view.int_rows[0], view.ranking[0]
    ((4, 3, 2), (2, 1, 0))
    """
    rankings = []
    int_rows = []
    for row in inst.rows:
        # A stable sort stays stable under reverse=True: ties keep ascending ids.
        order = sorted(range(len(row)), key=row.__getitem__, reverse=True)
        rankings.append(tuple(order))
        int_rows.append(tuple(map(row.__getitem__, order)))
    return OrderedView(tuple(rankings), tuple(int_rows))


@dataclass(frozen=True)
class Allocation:
    """A complete assignment of items to agents.

    bundles[i] holds agent i's item ids, sorted ascending.  When filler items
    were left over after the last agent was satisfied, they are folded into
    the last assigned bundle; `leftovers` records which items those were and
    `leftover_agent` records who absorbed them, purely for audit.
    """

    bundles: tuple[tuple[int, ...], ...]
    leftovers: tuple[int, ...] = ()
    leftover_agent: int | None = None


def lift_allocation(inst: Instance, view: OrderedView, alloc: Allocation) -> Allocation:
    """Translate an allocation of the sorted view back to original items.

    Walks sorted positions from most valuable down; the agent who owns each
    position picks her favorite original item still on the table.  Every
    agent ends up with a bundle she values at least as much as her bundle in
    the sorted view.  Runs in O(n*m).

    Raises InputError unless the input bundles partition all items.
    """
    n, m = inst.n, inst.m
    owner = [-1] * m
    for agent, bundle in enumerate(alloc.bundles):
        for pos in bundle:
            if not 0 <= pos < m or owner[pos] != -1:
                raise InputError(f"position {pos} is missing or assigned twice")
            owner[pos] = agent
    if any(o == -1 for o in owner):
        raise InputError("some positions were never assigned")

    taken = [False] * m
    cursor = [0] * n
    lifted: list[list[int]] = [[] for _ in range(n)]
    picked = [0] * m  # sorted position -> original item handed out at that step
    for pos in range(m):
        agent = owner[pos]
        rank = view.ranking[agent]
        p = cursor[agent]
        while taken[rank[p]]:
            p += 1
        item = rank[p]
        cursor[agent] = p + 1
        taken[item] = True
        picked[pos] = item
        lifted[agent].append(item)

    leftovers = tuple(sorted(picked[pos] for pos in alloc.leftovers))
    return Allocation(
        bundles=tuple(tuple(sorted(b)) for b in lifted),
        leftovers=leftovers,
        leftover_agent=alloc.leftover_agent,
    )
