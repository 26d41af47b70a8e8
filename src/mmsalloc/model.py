"""Core data model: instances, item ordering, allocations.

Values are exact rationals (`fractions.Fraction`) at the API.  Floats are
rejected at the door so that no rounding can creep into the solver path.
`order_instance` clears each row's denominators once (`integer_row`) and
keeps only the sorted ints and each row's denominator, so the solvers never
build a sorted `Fraction` copy; every value is the same rational.
All operations are pure: the same inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {x!r}") from exc
    raise InputError(f"cannot interpret {type(x).__name__} as a rational")


@dataclass(frozen=True)
class Instance:
    """An additive fair-division instance: one valuation row per agent.

    values[i][j] is agent i's value for item j, always a nonnegative Fraction.
    """

    values: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.values[0]) if self.values else 0

    def bundle_value(self, agent: int, items: Iterable[int]) -> Fraction:
        row = self.values[agent]
        return sum((row[j] for j in items), Fraction(0))


def make_instance(values: Sequence[Sequence]) -> Instance:
    """Validate and freeze a valuation matrix.

    Entries may be ints, Fractions, or exact strings.  Raises InputError
    when the matrix is empty, ragged, or has a negative entry.
    """
    rows = [list(row) for row in values]
    if not rows:
        raise InputError("an instance needs at least one agent")
    width = len(rows[0])
    out = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"row {i} has {len(row)} entries, expected {width}")
        conv = []
        for j, entry in enumerate(row):
            v = as_rational(entry)
            if v.numerator < 0:
                raise InputError(f"values[{i}][{j}] = {v} is negative")
            conv.append(v)
        out.append(tuple(conv))
    return Instance(tuple(out))


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row over one common denominator: ``row[j] == Fraction(ints[j], d)``.

    ``d`` is the least common multiple of the row's denominators, each read
    once, so the ints sort, sum and compare exactly as the row does.

    >>> integer_row([Fraction(1, 2), Fraction(2, 3), Fraction(0)])
    ([3, 4, 0], 6)
    >>> integer_row([Fraction(5), Fraction(0), Fraction(7)]), integer_row([])
    (([5, 0, 7], 1), ([], 1))
    """
    dens = [v.denominator for v in row]
    if (d := math.lcm(*dens)) == 1:
        return [v.numerator for v in row], d
    return [v.numerator * (d // e) for v, e in zip(row, dens)], d


@dataclass(frozen=True)
class OrderedView:
    """Every agent's row sorted descending, as cleared ints, plus the way back.

    ranking[i][p] is the original item id sitting at sorted position p for
    agent i.  Ties sort by ascending original item id, so the view is
    deterministic.  Agent i values sorted position p at
    ``Fraction(int_rows[i][p], denominators[i])``.
    """

    ranking: tuple[tuple[int, ...], ...]
    int_rows: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]


def order_instance(inst: Instance) -> OrderedView:
    """Sort every agent's row into descending order of value.

    >>> view = order_instance(make_instance([[1, "3/2", 2]]))
    >>> view.int_rows[0], view.denominators[0]
    ((4, 3, 2), 2)
    >>> view.ranking[0]
    (2, 1, 0)
    """
    rankings = []
    int_rows = []
    denominators = []
    for row in inst.values:
        ints, d = integer_row(row)
        # A stable sort stays stable under reverse=True: ties keep ascending ids.
        order = sorted(range(len(row)), key=ints.__getitem__, reverse=True)
        rankings.append(tuple(order))
        int_rows.append(tuple(map(ints.__getitem__, order)))
        denominators.append(d)
    return OrderedView(tuple(rankings), tuple(int_rows), tuple(denominators))


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
