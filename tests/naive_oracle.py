"""Reference helpers for the tests, independent of the package's search.

``naive_mms`` enumerates every one of the k**m ways to drop m items into
k bundles and takes the best minimum bundle sum.  Exponential and proudly
so: it exists only to cross-check the real oracle on tiny inputs.  The
other helpers check a witness partition, rescale one agent's row, and
take a copy of a reduction state's contents to compare against later.
"""

from fractions import Fraction
from itertools import product

from mmsalloc.errors import InputError
from mmsalloc.model import Instance


def naive_mms(values, k: int) -> Fraction:
    vals = [Fraction(v) for v in values]
    m = len(vals)
    best = Fraction(0)
    if k < 1:
        raise ValueError("need at least one bundle")
    for assign in product(range(k), repeat=m):
        sums = [Fraction(0)] * k
        for j, b in enumerate(assign):
            sums[b] += vals[j]
        worst = min(sums)
        if worst > best:
            best = worst
    return best


def partition_min(values, partition) -> Fraction:
    """Minimum bundle sum of a partition; validates exact coverage."""
    vals = [Fraction(v) for v in values]
    seen = [False] * len(vals)
    for bundle in partition:
        for j in bundle:
            if not 0 <= j < len(vals) or seen[j]:
                raise InputError(f"item {j} missing or repeated")
            seen[j] = True
    if not all(seen):
        raise InputError("partition does not cover every item")
    if not partition:
        raise InputError("empty partition")
    return min(sum((vals[j] for j in bundle), Fraction(0)) for bundle in partition)


def scale_agent(inst: Instance, agent: int, factor: Fraction) -> Instance:
    """Multiply one agent's whole row by a positive rational."""
    rows = list(inst.values)
    rows[agent] = tuple(v * factor for v in rows[agent])
    return Instance(tuple(rows))


def state_key(state):
    """A copy of a reduction state's agents, items and valuations (log
    excluded), equal for two states exactly when those agree."""
    return (
        tuple(state.agents),
        tuple(state.items),
        {a: dict(row) for a, row in state.vals.items()},
    )
