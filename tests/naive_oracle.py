"""Reference helpers for the tests, independent of the package's search.

``naive_mms`` enumerates every one of the k**m ways to drop m items into
k bundles and takes the best minimum bundle sum.  Exponential and proudly
so: it exists only to cross-check the real oracle on tiny inputs.
``reference_mms`` is the oracle's search as it stood before its leaves were
folded into their parents, kept verbatim to pin the partition it finds as
well as the value.  The other helpers read an instance's values as ``Fraction`` rows, check a
witness partition, rescale one agent's row, sort
rows by a keyed sort, normalize rows, profile an agent's bags and fill the
bags in plain ``Fraction`` arithmetic or one agent test at a time, and take
a copy of a reduction state's contents to compare against later.
"""

from fractions import Fraction
from itertools import product
from typing import Sequence

from mmsalloc.bags import AgentProfile, BagFillResult, bag_layout
from mmsalloc.errors import InputError, InvariantViolation
from mmsalloc.model import Instance, OrderedView, cleared_row, make_instance
from mmsalloc.oracle import ORACLE_CAP, MmsResult


def fraction_rows(inst: Instance) -> tuple[tuple[Fraction, ...], ...]:
    """Agent i's value for item j as ``Fraction(rows[i][j], denominators[i])``."""
    return tuple(tuple(Fraction(v, d) for v in row) for row, d in zip(inst.rows, inst.denominators))


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
    rows = [list(row) for row in fraction_rows(inst)]
    rows[agent] = [v * factor for v in rows[agent]]
    return make_instance(rows)


def order_instance_reference(inst: Instance) -> OrderedView:
    """``model.order_instance`` as a keyed sort on the ``Fraction`` values:
    descending value, ties by ascending item id, each row read item by item."""
    rankings = tuple(
        tuple(sorted(range(len(row)), key=lambda j: (-row[j], j))) for row in fraction_rows(inst)
    )
    int_rows = tuple(tuple(inst.rows[i][j] for j in order) for i, order in enumerate(rankings))
    return OrderedView(rankings, int_rows)


def normalize_average_reference(inst: Instance, agents) -> dict[int, list[Fraction]]:
    """``solver.normalize_average`` in plain ``Fraction`` arithmetic: each of
    ``agents``' entries times the agent count over her (nonzero) row total,
    the reference its integer rows must match."""
    rows = fraction_rows(inst)
    return {a: [v * Fraction(len(agents)) / sum(rows[a]) for v in rows[a]] for a in agents}


def profile_agent_reference(state, agent: int) -> tuple[AgentProfile, Fraction | None]:
    """``bags.profile_agent`` in plain ``Fraction`` arithmetic: every bag
    valued, compared against 3/4 and 1, and summed as a rational.  The
    rescale test is stated on values, not on the raw ``spare`` sum: the
    fillers' value falls short of the low bags' deficit plus 1/8 per low
    bag.  Also returns the "bag_deficit" bound of
    ``solver.rescale_candidates`` in the same terms, or None with no low
    bag."""
    low, high = Fraction(3, 4), Fraction(1)
    bags, fillers = bag_layout(state)
    low_bags = [bag for bag in bags if state.bundle_value(agent, bag) < low]
    high_count = sum(1 for bag in bags if state.bundle_value(agent, bag) > high)
    deficit = sum((low - state.bundle_value(agent, bag) for bag in low_bags), Fraction(0))
    filler_value = state.bundle_value(agent, fillers)
    count = len(low_bags)
    needs = high_count > count and filler_value < deficit + Fraction(count, 8)
    spare = sum(state.rows[agent][j] for j in [*fillers, *(j for bag in low_bags for j in bag)])
    bound = (filler_value + low * count - deficit) / (Fraction(7, 8) * count) if count else None
    profile = AgentProfile(
        agent=agent,
        low_bags=count,
        high_bags=high_count,
        spare=spare,
        needs_rescale=needs,
    )
    return profile, bound


def fill_bags_reference(state, alpha: Fraction) -> BagFillResult:
    """``bags.fill_bags`` asking ``values_at_least`` afresh for every agent
    and bundle, so each test sums the bundle and cross-multiplies."""
    agents = list(state.agents)
    bags, fillers = bag_layout(state)

    def first_accepting(bundle):
        for a in agents:
            if state.values_at_least(a, bundle, alpha):
                return a
        return None

    assignments, trace = [], []
    next_filler = 0
    for rnd, bag in enumerate(bags):
        bundle = list(bag)
        added = []
        while (winner := first_accepting(bundle)) is None:
            if next_filler >= len(fillers):
                raise InvariantViolation(
                    f"round {rnd}: no filler left and no agent accepts {bundle}"
                )
            bundle.append(fillers[next_filler])
            added.append(fillers[next_filler])
            next_filler += 1
        agents.remove(winner)
        final = tuple(sorted(bundle))
        assignments.append((winner, final))
        trace.append(
            {
                "round": rnd,
                "base_bag": list(bag),
                "added": added,
                "agent": winner,
                "value": str(state.bundle_value(winner, final)),
            }
        )
    return BagFillResult(tuple(assignments), tuple(fillers[next_filler:]), tuple(trace))


def state_key(state):
    """A copy of a reduction state's agents, items and current per-item
    values (log excluded), equal for two states exactly when those agree."""
    return (
        tuple(state.agents),
        tuple(state.items),
        {
            a: {j: state.bundle_value(a, (j,)) for j in state.items}
            for a in state.agents
        },
    )


def reference_mms(values: Sequence, k: int) -> MmsResult:
    """Exact maximin share of `values` over k bundles, with a witness.

    Refuses rows of more than ORACLE_CAP items (InputError): the search is
    exponential in the worst case and the cap keeps misuse loud.  Zero-value
    items are placed without branching; only positive items are searched.

    >>> reference_mms([4, 3, 2, 1], 2).value
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
