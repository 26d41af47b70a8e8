"""The update loop run more than once, at sizes the oracle can certify.

The acceptance sweep never reaches the update loop, and its near-threshold
instances rescale once and then rerun on no agents.  This family (n 3-6,
m <= 24) puts each agent's bags around the profile thresholds: per agent
n-1 items at H, one at X, n at Y and f fillers sharing F, all on a scale
of 10**4 per agent and drawn as ints.  Each pinned seed runs the loop at
least twice; the checks are the 3/4 certificate against exact shares, the
structural bounds after every fixed phase, the iteration cap, and the
sha256 of the whole ``solve`` envelope.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from mmsalloc.jsonio import allocation_to_json, dump_json
from mmsalloc.model import make_instance
from mmsalloc.solver import iteration_cap, solve_poly34
from mmsalloc.verify import check_alpha_mms, corollary_violations

UNIT = 10**4  # one agent's average value


def loop_family(seed):
    # Y in [0.30, 0.42], X = Y + [-0.02, 0.04], F in [0.02, 0.4] and H fills
    # the row up to n; each H, X and Y entry moves by up to 0.01, and each
    # of the f fillers is drawn from [0, 2F/f].
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    f = rng.randint(1, 24 - 2 * n)
    y = rng.randint(3000, 4200)
    x = y + rng.randint(-200, 400)
    filler = rng.randint(200, 4000)
    h = (n * UNIT - x - n * y - filler) // (n - 1)

    def jitter(v):
        return v + rng.randint(-100, 100)

    rows = [
        [jitter(h) for _ in range(n - 1)]
        + [jitter(x)]
        + [jitter(y) for _ in range(n)]
        + [rng.randint(0, 2 * filler // f) for _ in range(f)]
        for _ in range(n)
    ]
    return make_instance(rows)


# seed -> (update-loop iterations, tentative removals kept, envelope sha256)
SEEDS = {
    5531: (2, 0, "3809a03e0f180777f72e8069c9f35af8cd48cac50875dddf1840084730896f0d"),
    3423: (2, 4, "dc93a5c5ae851c256002a5748a905f60767e7516a8be7d152c6043e6fbdb8ec7"),
    12663: (3, 0, "1c43c751331878d208cef27d2eb8309eb8fab049ed22afda25d39e7c469fa278"),
    1451: (2, 0, "4ec06af3b6e4f87198c8705a594eb626bb904ae4c40309926a422988f9776935"),
    2242: (4, 0, "2c3cb4b21851ee5b593fff3ddaee2766da1cb7e96c840fb0586d7387442ad558"),
    834: (3, 5, "bbd85ce23a717d38b04da10aac6781a21c8805ee546c1cd106f1dbd674858858"),
    9993: (3, 5, "9916102a36cbd5a7f5adf70f3b666f480a45bea26ecdf21110faefc096f89b85"),
    10313: (2, 6, "a0e4c35956b20ccf2c68474cb54e5bfd39795a78a705304741d06e0ea54bfbf9"),
}


def test_seeds_cover_repeated_rescales_and_kept_tentatives():
    assert {loop_family(seed).n for seed in SEEDS} == {3, 4, 5, 6}
    assert max(iterations for iterations, _, _ in SEEDS.values()) >= 3
    assert any(kept for _, kept, _ in SEEDS.values())


@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_update_loop_reruns_and_certifies(seed):
    iterations, kept, digest = SEEDS[seed]
    inst = loop_family(seed)
    clones = []

    def observer(event, record):
        if event == "fixed_phase_done":
            clones.append(record["state"])

    alloc, stats = solve_poly34(inst, observer=observer)
    assert (stats.update_loop_iterations, stats.tentative_assignments) == (iterations, kept)
    assert iterations <= iteration_cap(inst.n)
    assert len(clones) == iterations + 1
    assert [corollary_violations(clone) for clone in clones] == [[]] * len(clones)
    assert check_alpha_mms(inst, alloc, Fraction(3, 4)).overall
    envelope = dump_json(allocation_to_json(alloc, stats))
    assert hashlib.sha256(envelope.encode()).hexdigest() == digest
