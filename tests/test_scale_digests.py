"""Byte-identity of ``solve_poly34`` at the sizes it is built for.

The acceptance sweep pins envelopes only up to n = 5, and the benchmark's
pins leave events out.  Here each case generates its own instance, solves
it once, and pins the sha256 of the whole canonical ``solve`` envelope,
events included, so a changed rescale bound or bag value string fails too.
The cases cover uniform rows with mixed denominators at 60x600, rows where
the fixed phase removes nearly every agent (n = 40), and near-threshold
rows where the update loop (undo, rescale, rerun) fires (n = 25 and 50).
Each solve also counts its bag layouts, a check that no host speed moves.
The states these solves hand to ``fill_bags`` are also filled by the plain
reference of ``tests/naive_oracle.py``, at the solver's alpha and at one
where the fillers run dry.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from naive_oracle import fill_bags_reference

import mmsalloc.bags as bags_mod
import mmsalloc.solver as solver_mod
from mmsalloc.bags import bag_layout, fill_bags
from mmsalloc.errors import InvariantViolation
from mmsalloc.jsonio import allocation_to_json, dump_json
from mmsalloc.model import make_instance
from mmsalloc.solver import solve_poly34


def _shuffled(rng, rows):
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    return make_instance([[row[p] for p in perm] for row in rows])


def uniform_rational(seed, n=60, m=600):
    # Denominators drawn per entry, so each row clears to a shared d > 1.
    rng = random.Random(seed)
    return make_instance(
        [
            [Fraction(rng.randint(1, 12000), rng.choice((1, 2, 3, 4, 6, 12))) for _ in range(m)]
            for _ in range(n)
        ]
    )


def removal_heavy(seed, n=40):
    # n items in [800, 1000] and 3n fillers in [1, 20] per agent.
    rng = random.Random(seed)
    rows = [
        [rng.randint(800, 1000) for _ in range(n)] + [rng.randint(1, 20) for _ in range(3 * n)]
        for _ in range(n)
    ]
    return _shuffled(rng, rows)


def near_threshold(seed, n):
    # n-1 items in [6500, 6700], one in [3740, 3760], n in [3680, 3720] and
    # 3n fillers in [1, 20] per agent: bags sit around the profile thresholds.
    rng = random.Random(seed)
    rows = [
        [rng.randint(6500, 6700) for _ in range(n - 1)]
        + [rng.randint(3740, 3760)]
        + [rng.randint(3680, 3720) for _ in range(n)]
        + [rng.randint(1, 20) for _ in range(3 * n)]
        for _ in range(n)
    ]
    return _shuffled(rng, rows)


# name -> (instance factory, update-loop iterations, sha256 of the envelope)
CASES = {
    "uniform_60x600": (
        lambda: uniform_rational(11),
        0,
        "3d94985b65050639991c64bedbded9f38b01db0a9e5bbbc445099b0a111465e9",
    ),
    "removal_40": (
        lambda: removal_heavy(12),
        0,
        "dcdb9fdf99baac20d7a530ddde14cc92e875f63f4e2e2d9e2bc13ecb4bbe0114",
    ),
    "near_25": (
        lambda: near_threshold(13, 25),
        1,
        "fb7b076dda8cc64a4d03fede16d692ea34cdc86c28d1f8fe6e44d04e9d763cfa",
    ),
    "near_50": (
        lambda: near_threshold(14, 50),
        12,
        "47a7f4426cc9250607adb874e69c76f90a54f98137a7126d351e392e091070f0",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_large_envelope_digest(name, monkeypatch):
    build, iterations, expected = CASES[name]
    # Scans and rescale bounds read the bags straight from the items, so a
    # solve builds one bag layout, for its fill.
    layouts = []

    def counted(state):
        layouts.append(state)
        return bag_layout(state)

    monkeypatch.setattr(bags_mod, "bag_layout", counted)
    alloc, stats = solve_poly34(build())
    envelope = dump_json(allocation_to_json(alloc, stats))
    assert stats.update_loop_iterations == iterations
    assert hashlib.sha256(envelope.encode()).hexdigest() == expected
    assert len(layouts) == 1


def fill_input(name, monkeypatch):
    """The state and alpha the solve of case ``name`` hands to ``fill_bags``."""
    seen = []

    def capture(state, alpha):
        seen.append((state.clone(), alpha))
        return fill_bags(state, alpha)

    monkeypatch.setattr(solver_mod, "fill_bags", capture)
    solve_poly34(CASES[name][0]())
    (got,) = seen
    return got


@pytest.mark.parametrize("name, waiting", [("uniform_60x600", 60), ("removal_40", 4), ("near_50", 50)])
def test_fill_bags_matches_reference_at_scale(name, waiting, monkeypatch):
    # Up to 60 waiting agents, where test_bags' hypothesis cases stop at 5,
    # so a winner popped from the wrong place in the waiting lists shows.
    state, alpha = fill_input(name, monkeypatch)
    assert len(state.agents) == waiting
    assert fill_bags(state, alpha) == fill_bags_reference(state, alpha)


def test_fill_bags_runs_dry_as_the_reference_does(monkeypatch):
    # At alpha 3/2 the uniform state's fillers run dry in round 30, with 30
    # agents still waiting; both fills fail with the same bundle listed.
    state, _ = fill_input("uniform_60x600", monkeypatch)
    messages = []
    for fill in (fill_bags, fill_bags_reference):
        with pytest.raises(InvariantViolation, match="^round 30: no filler left") as exc:
            fill(state, Fraction(3, 2))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
