"""Seeded random instance generation.

The generator is pinned: `random.Random` (CPython's Mersenne Twister) seeded
with the spec's seed, cells drawn row-major.  A cell in [lo, hi] is lo plus
the first `getrandbits(k)` below the width hi - lo + 1, with k the width's
bit length: the ints `randint(lo, hi)` gives on CPython, drawn at C speed.
When the range is no wider than the cells drawn from it, each draw indexes
one list of the range's values, so equal cells share one int object.
Identical specs give bit-identical instances across runs and platforms; seed
stability is part of the external contract, so do not change the draw order.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add

from .errors import InputError
from .model import Instance, make_instance

KINDS = ("uniform", "correlated", "identical")


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random instance.

    kind "uniform": every cell independent in [lo, hi].
    kind "correlated": one base row in [lo, hi]; each agent's cell is the
    base value plus independent noise in [-noise, noise], floored at 0.
    kind "identical": one row in [lo, hi] shared by every agent.
    """

    n: int
    m: int
    kind: str
    lo: int
    hi: int
    noise: int = 0
    seed: int = 0

    def validate(self) -> None:
        for name in ("n", "m", "lo", "hi", "noise", "seed"):
            if type(value := getattr(self, name)) is not int:
                raise InputError(f"{name} must be an int, got {value!r}")
        if self.n < 1:
            raise InputError(f"agent count must be >= 1, got {self.n}")
        if self.m < 0:
            raise InputError(f"item count must be >= 0, got {self.m}")
        if self.kind not in KINDS:
            raise InputError(f"unknown distribution {self.kind!r}")
        if self.lo < 0:
            raise InputError(f"value range must be nonnegative, got lo={self.lo}")
        if self.lo > self.hi:
            raise InputError(f"empty value range [{self.lo}, {self.hi}]")
        if self.noise < 0:
            raise InputError(f"noise must be >= 0, got {self.noise}")
        if self.kind != "correlated" and self.noise != 0:
            raise InputError(f"noise only applies to correlated, got {self.kind!r}")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must fit in 64 unsigned bits")


def parse_dist(text: str) -> tuple[str, int, int, int]:
    """Parse "uniform:LO:HI", "correlated:LO:HI:NOISE", "identical:LO:HI"
    into (kind, lo, hi, noise)."""
    parts = text.split(":")
    kind = parts[0]
    want = 4 if kind == "correlated" else 3
    if kind not in KINDS or len(parts) != want:
        raise InputError(
            f"bad distribution {text!r}: expected uniform:LO:HI, "
            f"correlated:LO:HI:NOISE, or identical:LO:HI"
        )
    try:
        nums = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise InputError(f"bad distribution {text!r}: non-integer bound") from exc
    lo, hi = nums[0], nums[1]
    noise = nums[2] if kind == "correlated" else 0
    return kind, lo, hi, noise


def make_spec(n: int, m: int, dist: str, seed: int) -> GenSpec:
    kind, lo, hi, noise = parse_dist(dist)
    spec = GenSpec(n=n, m=m, kind=kind, lo=lo, hi=hi, noise=noise, seed=seed)
    spec.validate()
    return spec


def _cells(rng: random.Random, lo: int, hi: int, count: int) -> Iterator[int]:
    """``count`` cells in [lo, hi], each one ``rng.randint(lo, hi)`` would give."""
    width = hi - lo + 1
    draws = map(rng.getrandbits, repeat(width.bit_length()))
    offsets = islice(filter(width.__gt__, draws), count)
    if width <= count:  # equal cells share one int object
        return map(list(range(lo, hi + 1)).__getitem__, offsets)
    return map(add, repeat(lo), offsets)


def gen_instance(spec: GenSpec) -> Instance:
    """Deterministically generate the instance described by ``spec``."""
    spec.validate()
    n, m = spec.n, spec.m
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        cells = _cells(rng, spec.lo, spec.hi, n * m)
        return make_instance([list(islice(cells, m)) for _ in range(n)])
    base = list(_cells(rng, spec.lo, spec.hi, m))
    if spec.kind == "identical":
        return make_instance([base] * n)
    # base leads each map, so a row stops without pulling a noise draw past it
    noise = _cells(rng, -spec.noise, spec.noise, n * m)
    return make_instance([list(map(max, repeat(0), map(add, base, noise))) for _ in range(n)])
