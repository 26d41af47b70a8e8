"""The generator's bytes: sha256 pins per kind, agreement with the per-cell
`randint` reference on seeded specs, and `GenSpec.validate`'s refusals.

Seed stability is part of the external contract, so the pins hold the
bytes `gen_instance` gave when every cell was one `rng.randint(lo, hi)`
call; `randint_rows` keeps that body as the reference.
"""

import hashlib
import random

import pytest

from mmsalloc.errors import InputError
from mmsalloc.generate import GenSpec, gen_instance


def randint_rows(spec: GenSpec) -> list[list[int]]:
    """The reference: one `randint` call per cell, row-major."""
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        return [[rng.randint(spec.lo, spec.hi) for _ in range(spec.m)] for _ in range(spec.n)]
    base = [rng.randint(spec.lo, spec.hi) for _ in range(spec.m)]
    if spec.kind == "identical":
        return [list(base) for _ in range(spec.n)]
    return [
        [max(0, base[j] + rng.randint(-spec.noise, spec.noise)) for j in range(spec.m)]
        for _ in range(spec.n)
    ]


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Widths of 1, 2, 100, 1000 and 2**64 + 1, lo of 0 and 2**40, noise 0 and
# noise past the base (the floor at 0 fires), m = 0 and n = 1, for each kind.
SPECS = {
    "uniform-width-1": GenSpec(3, 17, "uniform", 5, 5, seed=11),
    "uniform-width-2": GenSpec(4, 23, "uniform", 0, 1, seed=12),
    "uniform-width-100": GenSpec(5, 31, "uniform", 1, 100, seed=13),
    "uniform-width-1000": GenSpec(6, 40, "uniform", 1, 1000, seed=14),
    "uniform-width-2**64+1": GenSpec(3, 19, "uniform", 0, 2**64, seed=15),
    "uniform-lo-2**40": GenSpec(4, 21, "uniform", 2**40, 2**40 + 999, seed=16),
    "uniform-m-0": GenSpec(4, 0, "uniform", 0, 100, seed=17),
    "uniform-n-1": GenSpec(1, 29, "uniform", 0, 100, seed=18),
    "identical-width-1": GenSpec(3, 13, "identical", 7, 7, seed=21),
    "identical-width-1000": GenSpec(4, 37, "identical", 1, 1000, seed=22),
    "identical-width-2**64+1": GenSpec(2, 15, "identical", 0, 2**64, seed=23),
    "identical-lo-2**40": GenSpec(3, 18, "identical", 2**40, 2**40 + 99, seed=24),
    "identical-m-0": GenSpec(3, 0, "identical", 0, 100, seed=25),
    "identical-n-1": GenSpec(1, 26, "identical", 1, 100, seed=26),
    "correlated-noise-0": GenSpec(4, 22, "correlated", 1, 100, 0, seed=31),
    "correlated-width-2": GenSpec(3, 27, "correlated", 0, 1, 1, seed=32),
    "correlated-width-100": GenSpec(5, 33, "correlated", 1, 100, 10, seed=33),
    "correlated-noise-above-base": GenSpec(4, 35, "correlated", 0, 10, 50, seed=34),
    "correlated-width-2**64+1": GenSpec(3, 16, "correlated", 0, 2**64, 2**63, seed=35),
    "correlated-lo-2**40": GenSpec(3, 20, "correlated", 2**40, 2**40 + 999, 2**41, seed=36),
    "correlated-m-0": GenSpec(3, 0, "correlated", 0, 100, 5, seed=37),
    "correlated-n-1": GenSpec(1, 24, "correlated", 1, 1000, 100, seed=38),
}

# sha256 of repr(gen_instance(spec).rows), recorded from the per-cell
# randint generator.
DIGESTS = {
    "uniform-width-1": "6be484477b02f9731c0c3c80b319cfdb1eda3d3ee26988d16b344e4795e92dfd",
    "uniform-width-2": "5bfce67758325c5f98305ee0eeb2029f68f3c7fe78eb77187a7d349425ef4936",
    "uniform-width-100": "5818be8690a6300f753ce5a3dc2b63febcac97b14e731c6186544c3ce7545a07",
    "uniform-width-1000": "b9291843304115db34cbe8965dddf2c827d168dae23f74aad46a6f488313091f",
    "uniform-width-2**64+1": "3197c03bf0525b86e072601a35882debffda042f880ad72b515596f442a4300a",
    "uniform-lo-2**40": "ed75fa6e786527ab4bdf26b61c4a2d8a98892b8c4c220ef3ae8049171cad5c1c",
    "uniform-m-0": "8538d3b5611b5c8d7b3b9c9c7e09db90569245f18437a37bbc5b7160e9c37a23",
    "uniform-n-1": "ee9f99667f1246735c3c850606bf8a9164e9787a0a6c355f0f87864da06463eb",
    "identical-width-1": "98a050d01e48f65d2e069027667533d7fa814c2bbe58230b8c757b6bb26f7168",
    "identical-width-1000": "9bcb2e2e5efee5e1e2cdeef5ca38b9acd62edbd4d6966ecf20bc3e1579826117",
    "identical-width-2**64+1": "2bfe17bc60f488570bd9d8a4fd5ebde69c3d45bb7ea06a2d78bb4a3009869cf0",
    "identical-lo-2**40": "2433af59c8f38980904b5c8e781bcd65beecf583a4fb4a71688d0da987d59e32",
    "identical-m-0": "b8e3ecee405b4b61bee01fd988125f77f9498e764b26253fafd352a25acee168",
    "identical-n-1": "8219dcbad7cd10572b2bdc495a8a51bc1be5e1733c33c7cc5e0613945233445c",
    "correlated-noise-0": "90311096c5ea2ac9a9593a5e7205bf592afa65f3a2c158cad0ce1e313fd6ff5b",
    "correlated-width-2": "6b124c9957d1aeb57a5eba4c9e506c1b9455b746199331fad8d47a349642a6d9",
    "correlated-width-100": "d6e3cc213d7e11d91d0193954401a9326d8f313c7a0b5a5e11a163d735382276",
    "correlated-noise-above-base": "55aa71e62b9a6b01b6187d5f384664cccb61603c9c4d9d7d76aafef52877d62b",
    "correlated-width-2**64+1": "b3849e4f043366bf2b4ed10cccd2234ca0e68e4c3c93b4394643ffb52fee4a14",
    "correlated-lo-2**40": "c1991165e07ec8ef12ded1ace9abc6499b0b41d94044a56acb3c118936485218",
    "correlated-m-0": "b8e3ecee405b4b61bee01fd988125f77f9498e764b26253fafd352a25acee168",
    "correlated-n-1": "2a5d9cded29ee90d9830547f4af52415fcf420ad70d9854a6cadf986e6a5c0f2",
}


@pytest.mark.parametrize("name", SPECS)
def test_generator_bytes_are_pinned(name):
    spec = SPECS[name]
    inst = gen_instance(spec)
    assert rows_digest(inst.rows) == DIGESTS[name]
    assert rows_digest(tuple(map(tuple, randint_rows(spec)))) == DIGESTS[name]
    assert inst.denominators == (1,) * spec.n


def test_noise_above_the_base_floors_at_zero():
    rows = gen_instance(SPECS["correlated-noise-above-base"]).rows
    assert min(map(min, rows)) == 0 and 0 < max(map(max, rows)) <= 60


def test_generator_matches_randint_reference_on_seeded_specs():
    rng = random.Random(2028)
    widths = (1, 2, 3, 100, 1000, 2**16, 2**32 + 7, 2**64 + 1)
    for _ in range(600):
        kind = rng.choice(("uniform", "correlated", "identical"))
        lo = rng.choice((0, 1, 2**40))
        hi = lo + rng.choice(widths) - 1
        noise = rng.choice((0, 1, 7, 2 * hi + 3)) if kind == "correlated" else 0
        n, m, seed = rng.randint(1, 6), rng.randint(0, 30), rng.getrandbits(64)
        spec = GenSpec(n, m, kind, lo, hi, noise, seed)
        assert [list(row) for row in gen_instance(spec).rows] == randint_rows(spec), spec


def test_generator_does_not_call_randint(monkeypatch):
    """A cost guard that does not depend on host speed: the pins hold with
    the per-cell path unavailable."""

    def refuse(*args, **kwargs):
        raise AssertionError("gen_instance drew a cell through randint/randrange")

    monkeypatch.setattr(random.Random, "randint", refuse)
    monkeypatch.setattr(random.Random, "randrange", refuse)
    for name, spec in SPECS.items():
        assert rows_digest(gen_instance(spec).rows) == DIGESTS[name]


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", True),
        ("m", 3.0),
        ("lo", 0.5),
        ("hi", "10"),
        ("noise", False),
        ("seed", 1.5),
    ],
)
def test_validate_refuses_fields_that_are_not_ints(field, value):
    fields = dict(n=2, m=3, kind="correlated", lo=0, hi=10, noise=1, seed=1)
    fields[field] = value
    with pytest.raises(InputError, match=rf"^{field} must be an int"):
        gen_instance(GenSpec(**fields))
