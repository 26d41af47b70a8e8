"""Byte-identity of ``solve_existence`` and ``check_alpha_mms`` on rational rows.

The corpus and the acceptance sweep hold only integer rows, and
``test_scale_digests.py`` pins only ``solve_poly34``.  Here 40 seeded
instances (n 2-5, m up to 12) draw every entry over a denominator from
{1, 2, 3, 4, 6, 9}, so most rows clear to a common denominator d > 1, and
some agents have a zero share.  Each instance is solved in both modes and
each allocation certified at its mode's guarantee; the sha256 of all the
canonical documents, concatenated, is pinned.  Shares, scales, ratios and
reported values all pass through the denominator, so a slip there changes
the bytes.
"""

import hashlib
import random
from fractions import Fraction

from mmsalloc.jsonio import allocation_to_json, dump_json
from mmsalloc.model import make_instance
from mmsalloc.reduction import DEFAULT_ALPHA
from mmsalloc.solver import MODE_BASE, MODE_PLUS, gamma_constant, solve_existence
from mmsalloc.verify import check_alpha_mms

DENOMINATORS = (1, 2, 3, 4, 6, 9)
EXPECTED = "5bc6e805cc11ef0d078a64c7cd1c85bfa23da6ba95a2ecf4f66052ac77d1c2b4"


def rational_instance(seed):
    rng = random.Random(seed)
    n, m = rng.randint(2, 5), rng.randint(1, 12)
    return make_instance(
        [
            [Fraction(rng.randint(0, 30), rng.choice(DENOMINATORS)) for _ in range(m)]
            for _ in range(n)
        ]
    )


def test_existence_digest_on_rational_rows():
    docs = []
    mixed = 0
    for seed in range(40):
        inst = rational_instance(seed)
        mixed += any(d > 1 for d in inst.denominators)
        for mode, alpha in (
            (MODE_BASE, DEFAULT_ALPHA),
            (MODE_PLUS, DEFAULT_ALPHA + gamma_constant(inst.n)),
        ):
            alloc, stats = solve_existence(inst, mode)
            docs.append(dump_json(allocation_to_json(alloc, stats)))
            docs.append(dump_json(check_alpha_mms(inst, alloc, alpha).to_json()))
    assert mixed >= 35
    assert hashlib.sha256("".join(docs).encode()).hexdigest() == EXPECTED
