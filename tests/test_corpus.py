"""Golden envelopes: solve output must stay byte-identical.

``corpus/envelopes.json`` stores, for each instance, its valuations and the
exact ``solve`` envelope (allocation, stats and the full event stream) of
each algorithm.  The instances cover the update loop, the tentative cascade,
zero rows, an all-zero instance and zero-share agents; any change to the
solver's output, its event order or its stats shows up here.
"""

import json
from pathlib import Path

import pytest

from mmsalloc.jsonio import allocation_to_json, dump_json
from mmsalloc.model import make_instance
from mmsalloc.solver import MODE_BASE, MODE_PLUS, solve_existence, solve_poly34

CORPUS = json.loads(
    (Path(__file__).parent / "corpus" / "envelopes.json").read_text(encoding="utf-8")
)

SOLVERS = {
    "poly34": solve_poly34,
    "exist34": lambda inst: solve_existence(inst, MODE_BASE),
    "exist34plus": lambda inst: solve_existence(inst, MODE_PLUS),
}

CASES = [
    pytest.param(case, algorithm, id=f"{case['name']}-{algorithm}")
    for case in CORPUS["cases"]
    for algorithm in case["envelopes"]
]


@pytest.mark.parametrize("case, algorithm", CASES)
def test_envelope_is_byte_identical(case, algorithm):
    inst = make_instance(case["valuations"])
    alloc, stats = SOLVERS[algorithm](inst)
    assert dump_json(allocation_to_json(alloc, stats)) == case["envelopes"][algorithm]
