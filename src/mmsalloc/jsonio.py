"""JSON wire formats.

Rationals travel as exact strings ("3/7") or plain integers; JSON floats
are rejected on input so no decimal rounding can enter through the wire.
Serialization is canonical (sorted keys, fixed indentation, trailing
newline) so identical data yields byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .model import Allocation, Instance, as_rational, make_instance
from .solver import SolveStats


def rational_to_json(x: Fraction) -> int | str:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def instance_to_json(inst: Instance) -> dict:
    return {
        "agents": inst.n,
        "items": inst.m,
        "valuations": [
            [rational_to_json(Fraction(v, d)) for v in row]
            for row, d in zip(inst.rows, inst.denominators)
        ],
    }


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer past the digit limit
        raise InputError(f"bad JSON: {exc}") from exc


def load_instance(text: str) -> Instance:
    obj = _parse_json(text)
    if not isinstance(obj, dict):
        raise InputError("instance document must be a JSON object")
    try:
        rows = obj["valuations"]
    except KeyError:
        raise InputError("instance document lacks 'valuations'") from None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("'valuations' must be a list of rows")
    inst = make_instance(rows)
    n = obj.get("agents", inst.n)
    m = obj.get("items", inst.m)
    for key, declared in (("agents", n), ("items", m)):
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise InputError(f"'{key}' must be an integer, got {declared!r}")
    if n != inst.n or m != inst.m:
        raise InputError(
            f"declared shape {n}x{m} does not match valuations "
            f"{inst.n}x{inst.m}"
        )
    return inst


def allocation_to_json(alloc: Allocation, stats: SolveStats) -> dict:
    """The ``solve`` envelope: an allocation and the stats of its solve."""
    return {
        "bundles": [list(b) for b in alloc.bundles],
        "leftover_folded_into": alloc.leftover_agent,
        "stats": stats.to_json(),
    }


def load_allocation(text: str) -> Allocation:
    obj = _parse_json(text)
    if not isinstance(obj, dict) or "bundles" not in obj:
        raise InputError("allocation document must be an object with 'bundles'")
    raw = obj["bundles"]
    if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
        raise InputError("'bundles' must be a list of item-id lists")
    bundles = []
    for b in raw:
        for j in b:
            if not isinstance(j, int) or isinstance(j, bool) or j < 0:
                raise InputError(f"bad item id {j!r} in allocation")
        bundles.append(tuple(sorted(b)))
    return Allocation(bundles=tuple(bundles))


def parse_alpha(text: str) -> Fraction:
    alpha = as_rational(text)
    if not 0 <= alpha <= 1:
        raise InputError(f"alpha must be in [0, 1], got {text!r}")
    return alpha
