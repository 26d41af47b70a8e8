"""Independent certification of allocations, and of nothing else.

Everything here recomputes maximin shares from the original instance with
the exact oracle, or takes them from a caller that did (``bench``, for
several algorithms); nothing trusts solver bookkeeping.  Shares and bundle
sums are taken on the int rows ``Instance.rows``, and a row's denominator
enters only the values a report prints.  These checks are meant for
desk-scale instances (the oracle is exponential in the item count and stops
at ``ORACLE_CAP``); beyond it the guarantee rests on the algorithm, not on us.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .model import Instance, Allocation
from .oracle import exact_mms


@dataclass(frozen=True)
class VerifyAgent:
    """One row of a verification report; ratio is None when the share is
    zero (any bundle satisfies such an agent)."""

    agent: int
    bundle_value: Fraction
    mms: Fraction
    ratio: Fraction | None
    ok: bool

    def to_json(self) -> dict:
        return {
            "agent": self.agent,
            "bundle_value": str(self.bundle_value),
            "mms": str(self.mms),
            "ratio": None if self.ratio is None else str(self.ratio),
            "pass": self.ok,
        }


@dataclass(frozen=True)
class VerifyReport:
    alpha: Fraction
    per_agent: tuple[VerifyAgent, ...]
    overall: bool

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "overall": self.overall,
            "per_agent": [row.to_json() for row in self.per_agent],
        }


def check_alpha_mms(
    inst: Instance, alloc: Allocation, alpha: Fraction, shares: list[int] | None = None
) -> VerifyReport:
    """Certify that every agent's bundle is worth at least alpha times her
    exact maximin share.  The bundles must partition the items.  ``shares``
    are the exact shares of ``inst.rows`` at k = n, in row units, so that
    several allocations of one instance share them, one per agent; None
    computes them."""
    if len(alloc.bundles) != inst.n:
        raise InputError(
            f"allocation has {len(alloc.bundles)} bundles for {inst.n} agents"
        )
    items = [j for bundle in alloc.bundles for j in bundle]
    if len(items) != inst.m or set(items) != set(range(inst.m)):
        raise InputError("bundles do not partition the item set")

    rows = []
    if shares is None:
        shares = [int(exact_mms(row, inst.n).value) for row in inst.rows]
    elif len(shares) != inst.n:
        raise InputError(f"{len(shares)} shares for {inst.n} agents")
    for i, (row, d, mms) in enumerate(zip(inst.rows, inst.denominators, shares)):
        got = sum(row[j] for j in alloc.bundles[i])
        ratio = None if mms == 0 else Fraction(got, mms)
        ok = ratio is None or ratio >= alpha
        rows.append(VerifyAgent(i, Fraction(got, d), Fraction(mms, d), ratio, ok))
    return VerifyReport(alpha, tuple(rows), all(r.ok for r in rows))

