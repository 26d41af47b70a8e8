"""Approximate maximin-share (MMS) allocation of indivisible items.

Agents have additive valuations over items; each agent's maximin share is
the best worst-bundle value she could secure by partitioning the items
herself.  `solve_poly34` guarantees every agent 3/4 of that share in
strongly polynomial time; `solve_existence` uses the exact oracle to reach
3/4 (or 3/4 + 1/(12 n)) on instances small enough to brute-force.
"""

from .errors import (
    InputError,
    InvariantViolation,
    MmsError,
)
from .generate import GenSpec, gen_instance, make_spec
from .model import (
    Allocation,
    Instance,
    OrderedView,
    as_rational,
    lift_allocation,
    make_instance,
    order_instance,
)
from .oracle import MmsResult, exact_mms
from .solver import (
    MODE_BASE,
    MODE_PLUS,
    SolveStats,
    solve_existence,
    solve_poly34,
)
from .verify import VerifyReport, check_alpha_mms

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "GenSpec",
    "InputError",
    "Instance",
    "InvariantViolation",
    "MmsError",
    "MmsResult",
    "MODE_BASE",
    "MODE_PLUS",
    "OrderedView",
    "SolveStats",
    "VerifyReport",
    "as_rational",
    "check_alpha_mms",
    "exact_mms",
    "gen_instance",
    "lift_allocation",
    "make_instance",
    "make_spec",
    "order_instance",
    "solve_existence",
    "solve_poly34",
    "__version__",
]
