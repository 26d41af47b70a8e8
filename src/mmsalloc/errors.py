"""Exception types, grouped by how the command line reports them.

InputError subclasses mean the caller handed us something unusable
(CLI exit code 2).  A failed allocation guarantee is not an exception
at all, it is a verification result (exit code 1).  InvariantViolation
subclasses mean the solver itself broke one of its own guarantees and
the run cannot be trusted (exit code 3).
"""


class MmsError(Exception):
    """Base class for every error raised by this package."""


class InputError(MmsError):
    """Caller-supplied data violates a documented precondition."""


class NegativeValue(InputError):
    """A valuation entry is negative."""


class EmptyAgents(InputError):
    """An instance needs at least one agent."""


class RaggedMatrix(InputError):
    """Valuation rows have inconsistent lengths."""


class NonPositiveScale(InputError):
    """Scaling factors must be strictly positive."""


class ZeroMMS(InputError):
    """Normalization by maximin share needs a strictly positive share."""


class IncompleteAllocation(InputError):
    """Bundles passed for lifting must partition the full item set."""


class ZeroBundles(InputError):
    """Partition counts must be at least one."""


class TooLarge(InputError):
    """Exact search refused: item count exceeds the configured cap."""


class BadPartition(InputError):
    """A partition does not cover each item exactly once."""


class NotAPartition(InputError):
    """An allocation under verification does not partition the items."""


class BadSpec(InputError):
    """A generator specification string or field is malformed."""


class InvariantViolation(MmsError):
    """An internal guarantee failed; indicates a bug, not bad input."""


class BelowThreshold(InvariantViolation):
    """A reduction tried to hand out a bundle below the acceptance threshold."""


class Exhausted(InvariantViolation):
    """Bag filling ran out of filler items before satisfying an agent."""


class IterationCapExceeded(InvariantViolation):
    """The rescale loop exceeded its polynomial iteration budget."""
