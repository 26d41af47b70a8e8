"""Exception types, one per way the command line reports them.

InputError means the caller handed us something unusable (CLI exit
code 2).  A failed allocation guarantee is not an exception at all, it is
a verification result (exit code 1).  InvariantViolation means the solver
itself broke one of its own guarantees and the run cannot be trusted
(exit code 3).  The message says which precondition or invariant failed.
"""


class MmsError(Exception):
    """Base class for every error raised by this package."""


class InputError(MmsError):
    """Caller-supplied data violates a documented precondition."""


class InvariantViolation(MmsError):
    """An internal guarantee failed; indicates a bug, not bad input."""
