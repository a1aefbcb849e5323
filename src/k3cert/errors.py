"""Exception hierarchy.

MathError and its subclasses signal that a computation was rejected for a
mathematical reason (bad reduction, broken identity, inconsistent input
data).  The CLI maps them to exit code 2; argument and file problems stay
ordinary ValueErrors and map to exit code 1.
"""


class MathError(Exception):
    """A mathematical precondition failed or an exact check broke."""


class NotDivisibleError(MathError):
    """Exact division was requested but the divisor does not divide."""


class BudgetExceededError(MathError):
    """Computation exceeds the desk-scale budget and was not opted in."""


class WeilBoundError(MathError):
    """A point count violates the Weil bound; the count is wrong."""


class InconsistentTracesError(MathError):
    """Newton recursion produced a non-integer; the traces are inconsistent."""


class SingularReductionError(MathError):
    """The branch sextic is singular mod p (bad reduction)."""


class CommonZeroOnLineError(MathError):
    """f3 and f5 share a zero on the tritangent line, violating smoothness."""


class ChainHypothesisError(MathError):
    """A lattice chain does not satisfy the index-p hypotheses."""


class CacheFileError(ValueError):
    """A line of the count cache file is not a count record."""
