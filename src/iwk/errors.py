"""Exception types shared across the toolkit."""


class IwkError(Exception):
    """Base class for all toolkit errors."""


class PrecisionExhausted(IwkError):
    """A computation cannot distinguish p^N from 0 at the working precision."""


class BudgetExceeded(IwkError):
    """A budget was exceeded: minors, brute-force element tuples, or a prime bound."""


class NotMinimalAtPrime(IwkError):
    """The Weierstrass model is not minimal at the requested prime."""


class BadReductionPrime(IwkError):
    """The prime divides the minimal discriminant where good reduction is
    required: an auxiliary prime ell, or the working prime p."""


class SearchExhausted(IwkError):
    """A bounded search ended without finding a witness."""


class PostconditionFailed(IwkError):
    """A mandatory self-verification failed; indicates an implementation bug."""
