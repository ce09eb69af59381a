"""Shared exception types, which the CLI maps onto exit codes, and the seed
check of every seeded entry point."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold (CLI exit code 2)."""


class BudgetExceededError(RuntimeError):
    """A search/enumeration exceeded its configured budget (CLI exit code 3).

    Carries whatever partial bounds were known when the budget ran out, so
    callers can still report best-known upper/lower bounds.
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class VerificationError(AssertionError):
    """A verification suite found a violated claim (CLI exit code 4)."""


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2^64): the sampling streams key on its low
    64 bits, so such a seed would draw the streams of one inside."""
    if not 0 <= seed < 1 << 64:
        raise PreconditionError(f"need 0 <= seed < 2^64, got {seed}")
