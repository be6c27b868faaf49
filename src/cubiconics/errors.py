"""Exception taxonomy shared by all modules.

Exit-code mapping used by the command line driver:
  PropertyViolationError -> 1, BudgetError -> 2, ConfigError (and any other
  ValueError or OSError) -> 3, and every other exception, a failed internal
  check such as AssertionError, NonDivisibleError or MacaulayDegenerateError,
  -> 4.  Only a PropertyViolationError exits 1.
"""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division failed; carries the offending remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class BudgetError(RuntimeError):
    """A configured enumeration/search budget was exceeded.

    Never used to silently truncate: callers either get the full result
    or this error (optionally carrying partial data in ``partial``).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class PropertyViolationError(AssertionError):
    """A structural property asserted by the theory failed on an instance.

    This is the most important failure signal the library can emit: it means
    an instance falsified something every valid input must satisfy.
    """


class ConfigError(ValueError):
    """Malformed configuration, missing constants, unusable input files."""


class DegenerateReductionError(DomainError):
    """A mod-p reduction degenerated (e.g. the form vanishes identically)."""


class NotFrameInvariantError(DomainError):
    """A biform failed the frame-invariance certificate required to descend
    to line coordinates."""


class MacaulayDegenerateError(ArithmeticError):
    """All deterministic re-partitions of the Macaulay matrix had a vanishing
    denominator minor; exactness of the quotient cannot be certified."""
