"""Exception types shared across the package."""


class PumcError(Exception):
    """Base class for package-specific failures."""


class SpaceTooLargeError(PumcError, ValueError):
    """State space exceeds the enumeration cap."""


class EnumerationCapError(PumcError, ValueError):
    """Brute-force enumeration would exceed its budget."""


class NotAnMefError(PumcError, ValueError):
    """Operation requires a verified Markovian exponential family."""


class TheoremViolationError(PumcError, RuntimeError):
    """An identity that holds mathematically failed numerically.

    Raised by self-checking operations when the stated hypotheses hold
    exactly but the asserted conclusion does not hold within tolerance.
    Inputs that meet the hypotheses only within a tolerance get a report,
    not this error, so it indicates an implementation bug, never a
    legitimate runtime condition.
    """


class PowerIterationError(PumcError, RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate, iterations):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations
