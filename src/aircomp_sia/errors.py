"""Exception types shared across the simulator."""


class AirCompError(Exception):
    """Base class for all simulator errors."""


class SizeMismatch(AirCompError, ValueError):
    """Operands have incompatible shapes."""


class RankDeficient(AirCompError):
    """Matrix lacks the full rank the operation requires, or, for a cross
    channel the IA stage solves against, is ill-conditioned.

    `failed` is a boolean mask over the leading (batch) axes of the
    call's inputs marking the entries that hold a deficient matrix.
    """

    def __init__(self, message, failed):
        super().__init__(message)
        self.failed = failed


class DegenerateChannels(AirCompError):
    """Set redraw budget exhausted without a usable channel set."""


class DomainError(AirCompError, ValueError):
    """Input outside the domain of the requested function."""


class ConfigError(AirCompError, ValueError):
    """Invalid scenario configuration."""
