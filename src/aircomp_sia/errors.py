"""Exception types shared across the simulator."""


class AirCompError(Exception):
    """Base class for all simulator errors."""


class SizeMismatch(AirCompError, ValueError):
    """Operands have incompatible shapes."""


class RankDeficient(AirCompError):
    """Matrix lacks the full rank the operation requires."""


class DegenerateChannels(AirCompError):
    """Channel redraw budget exhausted without a usable draw."""


class DomainError(AirCompError, ValueError):
    """Input outside the domain of the requested function."""


class ConfigError(AirCompError, ValueError):
    """Invalid scenario configuration."""
