"""Exception hierarchy shared by all rangesim modules."""


class RangingError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(RangingError):
    """Array shape is incompatible with the requested operation."""


class ValidationError(RangingError):
    """Input violates a documented precondition or invariant."""


class NumericalError(RangingError):
    """A linear-algebra kernel failed on its input (LAPACK error or rank loss)."""


class RankDeficiencyError(NumericalError):
    """A solve hit a singular system; the working rank is overestimated."""


class ConfigError(RangingError):
    """Simulation configuration violates one of its invariants."""
