"""Exception hierarchy shared by all rangesim modules, and the one integer and finiteness checks."""

import math
from numbers import Integral

import numpy as np


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


def require_int(name, value, lo, hi=None, error=ValidationError):
    """``value`` unchanged if it is an integer in [lo, hi], or at least ``lo`` when ``hi`` is None.

    Python and numpy integers pass; bools and every float (3.0 and NaN too) do not.  A
    violation raises ``error`` naming the argument, its bounds and ``repr(value)``.
    """
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise error(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= value <= hi:
        raise error(f"{name} {value!r} outside [{lo}, {hi}]")
    if value < lo:
        bound = "non-negative" if lo == 0 else f"at least {lo}"
        raise error(f"{name} must be {bound}, got {value!r}")
    return value


def require_finite(name, values):
    """``values`` unchanged if a finite real scalar (one ``math.isfinite`` call), or as an array
    if one ``np.isfinite`` pass finds no NaN or ±inf in it.  A violation raises
    ``ValidationError`` naming the argument and its (first) non-finite value."""
    if isinstance(values, (float, int, np.floating, np.integer)):  # the Real ABC is slower
        if math.isfinite(values):
            return values
        raise ValidationError(f"{name} must be finite, got {values!r}")
    array = np.asarray(values)
    if np.isfinite(array).all():
        return array
    raise ValidationError(f"{name} must be finite, got {array[~np.isfinite(array)][0].item()!r}")
