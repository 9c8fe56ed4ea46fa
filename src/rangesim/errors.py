"""The exception hierarchy of rangesim, and its one integer, number, finite, real and power
checks."""

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


def require_numbers(name, values):
    """``np.asarray(values)`` if of integers, floats or complex numbers; text, None, bools, other
    objects and ragged lists raise ``ValidationError`` naming the argument."""
    try:
        array = np.asarray(values)
        if array.dtype.kind in "iufc":
            return array
    except ValueError:  # a ragged list
        pass
    raise ValidationError(f"{name} must be a number or an array of numbers, got {values!r:.60}")


def require_finite(name, values):
    """``values`` unchanged if a finite real scalar (one ``math.isfinite`` call), or as an array
    if one ``np.isfinite`` pass finds no NaN or ±inf in it.  A violation raises
    ``ValidationError`` naming the argument and its (first) non-finite value; so does a complex
    scalar, an integer past the float range, and what :func:`require_numbers` rejects (a Python
    or numpy bool is not a number).  Arrays may be complex."""
    # the Real ABC is slower; a bool is an int, but not a number here
    if isinstance(values, (float, int, np.floating, np.integer)) and not isinstance(values, bool):
        try:
            if math.isfinite(values):
                return values
        except OverflowError:  # an integer too large for a float
            pass
        raise ValidationError(f"{name} must be finite, got {values!r}")
    if isinstance(values, (complex, np.complexfloating)):
        raise ValidationError(f"{name} must be real, got {values!r}")
    array = require_numbers(name, values)
    if np.isfinite(array).all():
        return array
    raise ValidationError(f"{name} must be finite, got {array[~np.isfinite(array)][0].item()!r}")


def require_finite_real(name, values) -> np.ndarray:
    """``values`` as an array if :func:`require_finite` passes it and it is not complex: the one
    rule for offsets and spectra.  A complex array raises ``ValidationError`` ("must be real")
    naming the argument, as a complex scalar does."""
    array = np.asarray(require_finite(name, values))
    if array.dtype.kind == "c":
        raise ValidationError(f"{name} must be real, got {values!r:.60}")
    return array


def require_finite_power(name, array: np.ndarray) -> np.ndarray:
    """``array`` unchanged if its total power, one BLAS pass that NaN and ±inf carry into, is
    finite; else ``ValidationError`` naming the argument.  The one bound for arrays whose
    products are summed: a finite total power bounds every such sum, a correlation's entries and
    a matrix's sum with its mirror included, so none of them can overflow."""
    if not math.isfinite(np.vdot(array, array).real):
        raise ValidationError(f"{name} must be finite, with a finite total power")
    return array
