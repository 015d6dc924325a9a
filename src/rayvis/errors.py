"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, ``InputError``
(bad inputs, bad files, mismatched dimensions) exits 2, and
``NumericalError`` (singular systems, failed optimizations) exits 3.
:func:`bounded` is the one check of a scalar setting, :func:`near_far`
of a depth range and :func:`rgb` of a color.
"""

import math
import numbers


class RayvisError(Exception):
    """Base class for all package errors."""


class InputError(RayvisError):
    """Invalid input data, file, or configuration."""


class PixelBoundsError(InputError):
    """Pixel coordinate outside the image."""


class BehindCameraError(InputError):
    """Point has non-positive depth in the camera frame."""


class IntervalOrderError(InputError):
    """Depth interval endpoints out of order."""


class ConfigurationError(InputError):
    """Inconsistent or unsatisfiable configuration."""


class DimensionMismatchError(InputError):
    """Array or image dimensions do not agree."""


class SceneFormatError(InputError):
    """Malformed scene description file."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class NumericalError(RayvisError):
    """Numerical failure (singular system, non-finite result)."""


class DegenerateFitError(NumericalError):
    """Least-squares system is singular and unregularized."""


def bounded(name, value, low, high=math.inf, whole=False, above=False,
            error=ConfigurationError):
    """``value`` if it lies in ``[low, high]``, or in ``(low, high]`` when
    ``above``: with ``whole`` as ``int(value)``, exact beyond 2**53, for a
    whole number; otherwise as a finite float. Anything else (a fraction, NaN,
    ±inf, a string, None, a value out of bounds) raises ``error`` naming
    ``name``, the bounds and the value."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:       # an int beyond the floats
        number = math.inf
    if whole and (isinstance(value, numbers.Integral) or number.is_integer()):
        number = int(value)
    if not ((isinstance(number, int) if whole else math.isfinite(number))
            and (low < number if above else low <= number) and number <= high):
        kind = "a whole number" if whole else "finite"
        left = "(" if above or low == -math.inf else "["
        right = ")" if high == math.inf else "]"
        raise error(f"{name} must be {kind}, in {left}{low}, {high}{right}, not {value}")
    return number


def near_far(near, far, where=""):
    """``(near, far)`` as floats if ``0 < near < far``, both finite; anything
    else raises ``InputError`` whose message starts with ``where``, the
    source of the values, and names the key."""
    near = bounded(f"{where}near", near, 0, above=True, error=InputError)
    return near, bounded(f"{where}far", far, near, above=True, error=InputError)


def rgb(name, value, error=ConfigurationError):
    """``value`` as a tuple of three finite floats in [0, 1]; anything else
    raises ``error`` naming ``name`` and the value."""
    try:
        color = tuple(bounded(name, c, 0, 1, error=error) for c in value)
    except (TypeError, error):
        color = ()
    if len(color) != 3:
        raise error(f"{name} must be an RGB triple of finite values in [0, 1], not {value!r}")
    return color
