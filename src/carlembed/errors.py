"""Exception hierarchy and warnings, and the argument checks of every module.

Whether a value is an integer (a Python or numpy integer, never a bool,
passed on as an int), a finite real (never a bool, string or complex),
a complex number (a Python or numpy number, never a bool or string,
passed on as a complex), or of the dimension wanted is decided here
alone; a refusal is an InputError.
"""

import cmath
import math
import numbers
import operator

import numpy as np


class CarlembedError(Exception):
    """Base class for every error raised by this package."""


class InputError(CarlembedError, ValueError):
    """Invalid user-supplied data: bad dimensions, weights, or file contents."""


class UnsupportedError(CarlembedError):
    """The operation is not defined for the requested space or dimension."""


class SingularityError(CarlembedError):
    """A kernel denominator vanished to machine precision."""


class NumericError(CarlembedError):
    """A numerical routine failed to meet its accuracy contract."""


class KernelConditioningWarning(UserWarning):
    """A point lies so close to the boundary that kernel values are ill conditioned.

    Reproducing kernels grow like (1 - |z|^2)**-n, so points with
    1 - |z|^2 below roughly 1e-8 lose about half the significand.
    """


def _as_integer(value):
    """value as an int if it is an integer other than a bool (numpy integers too), else None."""
    try:
        return None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        return None


def _check_integer(name, value, low, high=None):
    """value as an int; InputError unless it is an integer in [low, high] (or >= low)."""
    i = _as_integer(value)
    if i is not None and low <= i and (high is None or i <= high):
        return i
    if high is not None:
        raise InputError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    kind = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
    raise InputError(f"{name} must be {kind}, got {value!r}")


def _finite_real(value):
    """A real number other than a bool that is finite as a double (float skips the ABC test)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (float, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the double range
        return False


# The number types one type test accepts; the SpacePoint coordinates the
# identity suites build by the thousand are Python and numpy complexes.
_PLAIN_NUMBERS = frozenset((int, float, complex, np.int64, np.float64, np.complex128))


def _as_complex(value):
    """value as a complex if it is a number other than a bool (numpy numbers too), else None.

    The common types take one type test; any other must be a
    numbers.Number and no bool.  A non-finite part is kept.
    """
    if type(value) not in _PLAIN_NUMBERS and (
            isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Number)):
        return None
    try:
        return complex(value)
    except (OverflowError, TypeError, ValueError):  # an integer past the double range
        return None


def _finite_complex(value):
    """_as_complex(value) if both its parts are finite, else None."""
    c = _as_complex(value)
    return c if c is not None and cmath.isfinite(c) else None


def _check_dim(what, dim, other, want):
    """InputError unless dim, the dimension of what, equals want, that of other."""
    if dim != want:
        raise InputError(f"{what} has dimension {dim}, {other} has {want}")
