"""Exception hierarchy shared across the package, and the checks that admit
the inputs every layer shares: dipole chain axes, seeds and positive scalars.

The CLI maps these onto exit codes: InputError -> 2, ResourceError -> 3,
StatisticalFailure -> 4.
"""

import math
import numbers


class RespsimError(Exception):
    """Base class for package errors."""


class InputError(RespsimError):
    """Invalid or inconsistent input (bad file, broken symmetry, bad window)."""


class ResourceError(RespsimError):
    """A configured resource cap was exceeded (qubit count, polynomial degree)."""


class StatisticalFailure(RespsimError):
    """A stochastic protocol ended without a usable result."""


def is_int(x) -> bool:
    """An integer that is not a bool (bool subclasses int)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_finite_real(x) -> bool:
    """A finite real number that is not a bool."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))


def check_axes(axes, count: int = None) -> tuple:
    """A dipole chain's axes as a tuple of ints in {0, 1, 2} (a bare value
    is a chain of one), `count` of them when it is given."""
    try:
        axes = tuple(axes)
    except TypeError:
        axes = (axes,)
    if not all(is_int(a) and 0 <= a <= 2 for a in axes):
        raise InputError("axes must be integers in {0, 1, 2}")
    if count is not None and len(axes) != count:
        raise InputError(f"need {count} axes, got {len(axes)}")
    return tuple(map(int, axes))


def check_seed(seed) -> int:
    """A seed as an int: an integer >= 0."""
    if not (is_int(seed) and seed >= 0):
        raise InputError("seed must be non-negative and an integer")
    return int(seed)


def check_positive(name: str, x) -> None:
    """Refuses x unless it is a positive finite real number."""
    if not (is_finite_real(x) and x > 0):
        raise InputError(f"{name} must be positive and finite")
