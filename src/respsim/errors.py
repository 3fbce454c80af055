"""Exception hierarchy shared across the package, and the checks that admit
the inputs every layer shares: dipole chain axes, seeds, positive scalars,
arrays of reals, frequency grids, frequency triples, (lo, hi) windows and
file paths.

The CLI maps these onto exit codes: InputError -> 2, ResourceError -> 3,
StatisticalFailure -> 4.
"""

import math
import numbers
import os

import numpy as np

# the Cartesian dipole axes 0, 1, 2 by letter
AXIS_LETTERS = "xyz"


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
    """A finite real number, also as a float, that is not a bool."""
    if type(x) is float:  # the common case, ahead of the ABC checks
        return math.isfinite(x)
    try:
        return (isinstance(x, numbers.Real) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:
        return False


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


def check_path(path, what: str) -> str:
    """A file path as a str: a str or an os.PathLike of text; `what`
    names the path in the error."""
    if not isinstance(path, (str, os.PathLike)) or not isinstance(
            os.fspath(path), str):
        raise InputError(f"{what} {path!r} must be a str or an os.PathLike")
    return os.fspath(path)


def check_reals(values, what: str) -> np.ndarray:
    """A number or (nested) sequence of them as a float array, every entry
    is_finite_real; `what` names the entries in the error."""
    values = np.asarray(values, dtype=object)
    if not all(map(is_finite_real, values.ravel())):
        raise InputError(f"{what} must be finite real numbers")
    return values.astype(float)


def check_grid(grid) -> np.ndarray:
    """Frequency grid points as a 1-D float array, every entry
    is_finite_real; a bare number is one point."""
    grid = np.atleast_1d(check_reals(grid, "frequency grid points"))
    if grid.ndim != 1:
        raise InputError("a frequency grid must be a number or 1-D")
    return grid


def check_triples(triples) -> np.ndarray:
    """Frequency triples (w1, w2, w3) as a (K, 3) float array, every entry
    is_finite_real; a bare triple is one row."""
    triples = np.atleast_2d(check_reals(triples, "frequency triples"))
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise InputError("frequency triples must have three components")
    return triples


def check_windows(windows, count: int = None) -> tuple:
    """A tuple of float (lo, hi) pairs, edges is_finite_real and lo < hi,
    `count` of them (the nesting depth) when it is given."""
    try:
        windows = tuple((lo, hi) for lo, hi in windows)
    except (TypeError, ValueError):
        raise InputError("windows must be a sequence of (lo, hi) "
                         "pairs") from None
    for lo, hi in windows:
        if not (is_finite_real(lo) and is_finite_real(hi)
                and float(lo) < float(hi)):
            raise InputError(f"window [{lo}, {hi}) needs finite real edges, "
                             "lo < hi")
    if count is not None and len(windows) != count:
        raise InputError(f"window has nesting depth {len(windows)}, "
                         f"need {count}")
    return tuple((float(lo), float(hi)) for lo, hi in windows)
