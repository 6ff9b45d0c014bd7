"""Exception types, and the one owner of the checks on caller input.

Everything user-facing raises one of these so callers (and the CLI) can
distinguish "you configured it wrong" from "the data broke an assumption"
from "an iterative routine gave up".

Every array argument the package accepts passes ``finite_array`` (real,
finite, optionally of a given size) or ``as_rows`` (a batch of rows and
their responses) before any work or state change, and every count argument
passes ``check_positive_integer``; no other module converts such an
argument or tests it for finiteness itself.  (A checkpoint file is checked
by ``OnlineSparseSIR.load``, entry by entry.)
"""

import math

import numpy as np


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the float array ``v`` is finite.  A nan or
    infinite entry makes v'v (a sum of squares; ``np.vdot`` flattens ``v``)
    non-finite; only then does the elementwise test run, to accept finite
    entries whose squares overflow, for which ``np.vdot``, unlike ``@``,
    warns of nothing."""
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def real_array(v, what: str) -> np.ndarray:
    """``v`` as a float array; input that does not convert to floats, or
    complex input, whose imaginary part the conversion would drop, raises
    ``DataError`` saying that ``what`` must be real numbers."""
    try:
        v = np.asarray(v)
        if v.dtype.kind == "c":
            raise TypeError
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"{what} must be real numbers") from None


def finite_array(v, what: str, size: int | None = None) -> np.ndarray:
    """``v`` as a float array (``real_array``) of the same shape; an entry
    that is not finite (found by ``all_finite``), or, when ``size`` is
    given, another number of entries than ``size``, raises ``DataError``.
    A caller that wants a vector ravels the result."""
    v = real_array(v, what)
    if size is not None and v.size != size:
        raise DataError(f"expected {size} {what}, got {v.size}")
    if not all_finite(v):
        raise DataError(f"{what} must be finite")
    return v


def as_rows(X, y, what: str = "X") -> tuple[np.ndarray, np.ndarray]:
    """``X`` as a float (n, p) array and ``y`` as a float n-vector
    (``real_array``); any other shape, or a non-finite entry in either,
    raises ``DataError`` naming the batch as ``what`` and, for a non-finite
    entry, the first row that holds one."""
    X = real_array(X, what)
    y = real_array(y, "responses").ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise DataError(f"{what} must be (n, p) with one response per row")
    if not (all_finite(X) and all_finite(y)):
        row = int(np.argmin(np.isfinite(X).all(axis=1) & np.isfinite(y)))
        raise DataError(f"{what} row {row} holds a non-finite covariate or response")
    return X, y


def check_directions(d, p: int, n_slices: int) -> None:
    """Raise ``ConfigurationError`` unless 1 <= d <= min(p, H): the slice
    kernel of p features and H slices has rank at most min(p, H)."""
    if not 1 <= d <= min(p, n_slices):
        raise ConfigurationError(
            f"need 1 <= d <= min(p, H) = {min(p, n_slices)}, got {d}"
        )


def check_positive_integer(name: str, value) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is an integer of at
    least 1.  A bool or a float is refused too: a count given 2.5 would run
    as 2, or as a modulus at multiples of 5, and one given True as 1, while
    the caller's setting still says 2.5 or True."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and value >= 1):
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


class StreamsirError(Exception):
    """Base class for all package errors."""


class ConfigurationError(StreamsirError, ValueError):
    """A parameter combination that can never be valid (H < 1, d > min(p, H), ...)."""


class DataError(StreamsirError, ValueError):
    """Input data violates a precondition: wrong shape, non-finite values, ..."""


class DegenerateDataError(DataError):
    """Data is formally valid but carries no usable signal.

    Examples: constant warmup responses collapsing the slice grid, or a
    zero kernel matrix that leaves the eigen basis undefined.
    """


class EmptyStateError(StreamsirError, RuntimeError):
    """An aggregate was requested from a tracker that has seen no data."""


class ConvergenceError(StreamsirError, RuntimeError):
    """An iterative routine failed to converge: a solver exhausted its
    iteration budget before reaching tolerance, or a streaming recursion
    diverged (its coefficients no longer give a finite prediction)."""
