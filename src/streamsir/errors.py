"""Exception types, and the input checks, shared across the package.

Everything user-facing raises one of these so callers (and the CLI) can
distinguish "you configured it wrong" from "the data broke an assumption"
from "an iterative routine gave up".
"""

import math

import numpy as np


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the float vector ``v`` is finite.  A nan or
    infinite entry makes v'v (a sum of squares) non-finite; only then does
    the elementwise test run, to accept finite entries whose squares
    overflow, for which ``np.vdot``, unlike ``@``, warns of nothing."""
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def as_rows(X, y, what: str = "X") -> tuple[np.ndarray, np.ndarray]:
    """``X`` as a float (n, p) array and ``y`` as a float n-vector; any other
    shape raises ``DataError`` naming the batch as ``what``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise DataError(f"{what} must be (n, p) with one response per row")
    return X, y


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
