"""Online l1-style coefficient estimation by gradient descent with
periodic truncation.

Each direction keeps a coefficient vector updated by plain least-mean-squares
steps; every ``period`` steps the coordinates are pulled toward zero by
``gravity * rate * period`` and clipped to exactly zero when they land inside
that band (coordinates beyond ``threshold`` are exempt).  Over many steps this
behaves like an l1 penalty of strength gravity/2 on the squared-error loss
while touching only O(p) memory.

The p x d coefficient matrix is stored column-major (Fortran order), so the
gradient step and truncation run over contiguous length-p columns.  The
layout is an implementation detail, not part of the API.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DataError, all_finite, real_array


def active_features(betas: np.ndarray) -> int:
    """Number of features with any nonzero coefficient: the rows of the
    p x d ``betas`` that are not all zero.  The one support count of every
    estimator; at d = 1 it is the number of nonzero coefficients."""
    return int(np.count_nonzero(np.any(betas != 0.0, axis=1)))


def truncate(v, shrink: float, threshold: float = math.inf):
    """Pull values toward zero by ``shrink``, zeroing the band [-shrink, shrink].

    For 0 <= v <= threshold returns max(0, v - shrink); for
    -threshold <= v < 0 returns min(0, v + shrink); values beyond the
    threshold in magnitude pass through untouched.  Works elementwise on
    arrays and preserves scalar inputs.  Either bound may be inf; a NaN one
    raises ``ConfigurationError``, as a negative one does.
    """
    _check_non_negative(shrink=shrink, threshold=threshold)
    out, _ = _truncate(np.asarray(v, dtype=float), shrink, threshold)
    return float(out) if np.ndim(v) == 0 else out


def _check_non_negative(**values) -> None:
    """Raise ``ConfigurationError`` for the first value that is negative or
    NaN; ``not v >= 0`` is true for both, where ``v < 0`` misses NaN."""
    for name, value in values.items():
        if not value >= 0:
            raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def _truncate(arr: np.ndarray, shrink: float, threshold: float):
    """``truncate`` without the argument checks, plus how many nonzero
    entries it set to zero.  Everything is built from one magnitude."""
    mag = np.abs(arr)
    cut = mag <= min(shrink, threshold)  # the entries set to zero
    out = np.maximum(mag - shrink, 0.0)
    out *= np.sign(arr)
    out = np.where(mag <= threshold, out, arr)  # keeps arr's memory layout
    return out, int(np.count_nonzero(cut) - np.count_nonzero(mag == 0.0))


class TruncatedGradient:
    """Streaming sparse linear fit of d targets on a shared covariate vector.

    Parameters
    ----------
    n_features, n_targets : coefficient matrix shape (p, d).
    rate : gradient step size (gamma).  Must lie in [0, 1).
    gravity : per-step truncation strength (g); 0 disables truncation.
    threshold : coordinates above this magnitude are never truncated.
    period : truncation runs every ``period`` steps with the accumulated
        shrink gravity * rate * period.

    Coefficients start at zero.  One ``update(x, targets)`` call checks its
    inputs and runs ``advance``: the step counter increment, truncation when
    the counter is a multiple of ``period``, then one gradient step
    b_j += 2 * rate * (target_j - b_j' x) * x for every target j.
    ``betas`` stays column-major through both.
    """

    def __init__(
        self,
        n_features: int,
        n_targets: int = 1,
        *,
        rate: float,
        gravity: float = 0.0,
        threshold: float = math.inf,
        period: int = 10,
    ):
        if n_features < 1 or n_targets < 1:
            raise ConfigurationError("need at least one feature and one target")
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"rate must lie in [0, 1), got {rate}")
        _check_non_negative(gravity=gravity, threshold=threshold)
        if period < 1:
            raise ConfigurationError("period must be a positive integer")
        self.n_features = int(n_features)
        self.n_targets = int(n_targets)
        self.rate = float(rate)
        self.gravity = float(gravity)
        self.threshold = float(threshold)
        self.period = int(period)
        self.betas = np.zeros((n_features, n_targets), order="F")
        self.step = 0
        self.truncation_zeros = 0  # coordinates zeroed across all truncations

    def update(self, x, targets) -> None:
        """One step.  x and targets are checked (real, shape, ``all_finite``)
        before any state changes, as the pipeline's kernel stage checks x:
        the stage is public and can be driven on its own."""
        x = real_array(x, "covariates").ravel()
        if x.size != self.n_features:
            raise DataError(
                f"expected covariate vector of length {self.n_features}, got {x.size}"
            )
        targets = real_array(targets, "targets").ravel()
        if targets.size != self.n_targets:
            raise DataError(
                f"expected {self.n_targets} targets, got {targets.size}"
            )
        if not (all_finite(x) and all_finite(targets)):
            raise DataError("inputs must be finite")
        self.advance(x, targets.tolist(), self.betas.T.dot(x).tolist())

    def advance(self, x: np.ndarray, targets, prediction) -> None:
        """``update`` without the checks, for a float p-vector ``x`` and two
        sequences of d floats: the ``targets`` and the ``prediction`` b_j' x
        under the current betas, which a truncating step computes again.
        Column j of ``betas`` grows in place by ((target_j - prediction_j)
        2 rate) x."""
        self.step += 1
        if self.gravity > 0.0 and self.step % self.period == 0:
            self.betas, zeroed = _truncate(
                self.betas, self.gravity * self.rate * self.period, self.threshold
            )
            self.truncation_zeros += zeroed
            prediction = self.betas.T.dot(x).tolist()
        gain = 2.0 * self.rate
        betas = self.betas
        for j, (target, guess) in enumerate(zip(targets, prediction)):
            column = betas[:, j]
            column += ((target - guess) * gain) * x

    def nonzero_count(self) -> int:
        """``active_features`` of the coefficients."""
        return active_features(self.betas)

