"""Streaming slice statistics for sliced inverse regression.

The central object is a p x H cross-covariance between the covariate vector
and a one-hot slice indicator of the response: column h estimates
E[(x - E x) 1{y in slice h}].  Everything a batch SIR pass would compute from
the first t observations is recoverable from three running aggregates (count,
covariate sum, covariate-by-slice sum), so a single pass over the stream is
enough and each update costs O(pH).

The two sums live in one column-major p x (H + 1) array, ``block``: its
first H columns are the slice sums S (``cross_sum``) and its last column is
the covariate sum (``x_sum``); both names are views of the block.  The
factor W = (S - x_sum c^T / t) / t, c the slice counts, is always centered
at the current mean, so it is a set statistic of the sample (arrival order
does not matter).  It is never needed whole by the streaming path: each
product of ``KernelTracker`` with W (``times``, ``transpose_times``,
``kernel_times``, ``column_dot``) is one matrix-vector product with the
block, centered on the (H + 1)-sized side, so no p-sized mean or p x H
temporary is made.

Column-major storage makes the per-observation ``cross_sum[:, h] += x``,
``x_sum += x`` and every block product walk contiguous memory.  The layout
is an implementation detail, not part of the API.

Slice boundaries are frozen after warmup: cut points are empirical quantiles
of the warmup responses and never move again.  Intervals are right-closed,
(q_{h-1}, q_h].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DegenerateDataError,
    EmptyStateError,
    all_finite,
    as_rows,
    real_array,
)


def _as_response(y) -> float:
    """``y`` as a float; anything but one finite real number raises
    ``DataError``.  numpy before 2.3 converts a one-element array, so any
    other input than a float has its shape read first."""
    try:
        if not isinstance(y, float) and np.ndim(y):
            raise TypeError
        y = float(y)
    except (TypeError, ValueError):
        raise DataError(f"response must be one real number, got {y!r}") from None
    if not math.isfinite(y):
        raise DataError(f"response must be finite, got {y!r}")
    return y


class SliceGrid:
    """Fixed response-space partition into H slices.

    Parameters
    ----------
    cuts : array of shape (H - 1,)
        Strictly increasing interior cut points.  The outer boundaries are
        implicitly -inf and +inf.

    The grid also keeps a per-slice observation count so downstream
    consumers can recover slice frequencies without touching the stream.
    """

    def __init__(self, cuts: np.ndarray):
        cuts = np.asarray(cuts, dtype=float).ravel()
        if not np.all(np.isfinite(cuts)):
            raise DataError("cut points must be finite")
        if not np.all(np.diff(cuts) > 0):
            raise ConfigurationError("cut points must be strictly increasing")
        self.cuts = cuts
        self.counts = np.zeros(cuts.size + 1, dtype=np.int64)

    @property
    def n_slices(self) -> int:
        return self.counts.size

    @classmethod
    def from_warmup(cls, y, n_slices: int) -> "SliceGrid":
        """Build a grid from warmup responses.

        Cut points are the interior empirical quantiles at levels
        1/H, ..., (H-1)/H with the usual linear (midpoint-style)
        interpolation.  Duplicate quantiles mean the warmup responses
        cannot support H distinct slices, which raises
        ``DegenerateDataError``.
        """
        y = np.asarray(y, dtype=float).ravel()
        if n_slices < 1:
            raise ConfigurationError(f"need at least one slice, got {n_slices}")
        if y.size < n_slices:
            raise ConfigurationError(
                f"warmup has {y.size} responses, fewer than {n_slices} slices"
            )
        if not np.all(np.isfinite(y)):
            raise DataError("warmup responses must be finite")
        levels = np.arange(1, n_slices) / n_slices
        cuts = np.quantile(y, levels) if levels.size else np.empty(0)
        if np.unique(cuts).size != cuts.size:
            raise DegenerateDataError(
                "duplicate quantiles in warmup responses; "
                "fewer distinct values than requested slices"
            )
        return cls(cuts)

    def slice_of(self, y) -> int:
        """Index of the slice containing ``y`` (right-closed intervals)."""
        # number of cuts strictly below y (side="left"); ties go to the lower slice
        return int(self.cuts.searchsorted(_as_response(y)))


class KernelTracker:
    """Running sufficient statistics for the slice kernel matrix.

    Maintains, over the first t observations:

    * ``t``            observation count,
    * ``block``        the column-major p x (H + 1) array of the sums below,
    * ``cross_sum``    sum of x e(y)^T where e is the one-hot slice
                       indicator (p, H): the first H columns of ``block``,
    * ``x_sum``        sum of covariate vectors (p,): its last column.

    ``cross_sum`` and ``x_sum`` are views, so a loader fills them in place.
    The slice factor W (``slice_cov``, p x H) re-centers on demand: column h
    is (cross_sum[:, h] - counts[h] * x_sum / t) / t, which equals the batch
    quantity (1/t) sum_i (x_i - mean_t) 1{y_i in slice h} exactly.  The
    products with W read the sums in place and never form it; like W, they
    raise ``EmptyStateError`` before any observation.
    """

    def __init__(self, grid: SliceGrid, n_features: int):
        if n_features < 1:
            raise ConfigurationError(f"need at least one feature, got {n_features}")
        self.grid = grid
        self.n_features = int(n_features)
        self.t = 0
        self.block = np.zeros((n_features, grid.n_slices + 1), order="F")
        self.cross_sum = self.block[:, :-1]
        self.x_sum = self.block[:, -1]
        self.dense_builds = 0  # how many times a p x p matrix was materialized

    # -- updates ------------------------------------------------------------

    def check(self, x, y) -> tuple[np.ndarray, int]:
        """``x`` as a float p-vector and the slice index of ``y``; input that
        does not convert to floats or is complex (``real_array``), a vector of
        another length, a non-finite entry (found by ``all_finite``) or a
        response that is not one finite number raises ``DataError``.
        Changes no state."""
        x = real_array(x, "covariates").ravel()
        if x.size != self.n_features:
            raise DataError(
                f"expected covariate vector of length {self.n_features}, got {x.size}"
            )
        if not all_finite(x):
            raise DataError("covariates must be finite")
        return x, self.grid.slice_of(y)

    def absorb(self, x: np.ndarray, h: int) -> None:
        """Add the checked observation ``x`` of slice ``h`` (see ``check``)
        to the sums.  O(p) time."""
        self.t += 1
        self.x_sum += x
        self.cross_sum[:, h] += x
        self.grid.counts[h] += 1

    def update(self, x, y) -> int:
        """Check one observation, absorb it and return its slice index.
        Invalid input raises ``DataError`` before any state changes."""
        x, h = self.check(x, y)
        self.absorb(x, h)
        return h

    def replay(self, X, y) -> None:
        """Absorb a batch row by row (order does not affect the aggregates)."""
        X, y = as_rows(X, y)
        for xi, yi in zip(X, y):
            self.update(xi, yi)

    # -- derived quantities ---------------------------------------------------

    @property
    def mean(self) -> np.ndarray:
        if self.t == 0:
            return np.zeros(self.n_features)
        return self.x_sum / self.t

    def _observed(self) -> int:
        """t, or ``EmptyStateError`` before any observation: W divides by t."""
        if self.t == 0:
            raise EmptyStateError("slice statistics requested before any observation")
        return self.t

    @property
    def slice_cov(self) -> np.ndarray:
        """Centered slice cross-covariance W, p x H, as a new array laid out
        like the sums.

        Column h is the sample covariance between x and the indicator of
        slice h (up to the t/(t-1) convention; we divide by t).
        """
        block, t = self.block, self._observed()
        w = np.empty_like(block[:, :-1], order="F")
        np.multiply.outer(block[:, -1], self.grid.counts / t, out=w)
        np.subtract(block[:, :-1], w, out=w)
        w /= t
        return w

    # -- products with W, never formed -------------------------------------------

    def times(self, a: np.ndarray) -> np.ndarray:
        """W a for a of shape (H,) or (H, k): the block times
        [a / t; -(c . a) / t^2]."""
        t = self._observed()
        a = a / t  # 1/t scales the H-sized operand, not the p-sized result
        coef = np.empty((a.shape[0] + 1,) + a.shape[1:])
        coef[:-1] = a
        coef[-1] = self.grid.counts.dot(a)
        coef[-1] /= -t
        return self.block.dot(coef)

    def transpose_times(self, v: np.ndarray) -> np.ndarray:
        """W' v for v of shape (p,) or (p, k): [S' v; x_sum' v] centered on
        that (H + 1)-sized side."""
        t = self._observed()
        r = self.block.T.dot(v)
        out = r[:-1]
        out -= np.multiply.outer(self.grid.counts, r[-1] / t)
        out /= t
        return out

    def kernel_times(self, v: np.ndarray, scale: float) -> np.ndarray:
        """scale * W (W' v) for a p-vector v, (p,), in two products with the
        block (the slice kernel is W W' / H): [S' v; x_sum' v] is centered
        and scaled on the (H + 1)-sized side, then made [g; -(c . g) / t] in
        place, so nothing p-sized is built besides the result."""
        t, counts = self._observed(), self.grid.counts
        r = self.block.T.dot(v)
        g = r[:-1]
        g -= counts * (r[-1] / t)
        g *= scale / (t * t)
        r[-1] = counts.dot(g) / -t
        return self.block.dot(r)

    def column_dot(self, h: int, vectors: np.ndarray) -> list[float]:
        """W[:, h]' v_j for each column v_j of a (p, d) ``vectors``, as d
        floats, from two dots with the block's columns: (S_h' v_j -
        (c_h / t) (x_sum' v_j)) / t; the column is never formed, and the
        d-sized arithmetic runs on Python floats."""
        t = self._observed()
        ratio = self.grid.counts.item(h) / t
        sums = self.block[:, h].dot(vectors).tolist()
        return [(s - ratio * m) / t for s, m in zip(sums, self.x_sum.dot(vectors).tolist())]

    def column(self, h: int) -> np.ndarray:
        """Column h of W, (p,)."""
        block, t = self.block, self._observed()
        return (block[:, h] - (self.grid.counts[h] / t) * block[:, -1]) / t

    def kernel_matrix(self) -> np.ndarray:
        """Dense p x p slice kernel: (1/H) sum_h c_h c_h^T, exactly symmetric.
        The 1/H is applied as 1/sqrt(H) to the p x H factor, H/p of the work
        of dividing the p x p product."""
        if self.t == 0:
            raise EmptyStateError("kernel matrix requested before any observation")
        c = self.slice_cov
        self.dense_builds += 1
        c *= 1.0 / math.sqrt(self.grid.n_slices)
        return c @ c.T  # numpy forms this product with syrk: exactly symmetric
