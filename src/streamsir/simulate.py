"""Synthetic single- and double-index regression streams, plus the subspace metric.

Three generator models share one covariate law: x is mean-zero Gaussian with
an order-1 autoregressive covariance, cov(x_i, x_j) = rho^|i-j|.  The response
depends on x only through one or two sparse linear indices, so the true
dimension-reduction subspace is known exactly and any estimate can be scored
against it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError

_MIN_FEATURES = {1: 2, 2: 10, 3: 7}


@dataclass(frozen=True)
class SimModelSpec:
    """Configuration of one synthetic generator.

    model_id 1: y = b1' x + eps                      (one direction)
    model_id 2: y = sin(b2' x) * exp(b2' x) + eps    (one direction)
    model_id 3: y = sign(b3' x) * |2 + b4' x / 4|^3 + eps   (two directions)
    """

    model_id: int
    n_features: int
    rho: float = 0.3
    noise_sd: float = 1.0

    def __post_init__(self):
        if self.model_id not in (1, 2, 3):
            raise ConfigurationError(f"unknown model id {self.model_id}")
        if self.n_features < _MIN_FEATURES[self.model_id]:
            raise ConfigurationError(
                f"model {self.model_id} needs at least "
                f"{_MIN_FEATURES[self.model_id]} features, got {self.n_features}"
            )
        if not -1.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must lie in (-1, 1), got {self.rho}")
        if not self.noise_sd >= 0:  # a NaN fails too
            raise ConfigurationError(f"noise_sd must be non-negative, got {self.noise_sd}")

    @property
    def n_directions(self) -> int:
        return 2 if self.model_id == 3 else 1


def true_betas(spec: SimModelSpec) -> np.ndarray:
    """True index coefficients, one column per direction (0/1 entries).

    Active positions (1-based): model 1 -> {1, 2}; model 2 -> {2, 4, 6, 8, 10};
    model 3 -> {1, 2, 3, 4} and {5, 6, 7}.
    """
    p = spec.n_features
    if spec.model_id == 1:
        b = np.zeros((p, 1))
        b[[0, 1], 0] = 1.0
        return b
    if spec.model_id == 2:
        b = np.zeros((p, 1))
        b[[1, 3, 5, 7, 9], 0] = 1.0
        return b
    b = np.zeros((p, 2))
    b[[0, 1, 2, 3], 0] = 1.0
    b[[4, 5, 6], 1] = 1.0
    return b


def sample(spec: SimModelSpec, n: int, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw n observations; returns (X, y) with X of shape (n, p).

    The AR(1) covariance is sampled by the exact recursion
    x_1 = z_1, x_j = rho x_{j-1} + sqrt(1 - rho^2) z_j with z iid standard
    normal, which reproduces cov = rho^|i-j| without forming a p x p factor;
    x overwrites z in place, so a draw allocates one n x p array.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(rng)
    p = spec.n_features
    x = rng.standard_normal((n, p))  # z, overwritten column by column
    scale = np.sqrt(1.0 - spec.rho**2)
    for j in range(1, p):
        x[:, j] = spec.rho * x[:, j - 1] + scale * x[:, j]

    betas = true_betas(spec)
    eps = spec.noise_sd * rng.standard_normal(n)
    if spec.model_id == 1:
        y = x @ betas[:, 0] + eps
    elif spec.model_id == 2:
        s = x @ betas[:, 0]
        y = np.sin(s) * np.exp(s) + eps
    else:
        s3 = x @ betas[:, 0]
        s4 = x @ betas[:, 1]
        y = np.sign(s3) * np.abs(2.0 + s4 / 4.0) ** 3 + eps
    return x, y


def _orthonormal_basis(B: np.ndarray, label: str) -> np.ndarray | None:
    """Thin-QR orthonormalization; None if columns are linearly dependent."""
    q, r = np.linalg.qr(B)
    diag = np.abs(np.diag(r))
    tol = max(B.shape) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    if diag.size == 0 or diag.min() <= max(tol, 1e-12 * max(1.0, diag.max())):
        warnings.warn(f"{label} matrix is rank deficient; distance forced to 1")
        return None
    return q


def subspace_distance(B: np.ndarray, B_hat: np.ndarray) -> float:
    """Distance between the column spans of two p x d matrices.

    Both arguments are column-orthonormalized first, then the distance is
    1 - |det(Q_B' Q_Bhat)|.  It is 0 iff the spans coincide, 1 iff some
    direction of one span is orthogonal to all of the other, and invariant
    to column sign, permutation, and any invertible recombination.
    Rank-deficient input yields distance 1.0 (with a warning).
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    B_hat = np.atleast_2d(np.asarray(B_hat, dtype=float))
    if B.ndim != 2 or B_hat.ndim != 2:
        raise DataError("direction matrices must be 2-d")
    if B.shape[0] == 1 and B.shape[1] > 1:
        B = B.T
    if B_hat.shape[0] == 1 and B_hat.shape[1] > 1:
        B_hat = B_hat.T
    if B.shape[0] != B_hat.shape[0]:
        raise DataError(
            f"direction matrices disagree on feature count: {B.shape[0]} vs {B_hat.shape[0]}"
        )
    if B.shape[1] != B_hat.shape[1]:
        raise DataError(
            f"direction matrices disagree on rank: {B.shape[1]} vs {B_hat.shape[1]}"
        )
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(B_hat))):
        raise DataError("direction matrices must be finite")

    qb = _orthonormal_basis(B, "reference")
    qh = _orthonormal_basis(B_hat, "estimate")
    if qb is None or qh is None:
        return 1.0
    overlap = abs(float(np.linalg.det(qb.T @ qh)))
    return float(min(1.0, max(0.0, 1.0 - overlap)))
