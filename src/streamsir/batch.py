"""Batch reference estimators: classical SIR and its sparse (lasso) variant.

These are the offline counterparts of the streaming pipeline.  They see the
whole sample at once, slice it by sorted response into (near-)equal-count
groups, and work with the between-slice mean matrix.  They serve two roles:
final-quality baselines in benchmarks, and ground truth for cross-checking
the streaming estimators in tests.

Conventions: X is (n, p) with one observation per row and is centered
internally.  n = c * H divisible slicing is the clean case; a remainder is
folded into the last slice.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    DegenerateDataError,
    as_rows,
    check_directions,
    finite_array,
)
from .pipeline import unit_columns


def dense_top_eigen(S: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-d eigenpairs of a symmetric matrix, eigenvalues descending.

    Raises DataError if S is not (numerically) symmetric, so silent use on
    an unsymmetrized product is impossible, or if ``errors.finite_array``
    refuses it.
    """
    S = finite_array(S, "matrix")
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DataError(f"expected a square matrix, got shape {S.shape}")
    scale = max(1.0, float(np.abs(S).max()) if S.size else 0.0)
    if float(np.abs(S - S.T).max()) > 1e-10 * scale:
        raise DataError("matrix is not symmetric")
    if not 1 <= d <= S.shape[0]:
        raise ConfigurationError(f"need 1 <= d <= {S.shape[0]}, got {d}")
    vals, vecs = np.linalg.eigh((S + S.T) / 2.0)
    order = np.argsort(vals)[::-1][:d]
    return vals[order], vecs[:, order]


def _slice_assignments(y: np.ndarray, n_slices: int) -> np.ndarray:
    """Slice label per observation: sort by y, split into equal-count groups.

    The first H-1 slices hold floor(n/H) observations each; any remainder
    joins the last slice.  Ties in y are resolved by stable sort order.
    """
    n = y.size
    if n < n_slices:
        raise ConfigurationError(f"{n} observations cannot fill {n_slices} slices")
    c = n // n_slices
    order = np.argsort(y, kind="stable")
    labels = np.empty(n, dtype=np.int64)
    for h in range(n_slices):
        hi = (h + 1) * c if h < n_slices - 1 else n
        labels[order[h * c: hi]] = h
    return labels


def slice_mean_matrix(X, y, n_slices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centered slice means and memberships.

    Returns (M_H, labels, Xc): M_H is (p, H) whose column h is the mean of the
    centered covariates in slice h; labels is the per-row slice index; Xc the
    centered covariates.
    """
    X, y = as_rows(X, y)
    labels = _slice_assignments(y, n_slices)
    Xc = X - X.mean(axis=0)
    M = np.zeros((X.shape[1], n_slices))
    for h in range(n_slices):
        M[:, h] = Xc[labels == h].mean(axis=0)
    return M, labels, Xc


def sir_matrix(X, y, n_slices: int) -> np.ndarray:
    """Between-slice covariance estimate: (1/H) sum_h m_h m_h^T."""
    M, _, Xc = slice_mean_matrix(X, y, n_slices)
    return _between_slice_cov(M, Xc, n_slices)


def _between_slice_cov(M: np.ndarray, Xc: np.ndarray, n_slices: int) -> np.ndarray:
    """``sir_matrix`` from a ``slice_mean_matrix`` result."""
    _check_slice_means(M, Xc)
    G = M @ M.T  # numpy forms this product with syrk: exactly symmetric
    G /= n_slices
    return G


def _check_slice_means(M: np.ndarray, Xc: np.ndarray) -> None:
    """Raise ``DegenerateDataError`` if every slice mean in ``M`` vanishes
    against the scale of the centered covariates ``Xc``."""
    scale = max(1.0, float(np.abs(Xc).max()) if Xc.size else 0.0)
    if float(np.abs(M).max()) <= 1e-12 * scale:
        raise DegenerateDataError(
            "all slice means vanish; between-slice covariance is zero"
        )


def batch_sir(X, y, n_slices: int, d: int) -> np.ndarray:
    """Classical sliced inverse regression directions, (p, d), unit columns.

    Solves the generalized eigenproblem G v = lam Cov(x) v for the top d
    eigenvectors.  When p >= n the sample covariance is singular and a small
    ridge (1e-6 * trace / p) is added; below that, a genuinely singular
    covariance raises rather than silently regularizing.

    The solve is LAPACK's ``sygvd`` reduction written out in numpy: with
    Cov = L L' (Cholesky) and G = M M' / H, the eigenvectors w of
    Z Z' / H, Z = L^-1 M, give v = L'^-1 w.  ``np.linalg.eigh`` runs the
    same ``syevd`` as ``sygvd``.  Z Z' rounds differently from the
    L^-1 G L'^-1 of ``sygst``, so a column can come out with the opposite
    sign to ``scipy.linalg.eigh(G, Cov)``'s; up to sign the two agree to
    about 1e-15.
    """
    M, _, Xc = slice_mean_matrix(X, y, n_slices)
    n, p = Xc.shape
    check_directions(d, p, n_slices)
    _check_slice_means(M, Xc)
    cov = Xc.T @ Xc / n
    if p >= n:
        cov = ridged(cov)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DegenerateDataError(
            "sample covariance is singular; not enough observations for p features"
        )
    Z = np.linalg.solve(L, M)
    reduced = Z @ Z.T  # syrk, as for G: exactly symmetric
    reduced /= n_slices
    vals, vecs = np.linalg.eigh(reduced)
    order = np.argsort(vals)[::-1][:d]
    return unit_columns(np.linalg.solve(L.T, vecs[:, order]))


def ridged(cov: np.ndarray) -> np.ndarray:
    """``cov`` plus the ridge 1e-6 * trace / p on its diagonal, as a new array;
    batch SIR and the dense online baseline both regularize with it."""
    p = cov.shape[0]
    return cov + (1e-6 * np.trace(cov) / p) * np.eye(p)


# -- sparse variant -----------------------------------------------------------


def lasso_sir_targets(
    X, y, n_slices: int, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pseudo-response construction for the sparse batch estimator.

    Returns (targets, eta, lams, G):

    * ``G``       the between-slice covariance (p, p),
    * ``eta``     its top-d eigenvectors (p, d), ``lams`` the eigenvalues,
    * ``targets`` an (n, d) matrix whose row i is m_{h(i)}' eta / lam, the
      slice-mean projection of observation i's slice, one column per
      direction.

    Two identities tie the pieces together when n is a multiple of H:
    G @ eta == eta * lams and (1/n) Xc' targets == eta (up to roundoff).
    Regressing each target column on Xc therefore recovers a basis of the
    same subspace, and an l1 penalty on that regression yields sparse
    directions.
    """
    return _lasso_targets(*slice_mean_matrix(X, y, n_slices), n_slices, d)


def _lasso_targets(M, labels, Xc, n_slices: int, d: int):
    """``lasso_sir_targets`` from a ``slice_mean_matrix`` result."""
    G = _between_slice_cov(M, Xc, n_slices)
    lams, eta = dense_top_eigen(G, d)
    if lams[min(d, lams.size) - 1] <= 1e-12:
        raise DegenerateDataError(
            "between-slice covariance has rank below the requested d"
        )
    proj = M.T @ eta / lams  # (H, d), row h is m_h' eta / lam
    targets = proj[labels]
    return targets, eta, lams, G


# ``lasso_coordinate_descent`` stops once its duality gap is below this, and
# gives up after this many sweeps.
_LASSO_TOL = 1e-8
_LASSO_MAX_SWEEPS = 100_000


def lasso_coordinate_descent(X: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    """Cyclic coordinate descent for (1/2n) ||y - X b||^2 + penalty * ||b||_1.

    Runs until the duality gap drops below ``_LASSO_TOL`` (for penalty 0,
    until the gradient's sup-norm does).  Raises ConvergenceError with the
    last gap if ``_LASSO_MAX_SWEEPS`` sweeps do not get there.  A batch that
    ``errors.as_rows`` refuses raises ``DataError``, and a negative or NaN
    penalty ``ConfigurationError``, before the first sweep.
    """
    X, y = as_rows(X, y)
    if not penalty >= 0:  # a NaN penalty makes every gap NaN
        raise ConfigurationError(f"penalty must be non-negative, got {penalty!r}")
    return _coordinate_descent(X, y, penalty)


def _coordinate_descent(X: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    """``lasso_coordinate_descent`` without the checks, for a float (n, p)
    ``X``, a float n-vector ``y`` and a penalty of at least 0.  ``y`` is
    contiguous, as the checks leave it: a strided one may round the dot
    products differently."""
    n, p = X.shape
    col_sq = (X * X).sum(axis=0) / n
    beta = np.zeros(p)
    resid = y - X @ beta

    def gap() -> float:
        grad = X.T @ resid / n
        if penalty == 0.0:
            return float(np.abs(grad).max())
        # rescale the residual into the dual-feasible set, then primal - dual
        gmax = float(np.abs(grad).max())
        scale = 1.0 if gmax <= penalty else penalty / gmax
        theta = resid * (scale / n)
        primal = 0.5 * float(resid @ resid) / n + penalty * float(np.abs(beta).sum())
        dual = float(theta @ y) - 0.5 * n * float(theta @ theta)
        return primal - dual

    for _ in range(_LASSO_MAX_SWEEPS):
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = old * col_sq[j] + float(X[:, j] @ resid) / n
            new = np.sign(rho) * max(0.0, abs(rho) - penalty) / col_sq[j]
            if new != old:
                beta[j] = new
                resid += X[:, j] * (old - new)
        if gap() <= _LASSO_TOL:
            return beta
    raise ConvergenceError(
        f"coordinate descent not converged after {_LASSO_MAX_SWEEPS} sweeps "
        f"(gap {gap():.3e}, tol {_LASSO_TOL:.1e})"
    )


def batch_lasso_sir(X, y, n_slices: int, d: int) -> np.ndarray:
    """Sparse batch directions via l1-penalized regression on slice targets.

    Direction i's regression runs ``lasso_coordinate_descent`` with the
    penalty sqrt(log(p) / (n * lam_i)).  Returns the raw (p, d) sparse
    coefficient matrix; callers normalize if they need unit columns.
    """
    M, labels, Xc = slice_mean_matrix(X, y, n_slices)
    n, p = Xc.shape
    check_directions(d, p, n_slices)
    targets, eta, lams, _ = _lasso_targets(M, labels, Xc, n_slices, d)
    mus = np.sqrt(np.log(p) / (n * lams))
    B = np.empty((p, d))
    for i in range(d):
        B[:, i] = _coordinate_descent(Xc, targets[:, i].copy(), float(mus[i]))
    return B
