"""Batch reference estimators: dense eigensolver, classical and sparse SIR."""

import re

import numpy as np
import pytest

from streamsir import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    DegenerateDataError,
    EigenTracker,
    KernelTracker,
    SimModelSpec,
    SliceGrid,
    TrackerConfig,
    batch_lasso_sir,
    batch_sir,
    dense_top_eigen,
    lasso_coordinate_descent,
    lasso_sir_targets,
    sample,
    sir_matrix,
    subspace_distance,
    true_betas,
)
from streamsir import batch
from streamsir.batch import slice_mean_matrix


# -- dense eigensolver ------------------------------------------------------------


def test_diagonal_eigenpairs():
    vals, vecs = dense_top_eigen(np.diag([3.0, 2.0, 1.0]), 2)
    np.testing.assert_allclose(vals, [3.0, 2.0])
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, :2], atol=1e-12)


def test_rotation_preserves_spectrum():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    diag = np.diag([9.0, 5.0, 2.0, 1.0, 0.5])
    vals, vecs = dense_top_eigen(q @ diag @ q.T, 3)
    np.testing.assert_allclose(vals, [9.0, 5.0, 2.0], atol=1e-10)
    for i in range(3):
        overlap = abs(vecs[:, i] @ q[:, i])
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_eigen_residuals_on_random_psd():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((30, 30))
    S = A @ A.T
    vals, vecs = dense_top_eigen(S, 5)
    for i in range(5):
        resid = np.linalg.norm(S @ vecs[:, i] - vals[i] * vecs[:, i])
        assert resid < 1e-8
    assert np.all(np.diff(vals) <= 0)


def test_eigen_input_validation():
    with pytest.raises(DataError):
        dense_top_eigen(np.arange(6.0).reshape(2, 3), 1)
    asym = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DataError):
        dense_top_eigen(asym, 1)
    with pytest.raises(ConfigurationError):
        dense_top_eigen(np.eye(3), 4)
    with pytest.raises(ConfigurationError):
        dense_top_eigen(np.eye(3), 0)


# -- slicing ------------------------------------------------------------


def test_remainder_goes_to_the_last_slice():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((23, 4))
    y = rng.standard_normal(23)
    _, labels, _ = slice_mean_matrix(X, y, 5)
    np.testing.assert_array_equal(np.bincount(labels), [4, 4, 4, 4, 7])
    # members of lower slices have smaller responses
    assert y[labels == 0].max() <= y[labels == 4].min()


def test_tied_responses_slice_by_row_order():
    X = np.zeros((8, 2))
    y = np.zeros(8)
    _, labels, _ = slice_mean_matrix(X, y, 4)
    np.testing.assert_array_equal(labels, [0, 0, 1, 1, 2, 2, 3, 3])


# -- classical SIR ------------------------------------------------------------


def test_sir_recovers_model_one_directions():
    # frozen reference level for this cell: mean distance 0.0065
    reps = []
    beta = true_betas(SimModelSpec(1, 20))
    for seed in range(10):
        X, y = sample(SimModelSpec(1, 20), 1000, rng=1000 + seed)
        B = batch_sir(X, y, 10, 1)
        reps.append(subspace_distance(beta, B))
    assert abs(float(np.mean(reps)) - 0.0065) <= 0.01


def test_sir_finds_nothing_in_a_null_model():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((1000, 20))
    y = rng.standard_normal(1000)  # independent of X
    B = batch_sir(X, y, 10, 1)
    beta = np.zeros((20, 1))
    beta[0, 0] = 1.0
    assert subspace_distance(beta, B) > 0.5


def test_vanishing_between_slice_covariance_raises():
    # every slice holds the same +/- pattern, so each slice mean equals
    # the global mean and the between-slice covariance is exactly zero
    v1 = np.array([1.0, 2.0, -0.5])
    v2 = np.array([-2.0, 0.5, 1.5])
    block = np.vstack([v1, v2, -v1, -v2])
    X = np.vstack([block] * 5)
    y = np.arange(20.0)
    with pytest.raises(DegenerateDataError):
        sir_matrix(X, y, 5)
    with pytest.raises(DegenerateDataError):
        batch_sir(X, y, 5, 1)


def test_singular_covariance_below_p_equals_n_raises():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 6))
    X[:, 3] = X[:, 0]  # exact collinearity, n > p so no automatic ridge
    y = X[:, 0] + rng.standard_normal(30)
    with pytest.raises(DegenerateDataError):
        batch_sir(X, y, 5, 1)


def test_sir_unit_columns_and_validation():
    X, y = sample(SimModelSpec(1, 8), 200, rng=5)
    B = batch_sir(X, y, 5, 2)
    np.testing.assert_allclose(np.linalg.norm(B, axis=0), 1.0, atol=1e-12)
    with pytest.raises(ConfigurationError):
        batch_sir(X, y, 5, 6)  # d > H
    with pytest.raises(DataError):
        batch_sir(X[:10], y, 5, 1)


@pytest.mark.parametrize("p,n", [(20, 200), (200, 1000), (20, 15), (200, 150)])
def test_sir_directions_solve_the_generalized_eigenproblem(p, n):
    # G v = lam Cov v, with Cov ridged when p >= n (the last two cases).
    # The bound, fixed from the backward error of a Cholesky reduction and
    # not from a measurement: p eps cond(Cov) (|G| + lam |Cov|) for a unit v.
    X, y = sample(SimModelSpec(3, p), n, rng=6)
    n_slices, d = (10, 4) if n > 100 else (5, 3)
    B = batch_sir(X, y, n_slices, d)
    G = sir_matrix(X, y, n_slices)
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / n
    if p >= n:
        cov = batch.ridged(cov)
    lams = [float(v @ G @ v) / float(v @ cov @ v) for v in B.T]
    scale = p * np.finfo(float).eps * np.linalg.cond(cov)
    for lam, v in zip(lams, B.T):
        residual = np.linalg.norm(G @ v - lam * (cov @ v))
        assert residual <= scale * (np.linalg.norm(G, 2) + lam * np.linalg.norm(cov, 2))
    assert lams == sorted(lams, reverse=True)
    assert lams[-1] > 0.0


@pytest.mark.parametrize("d", [0, 6])
def test_batch_and_streaming_refuse_the_same_d_alike(d):
    X, y = sample(SimModelSpec(1, 8), 200, rng=5)
    kernel = KernelTracker(SliceGrid.from_warmup(y, 5), 8)
    kernel.replay(X, y)
    for fit in (
        lambda: batch_sir(X, y, 5, d),
        lambda: batch_lasso_sir(X, y, 5, d),
        lambda: EigenTracker.from_kernel(kernel, d, TrackerConfig()),
    ):
        with pytest.raises(ConfigurationError, match=re.escape(f"min(p, H) = 5, got {d}")):
            fit()


@pytest.mark.parametrize("estimator", [batch_sir, lasso_sir_targets, batch_lasso_sir])
def test_each_estimator_checks_and_slices_the_sample_once(monkeypatch, estimator):
    calls = {}
    for name in ("as_rows", "_slice_assignments"):
        original = getattr(batch, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(batch, name, counted)
    X, y = sample(SimModelSpec(1, 8), 200, rng=5)
    estimator(X, y, 5, 1)
    assert calls == {"as_rows": 1, "_slice_assignments": 1}


# -- slice-target construction ------------------------------------------------------------


def test_target_identities():
    # n a multiple of H, so the between-slice eigenbasis reproduces
    # itself through the constructed regression targets
    X, y = sample(SimModelSpec(3, 10), 200, rng=6)
    targets, eta, lams, G = lasso_sir_targets(X, y, 5, 2)
    np.testing.assert_allclose(G @ eta, eta * lams, atol=1e-8)
    Xc = X - X.mean(axis=0)
    np.testing.assert_allclose(Xc.T @ targets / 200, eta, atol=1e-8)


def test_targets_are_constant_within_slices():
    X, y = sample(SimModelSpec(1, 6), 120, rng=7)
    targets, _, _, _ = lasso_sir_targets(X, y, 4, 1)
    _, labels, _ = slice_mean_matrix(X, y, 4)
    for h in range(4):
        assert np.ptp(targets[labels == h, 0]) == 0.0


def test_rank_deficient_slice_structure_raises():
    # one direction of variation but two requested
    rng = np.random.default_rng(8)
    u = rng.standard_normal(6)
    s = rng.standard_normal(300)
    X = np.outer(s, u) + 1e-13 * rng.standard_normal((300, 6))
    y = s + 0.1 * rng.standard_normal(300)
    with pytest.raises(DegenerateDataError):
        lasso_sir_targets(X, y, 5, 3)


# -- lasso ------------------------------------------------------------


def test_penalty_free_descent_matches_least_squares(monkeypatch):
    monkeypatch.setattr(batch, "_LASSO_TOL", 1e-10)
    X, y = sample(SimModelSpec(1, 10), 200, rng=9)
    targets, _, _, _ = lasso_sir_targets(X, y, 5, 1)
    Xc = X - X.mean(axis=0)
    beta = lasso_coordinate_descent(Xc, targets[:, 0], 0.0)
    expected, *_ = np.linalg.lstsq(Xc, targets[:, 0], rcond=None)
    np.testing.assert_allclose(beta, expected, atol=1e-6)


def test_huge_penalty_gives_zero_solution():
    X, y = sample(SimModelSpec(1, 10), 200, rng=10)
    targets, _, _, _ = lasso_sir_targets(X, y, 5, 1)
    beta = lasso_coordinate_descent(X - X.mean(axis=0), targets[:, 0], 1e3)
    np.testing.assert_array_equal(beta, np.zeros(10))


def test_kkt_conditions_at_the_solution(monkeypatch):
    monkeypatch.setattr(batch, "_LASSO_TOL", 1e-10)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((150, 12))
    beta_true = np.zeros(12)
    beta_true[:3] = [2.0, -1.0, 0.5]
    y = X @ beta_true + 0.1 * rng.standard_normal(150)
    mu = 0.05
    beta = lasso_coordinate_descent(X, y, mu)
    grad = X.T @ (y - X @ beta) / 150
    zero = beta == 0.0
    assert np.all(np.abs(grad[zero]) <= mu + 1e-6)
    np.testing.assert_allclose(grad[~zero], mu * np.sign(beta[~zero]), atol=1e-6)


def test_sweep_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(batch, "_LASSO_TOL", 1e-14)
    monkeypatch.setattr(batch, "_LASSO_MAX_SWEEPS", 2)
    rng = np.random.default_rng(12)
    base = rng.standard_normal((100, 1))
    X = base + 0.001 * rng.standard_normal((100, 30))  # heavy correlation
    y = rng.standard_normal(100)
    with pytest.raises(ConvergenceError, match="after 2 sweeps"):
        lasso_coordinate_descent(X, y, 1e-6)


def test_negative_penalty_rejected():
    X = np.eye(4)
    with pytest.raises(ConfigurationError):
        lasso_coordinate_descent(X, np.ones(4), -0.5)
    with pytest.raises(ConfigurationError):  # once ran the whole sweep budget
        lasso_coordinate_descent(X, np.ones(4), np.nan)


def test_sparse_directions_in_high_dimension():
    # frozen reference level for this cell: distance around 0.002,
    # tested with slack
    X, y = sample(SimModelSpec(1, 1000), 1000, rng=13)
    B = batch_lasso_sir(X, y, 10, 1)
    beta = true_betas(SimModelSpec(1, 1000))
    assert subspace_distance(beta, B) <= 0.01
    assert np.count_nonzero(B) < 100  # genuinely sparse output
