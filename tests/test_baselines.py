"""Dense streaming baseline (no sparsity stage)."""

import numpy as np
import pytest

from streamsir import (
    ConfigurationError,
    DenseOnlineSIR,
    OnlineSparseSIR,
    SIRConfig,
    SimModelSpec,
    sample,
    subspace_distance,
    true_betas,
)

from .helpers import assert_same_state


def _fit(tracker, n=1000, p=20, seed=0, warmup=100):
    X, y = sample(SimModelSpec(1, p), n, rng=seed)
    model = DenseOnlineSIR.warmup(X[:warmup], y[:warmup], 10, 1, tracker)
    for i in range(warmup, n):
        model.observe(X[i], y[i])
    return model, X


def test_supported_trackers_only():
    X, y = sample(SimModelSpec(1, 8), 100, rng=1)
    for tracker in ("ccipca", "ipca", "oja"):
        with pytest.raises(ConfigurationError):
            DenseOnlineSIR.warmup(X, y, 5, 1, tracker)


@pytest.mark.parametrize("tracker", ["perturbation", "sgd"])
def test_dense_and_sparse_warmups_share_the_front_end(tracker):
    X, y = sample(SimModelSpec(3, 12), 100, rng=4)
    dense = DenseOnlineSIR.warmup(X, y, 10, 2, tracker)
    sparse = OnlineSparseSIR.warmup(X, y, SIRConfig(n_directions=2, tracker=tracker))
    assert_same_state(dense.kernel, sparse.kernel, "kernel")
    assert dense.kernel.dense_builds == sparse.kernel.dense_builds
    assert_same_state(dense.eigen, sparse.eigen, "eigen")
    assert dense.warmup_size == sparse.warmup_size == 100


@pytest.mark.parametrize("n_slices", [2, 4])
def test_dense_warmup_needs_max_of_slices_and_two_rows(n_slices):
    X, y = sample(SimModelSpec(1, 8), 10, rng=5)
    need = max(n_slices, 2)
    assert DenseOnlineSIR.warmup(X[:need], y[:need], n_slices).warmup_size == need
    with pytest.raises(ConfigurationError, match=f"need at least {need}"):
        DenseOnlineSIR.warmup(X[: need - 1], y[: need - 1], n_slices)


def test_directions_match_an_explicit_recomputation():
    model, X = _fit("sgd", n=600)
    cov = X.T @ X / 600 - np.outer(X.mean(axis=0), X.mean(axis=0))
    expected = np.linalg.solve(cov, model.eigen.vectors)
    expected /= np.linalg.norm(expected, axis=0)
    np.testing.assert_allclose(np.abs(model.directions()), np.abs(expected), atol=1e-8)


def test_perturbation_baseline_recovers_model_one():
    dists = []
    for seed in range(10):
        model, _ = _fit("perturbation", seed=100 + seed)
        dists.append(
            subspace_distance(true_betas(SimModelSpec(1, 20)), model.directions())
        )
    # the first-order tracker is heavy-tailed across seeds; the median run
    # must still land close to the truth
    assert np.median(dists) < 0.2


def test_sgd_baseline_recovers_model_one():
    dists = []
    for seed in range(10):
        model, _ = _fit("sgd", seed=100 + seed)
        dists.append(
            subspace_distance(true_betas(SimModelSpec(1, 20)), model.directions())
        )
    assert np.median(dists) < 0.1


def test_short_wide_streams_fall_back_to_a_ridge():
    X, y = sample(SimModelSpec(1, 30), 25, rng=2)
    model = DenseOnlineSIR.warmup(X[:20], y[:20], 4, 1)
    for i in range(20, 25):
        model.observe(X[i], y[i])
    B = model.directions()  # covariance is singular at t < p
    assert np.all(np.isfinite(B))
    assert np.linalg.norm(B[:, 0]) == pytest.approx(1.0)


def test_observation_counter():
    model, _ = _fit("sgd", n=300)
    assert model.t == 300
    assert model.eigen.step == 200
