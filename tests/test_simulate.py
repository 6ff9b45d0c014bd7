"""Synthetic generators and the subspace distance metric."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsir import (
    ConfigurationError,
    DataError,
    SimModelSpec,
    sample,
    subspace_distance,
    true_betas,
)


# -- generators ------------------------------------------------------------


def test_supports_per_model():
    b1 = true_betas(SimModelSpec(1, 20))
    assert b1.shape == (20, 1)
    assert set(np.flatnonzero(b1[:, 0])) == {0, 1}

    b2 = true_betas(SimModelSpec(2, 20))
    assert set(np.flatnonzero(b2[:, 0])) == {1, 3, 5, 7, 9}

    b3 = true_betas(SimModelSpec(3, 20))
    assert b3.shape == (20, 2)
    assert set(np.flatnonzero(b3[:, 0])) == {0, 1, 2, 3}
    assert set(np.flatnonzero(b3[:, 1])) == {4, 5, 6}


def test_sampling_is_deterministic_under_a_seed():
    spec = SimModelSpec(2, 12)
    Xa, ya = sample(spec, 50, rng=123)
    Xb, yb = sample(spec, 50, rng=123)
    np.testing.assert_array_equal(Xa, Xb)
    np.testing.assert_array_equal(ya, yb)
    Xc, _ = sample(spec, 50, rng=124)
    assert not np.array_equal(Xa, Xc)


def test_covariate_autocorrelation():
    X, _ = sample(SimModelSpec(1, 30), 40_000, rng=7)
    lag1 = np.array(
        [np.corrcoef(X[:, j], X[:, j + 1])[0, 1] for j in range(29)]
    )
    np.testing.assert_allclose(lag1, 0.3, atol=0.03)
    np.testing.assert_allclose(X.var(axis=0), 1.0, atol=0.05)
    # lag-2 correlation of an order-1 recursion is the square of lag-1
    lag2 = np.corrcoef(X[:, 0], X[:, 2])[0, 1]
    assert abs(lag2 - 0.09) < 0.02


def test_noiseless_responses_recompute_from_the_link():
    # with noise_sd=0 the response is an exact function of the index
    X1, y1 = sample(SimModelSpec(1, 8, noise_sd=0.0), 200, rng=11)
    np.testing.assert_allclose(y1, X1[:, 0] + X1[:, 1], atol=1e-12)

    X2, y2 = sample(SimModelSpec(2, 10, noise_sd=0.0), 200, rng=12)
    s = X2[:, [1, 3, 5, 7, 9]].sum(axis=1)
    np.testing.assert_allclose(y2, np.sin(s) * np.exp(s), atol=1e-12)

    X3, y3 = sample(SimModelSpec(3, 7, noise_sd=0.0), 200, rng=13)
    s3 = X3[:, :4].sum(axis=1)
    s4 = X3[:, 4:7].sum(axis=1)
    np.testing.assert_allclose(
        y3, np.sign(s3) * np.abs(2.0 + s4 / 4.0) ** 3, atol=1e-12
    )


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SimModelSpec(4, 20)
    with pytest.raises(ConfigurationError):
        SimModelSpec(2, 9)  # support needs ten coordinates
    with pytest.raises(ConfigurationError):
        SimModelSpec(3, 6)
    with pytest.raises(ConfigurationError):
        SimModelSpec(1, 20, rho=1.0)
    with pytest.raises(ConfigurationError):
        SimModelSpec(1, 20, noise_sd=-0.5)
    with pytest.raises(ConfigurationError, match="noise_sd must be non-negative, got nan"):
        SimModelSpec(1, 20, noise_sd=float("nan"))  # would make every response NaN
    with pytest.raises(ConfigurationError):
        sample(SimModelSpec(1, 5), 0)


# -- distance metric ------------------------------------------------------------


def test_distance_trivial_values():
    e1 = np.eye(4)[:, :1]
    e2 = np.eye(4)[:, 1:2]
    assert subspace_distance(e1, e1) == pytest.approx(0.0, abs=1e-8)
    assert subspace_distance(e1, e2) == pytest.approx(1.0, abs=1e-8)
    # a rotation by 60 degrees overlaps by cos(60) = 1/2
    tilted = np.array([[np.cos(np.pi / 3)], [np.sin(np.pi / 3)], [0.0], [0.0]])
    assert subspace_distance(e1, tilted) == pytest.approx(0.5, abs=1e-8)


def test_distance_handles_vector_inputs():
    u = np.array([1.0, 0.0, 0.0])
    assert subspace_distance(u, u) == pytest.approx(0.0, abs=1e-12)
    assert subspace_distance(u, 3.0 * u) == pytest.approx(0.0, abs=1e-12)


def _random_spans(seed, p=6, d=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((p, d)), rng.standard_normal((p, d)), rng


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_distance_range_and_symmetry(seed):
    B, Bh, _ = _random_spans(seed)
    v = subspace_distance(B, Bh)
    assert 0.0 <= v <= 1.0
    assert subspace_distance(Bh, B) == pytest.approx(v, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_distance_invariances(seed):
    B, Bh, rng = _random_spans(seed)
    ref = subspace_distance(B, Bh)
    flipped = Bh * np.array([-1.0, 1.0])
    assert subspace_distance(B, flipped) == pytest.approx(ref, abs=1e-9)
    permuted = Bh[:, ::-1]
    assert subspace_distance(B, permuted) == pytest.approx(ref, abs=1e-9)
    while True:  # any invertible 2x2 recombination of the columns
        A = rng.standard_normal((2, 2))
        if abs(np.linalg.det(A)) > 0.1:
            break
    assert subspace_distance(B, Bh @ A) == pytest.approx(ref, abs=1e-8)


def test_rank_deficient_estimate_scores_one():
    B = np.eye(5)[:, :2]
    Bh = np.ones((5, 2))  # both columns identical
    with pytest.warns(UserWarning):
        assert subspace_distance(B, Bh) == 1.0


def test_distance_validation():
    with pytest.raises(DataError):
        subspace_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])
    with pytest.raises(DataError):
        subspace_distance(np.eye(4)[:, :1], np.eye(4)[:, :2])
    bad = np.eye(3)[:, :1].copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        subspace_distance(np.eye(3)[:, :1], bad)


def test_distance_under_small_perturbation_is_small():
    rng = np.random.default_rng(99)
    B = rng.standard_normal((10, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = subspace_distance(B, B + 1e-9 * rng.standard_normal((10, 2)))
    assert v < 1e-6
