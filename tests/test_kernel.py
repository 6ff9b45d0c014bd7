"""Slice grid and streaming kernel statistics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsir import (
    ConfigurationError,
    DataError,
    DegenerateDataError,
    EmptyStateError,
    KernelTracker,
    SliceGrid,
    sir_matrix,
)
from streamsir.errors import all_finite
from .helpers import (
    kernel_matrix_oracle,
    random_stream,
    slice_cov_oracle,
    slice_index_oracle,
)


# -- grid construction ------------------------------------------------------------


def test_cuts_match_quantiles():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(500)
    grid = SliceGrid.from_warmup(y, 8)
    expected = np.quantile(y, np.arange(1, 8) / 8)
    np.testing.assert_allclose(grid.cuts, expected, rtol=0, atol=0)
    assert grid.n_slices == 8


def test_slice_of_is_right_closed_on_ties():
    grid = SliceGrid(np.array([1.0, 2.0]))
    # a response equal to a cut point belongs to the slice below it
    assert grid.slice_of(1.0) == 0
    assert grid.slice_of(1.5) == 1
    assert grid.slice_of(2.0) == 1
    assert grid.slice_of(2.5) == 2
    assert grid.slice_of(-10.0) == 0
    assert grid.slice_of(10.0) == 2


@given(
    y=st.floats(-100, 100),
    cuts=st.lists(
        st.floats(-50, 50), min_size=1, max_size=9, unique=True
    ).map(sorted),
)
def test_slice_of_matches_comparison_oracle(y, cuts):
    grid = SliceGrid(np.array(cuts))
    assert grid.slice_of(y) == slice_index_oracle(y, cuts)


def test_from_warmup_validation():
    with pytest.raises(ConfigurationError):
        SliceGrid.from_warmup(np.arange(10.0), 0)
    with pytest.raises(ConfigurationError):
        SliceGrid.from_warmup(np.arange(3.0), 5)
    with pytest.raises(DataError):
        SliceGrid.from_warmup(np.array([1.0, np.nan, 3.0, 4.0, 5.0]), 2)


def test_constant_warmup_collapses_grid():
    # duplicate quantiles cannot hold five slices: the grid refuses them
    y = np.ones(50)
    with pytest.raises(DegenerateDataError, match="duplicate quantiles"):
        SliceGrid.from_warmup(y, 5)


def test_unsorted_cuts_rejected():
    with pytest.raises(ConfigurationError):
        SliceGrid(np.array([2.0, 1.0]))
    with pytest.raises(ConfigurationError):
        SliceGrid(np.array([1.0, 1.0]))


@pytest.mark.parametrize("cuts", [[0.0, np.nan, 2.0], [np.nan], [0.0, np.inf], [-np.inf, 0.0]])
def test_non_finite_cuts_are_data_errors(cuts):
    # a NaN makes the order test fail too, so finiteness is tested first
    with pytest.raises(DataError, match="finite"):
        SliceGrid(np.array(cuts))


# -- streaming statistics ------------------------------------------------------------


def _fresh_tracker(rng, t=200, p=6, n_slices=5):
    X, y = random_stream(rng, t, p)
    grid = SliceGrid.from_warmup(y[:50], n_slices)
    tracker = KernelTracker(grid, p)
    tracker.replay(X, y)
    return tracker, X, y, grid.cuts


def test_streaming_factor_matches_batch_oracle():
    tracker, X, y, cuts = _fresh_tracker(np.random.default_rng(1))
    np.testing.assert_allclose(
        tracker.slice_cov, slice_cov_oracle(X, y, cuts), atol=1e-12
    )


def test_streaming_kernel_matrix_matches_batch_oracle():
    tracker, X, y, cuts = _fresh_tracker(np.random.default_rng(2))
    np.testing.assert_allclose(
        tracker.kernel_matrix(), kernel_matrix_oracle(X, y, cuts), atol=1e-12
    )
    assert tracker.dense_builds == 1


@pytest.mark.parametrize("p", [20, 100, 500])
def test_kernel_and_sir_matrices_are_exactly_symmetric(p):
    # kernel_matrix and sir_matrix return A @ A.T unsymmetrized, trusting
    # numpy to form it with syrk, which mirrors one triangle; a numpy that
    # does not would hand eigh and solve a skewed matrix
    X, y = random_stream(np.random.default_rng(p), 300, p)
    tracker = KernelTracker(SliceGrid.from_warmup(y, 10), p)
    tracker.replay(X, y)
    for K in (tracker.kernel_matrix(), sir_matrix(X, y, 10)):
        assert np.array_equal(K, K.T)


def test_factor_operator_agrees_with_the_dense_factor():
    rng = np.random.default_rng(8)
    tracker, _, _, _ = _fresh_tracker(rng)
    dense = tracker.slice_cov
    factor = tracker.factor()
    a, v = rng.standard_normal(dense.shape[1]), rng.standard_normal(dense.shape[0])
    np.testing.assert_allclose(factor @ a, dense @ a, rtol=0, atol=1e-14)
    np.testing.assert_allclose(factor.T @ v, dense.T @ v, rtol=0, atol=1e-14)
    for h in range(dense.shape[1]):
        np.testing.assert_array_equal(factor.column(h), dense[:, h])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(10, 120),
    p=st.integers(1, 8),
    n_slices=st.integers(1, 6),
)
def test_streaming_equals_batch_for_random_streams(seed, t, p, n_slices):
    rng = np.random.default_rng(seed)
    X, y = random_stream(rng, t, p)
    grid = SliceGrid.from_warmup(y, n_slices)
    tracker = KernelTracker(grid, p)
    tracker.replay(X, y)
    expected = slice_cov_oracle(X, y, grid.cuts)
    np.testing.assert_allclose(tracker.slice_cov, expected, atol=1e-10)


def test_update_order_does_not_change_exact_factor():
    # exact centering re-centers every slice sum at the current global
    # mean, so the factor is a set statistic of the sample
    rng = np.random.default_rng(4)
    X, y = random_stream(rng, 80, 4)
    grid = SliceGrid.from_warmup(y, 4)
    a = KernelTracker(grid, 4)
    a.replay(X, y)
    perm = rng.permutation(80)
    b = KernelTracker(SliceGrid(grid.cuts.copy()), 4)
    b.replay(X[perm], y[perm])
    np.testing.assert_allclose(a.slice_cov, b.slice_cov, atol=1e-12)
    np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)


def test_counts_track_slice_membership():
    tracker, X, y, cuts = _fresh_tracker(np.random.default_rng(5))
    expected = np.zeros(len(cuts) + 1, dtype=int)
    for yi in y:
        expected[slice_index_oracle(float(yi), cuts)] += 1
    np.testing.assert_array_equal(tracker.grid.counts, expected)
    assert tracker.t == len(y)


def test_empty_tracker_has_no_statistics():
    grid = SliceGrid(np.array([0.0]))
    tracker = KernelTracker(grid, 3)
    with pytest.raises(EmptyStateError):
        tracker.slice_cov
    with pytest.raises(EmptyStateError):
        tracker.kernel_matrix()
    np.testing.assert_array_equal(tracker.mean, np.zeros(3))


def test_update_rejects_bad_rows():
    grid = SliceGrid(np.array([0.0]))
    tracker = KernelTracker(grid, 3)
    with pytest.raises(DataError):
        tracker.update(np.array([1.0, 2.0]), 0.5)
    with pytest.raises(DataError):
        tracker.update(np.array([1.0, np.inf, 2.0]), 0.5)
    with pytest.raises(DataError):
        tracker.update(np.array([1.0, 2.0, 3.0]), np.nan)


def test_update_accepts_finite_rows_whose_squares_overflow():
    tracker = KernelTracker(SliceGrid(np.array([0.0])), 3)
    x = np.array([1e200, -3e200, 2e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check itself warns of no overflow
        assert tracker.update(x, 0.5) == 1
    np.testing.assert_array_equal(tracker.x_sum, x)


_BIG = st.floats(1e199, 1e201) | st.floats(-1e201, -1e199)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats() | _BIG | st.just(0.0), max_size=40),
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    where=st.integers(0, 40),
)
def test_all_finite_agrees_with_the_elementwise_test(values, bad, where):
    v = np.array(values, dtype=float)
    if bad is not None:
        v = np.insert(v, min(where, v.size), bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(v) == bool(np.isfinite(v).all())
