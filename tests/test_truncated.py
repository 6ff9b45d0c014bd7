"""Truncation operator and the sparse online regression stage."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsir import (
    ConfigurationError,
    DataError,
    TruncatedGradient,
    truncate,
)


# -- the operator itself ------------------------------------------------------------


def test_truncate_pinned_values():
    assert truncate(0.5, 0.2, 1.0) == pytest.approx(0.3)
    assert truncate(-0.1, 0.2, 1.0) == 0.0
    assert truncate(2.0, 0.2, 1.0) == 2.0  # above the guard, untouched
    assert truncate(-0.5, 0.2, 1.0) == pytest.approx(-0.3)


def test_truncate_arrays_elementwise():
    v = np.array([[0.5, -0.1], [2.0, 0.05]])
    out = truncate(v, 0.2, 1.0)
    np.testing.assert_allclose(out, [[0.3, 0.0], [2.0, 0.0]])
    # input untouched
    assert v[0, 0] == 0.5


def test_truncate_default_guard_is_unbounded():
    assert truncate(1e12, 0.5) == pytest.approx(1e12 - 0.5)


def test_truncate_rejects_negative_parameters():
    with pytest.raises(ConfigurationError):
        truncate(1.0, -0.1)
    with pytest.raises(ConfigurationError):
        truncate(1.0, 0.1, -1.0)
    # NaN < 0 is false, so a sign test alone would let NaN through
    with pytest.raises(ConfigurationError, match="shrink must be non-negative, got nan"):
        truncate(1.0, math.nan)
    with pytest.raises(ConfigurationError, match="threshold must be non-negative, got nan"):
        truncate(1.0, 0.1, math.nan)
    assert truncate(3.0, math.inf) == 0.0  # infinite bounds stay valid
    assert truncate(-3.0, 1.0, math.inf) == -2.0


@given(
    v=st.floats(-50, 50),
    shrink=st.floats(0, 5),
    threshold=st.floats(0, 100),
)
def test_truncate_is_odd_and_non_expansive(v, shrink, threshold):
    out = truncate(v, shrink, threshold)
    mirrored = truncate(-v, shrink, threshold)
    assert mirrored == pytest.approx(-out, abs=1e-12)
    assert abs(out) <= abs(v) + 1e-12
    # never crosses zero
    assert out == 0.0 or math.copysign(1.0, out) == math.copysign(1.0, v)


@given(v=st.floats(-10, 10), shrink=st.floats(0, 5))
def test_truncate_zeroes_everything_below_the_shrink(v, shrink):
    out = truncate(v, shrink, math.inf)
    if abs(v) <= shrink:
        assert out == 0.0
    else:
        assert out == pytest.approx(v - math.copysign(shrink, v))


# -- single gradient steps ------------------------------------------------------------


def test_zero_rate_zero_gravity_leaves_model_unchanged():
    model = TruncatedGradient(4, 1, rate=0.0, gravity=0.0)
    model.betas[:] = np.arange(4.0)[:, None]
    before = model.betas.copy()
    model.update(np.ones(4), [2.0])
    np.testing.assert_array_equal(model.betas, before)
    assert model.step == 1


def test_first_step_from_zero_is_a_pure_gradient():
    rate = 0.05
    model = TruncatedGradient(3, 1, rate=rate)
    model.update(np.array([1.0, 0.0, 0.0]), [1.0])
    expected = np.zeros((3, 1))
    expected[0, 0] = 2.0 * rate
    np.testing.assert_allclose(model.betas, expected)


def test_multi_step_matches_hand_rolled_recursion():
    rng = np.random.default_rng(21)
    rate, gravity, threshold, period = 0.03, 0.5, 0.4, 2
    model = TruncatedGradient(5, 2, rate=rate, gravity=gravity,
                              threshold=threshold, period=period)
    betas = np.zeros((5, 2))
    for step in range(1, 26):
        x = rng.standard_normal(5)
        targets = rng.standard_normal(2)
        if step % period == 0:
            shrink = gravity * rate * period
            pulled = np.sign(betas) * np.maximum(np.abs(betas) - shrink, 0.0)
            betas = np.where(np.abs(betas) <= threshold, pulled, betas)
        betas = betas + 2.0 * rate * np.outer(x, targets - betas.T @ x)
        model.update(x, targets)
    np.testing.assert_allclose(model.betas, betas, atol=1e-14)
    assert model.step == 25


def test_truncation_cadence_and_counter():
    model = TruncatedGradient(2, 1, rate=0.1, gravity=10.0, period=3)
    x = np.array([0.0, 0.0])  # keeps the gradient at zero
    model.betas[:] = [[0.001], [0.001]]
    model.update(x, [0.0])
    model.update(x, [0.0])
    assert model.truncation_zeros == 0  # steps 1 and 2: no truncation yet
    model.update(x, [0.0])  # step 3 truncates both tiny coefficients
    assert model.truncation_zeros == 2
    np.testing.assert_array_equal(model.betas, np.zeros((2, 1)))


def test_truncation_counter_skips_zeros_and_protected_coordinates():
    # shrink 1.0 with threshold 0.5: only the tiny nonzero coefficient is
    # newly zeroed; the zero stays zero and 0.7 and 5.0 are above the guard
    model = TruncatedGradient(4, 1, rate=0.1, gravity=10.0, threshold=0.5, period=1)
    model.betas[:] = [[0.001], [0.0], [5.0], [0.7]]
    model.update(np.zeros(4), [0.0])
    assert model.truncation_zeros == 1
    model.update(np.zeros(4), [0.0])
    assert model.truncation_zeros == 1
    np.testing.assert_array_equal(model.betas, [[0.0], [0.0], [5.0], [0.7]])


def test_threshold_protects_large_coefficients():
    model = TruncatedGradient(2, 1, rate=0.1, gravity=5.0,
                              threshold=0.5, period=1)
    model.betas[:] = [[3.0], [0.2]]
    model.update(np.zeros(2), [0.0])
    assert model.betas[0, 0] == 3.0  # beyond the guard
    assert model.betas[1, 0] == 0.0  # inside it, shrunk away


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        TruncatedGradient(0, 1, rate=0.1)
    with pytest.raises(ConfigurationError):
        TruncatedGradient(3, 1, rate=1.0)
    with pytest.raises(ConfigurationError):
        TruncatedGradient(3, 1, rate=-0.1)
    with pytest.raises(ConfigurationError):
        TruncatedGradient(3, 1, rate=0.1, gravity=-1.0)
    with pytest.raises(ConfigurationError):
        TruncatedGradient(3, 1, rate=0.1, period=0)
    with pytest.raises(ConfigurationError):
        TruncatedGradient(3, 1, rate=0.1, threshold=-2.0)
    for field in ("gravity", "threshold"):
        # a NaN gravity would pass a sign test and make every truncation a no-op
        with pytest.raises(ConfigurationError, match=f"{field} must be non-negative, got nan"):
            TruncatedGradient(3, 1, rate=0.1, **{field: math.nan})
        assert getattr(TruncatedGradient(3, 1, rate=0.1, **{field: math.inf}), field) == math.inf


def test_update_validation():
    model = TruncatedGradient(3, 2, rate=0.01)
    with pytest.raises(DataError):
        model.update(np.ones(2), [0.0, 0.0])
    with pytest.raises(DataError):
        model.update(np.ones(3), [0.0])
    with pytest.raises(DataError):
        model.update(np.array([1.0, np.nan, 0.0]), [0.0, 0.0])
    with pytest.raises(DataError):
        model.update(np.ones(3), [0.0, -np.inf])
    assert model.step == 0


def test_update_accepts_finite_inputs_whose_squares_overflow():
    model = TruncatedGradient(3, 1, rate=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check itself warns of no overflow
        model.update(np.array([1e200, -2e200, 3e200]), [0.0])
    assert model.step == 1


# -- gravity settings over one shared stream ----------------------------------------


def _path_stream(seed=3, n=400, p=8):
    rng = np.random.default_rng(seed)
    beta = np.zeros(p)
    beta[:2] = [1.0, -0.5]
    X = rng.standard_normal((n, p))
    y = X @ beta + 0.05 * rng.standard_normal(n)
    return [(X[i], np.array([y[i]])) for i in range(n)]


def _fitted(stream, gravity, period=4):
    model = TruncatedGradient(8, 1, rate=0.02, gravity=gravity, period=period)
    for x, t in stream:
        model.update(x, t)
    return model


def test_zero_gravity_reduces_to_plain_sgd():
    stream = _path_stream()
    model = _fitted(stream, 0.0)
    plain = _fitted(stream, 0.0, period=10)
    np.testing.assert_array_equal(model.betas, plain.betas)
    assert model.nonzero_count() == 8


def test_huge_gravity_kills_every_coefficient():
    # each truncation event wipes the whole matrix; what survives to the
    # end is at most the raw gradient contribution of the last few steps
    stream = _path_stream()
    brutal = _fitted(stream, 1e3)
    n_events = 400 // 4
    assert brutal.truncation_zeros >= 8 * (n_events - 1)
    # the stream length is a multiple of the period, so the last event
    # wiped everything and the final state is one bare gradient step
    x_last, t_last = stream[-1]
    np.testing.assert_allclose(
        brutal.betas, 2.0 * 0.02 * np.outer(x_last, t_last), atol=1e-12
    )


def test_first_truncation_zeroes_every_accumulated_coefficient():
    model = TruncatedGradient(4, 1, rate=0.02, gravity=1e3, period=5)
    rng = np.random.default_rng(8)
    for _ in range(4):
        model.update(rng.standard_normal(4), rng.standard_normal(1))
    assert model.nonzero_count() == 4 and model.truncation_zeros == 0
    model.update(np.zeros(4), [0.0])  # fifth step truncates, gradient is nil
    assert model.nonzero_count() == 0
    assert model.truncation_zeros == 4


def test_sparsity_is_monotone_along_the_path():
    stream = _path_stream()
    models = [_fitted(stream, g) for g in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
    nonzeros = [m.nonzero_count() for m in models]
    assert nonzeros == sorted(nonzeros, reverse=True)
    # the stage is deterministic: the same stream gives the same fit
    again = _fitted(_path_stream(), 1e-3)
    np.testing.assert_array_equal(again.betas, models[1].betas)
