"""Caller input at every public entry point that takes arrays.

``observe`` and ``TruncatedGradient.update`` have their own tests of the
same inputs (``test_rejected_observation_leaves_the_state_unchanged``,
``test_update_validation``); every other entry point is fed here a complex
array, an array of the wrong shape and an array with one NaN, and must
raise ``DataError`` quickly and leave any state it holds as it was.
"""

import time

import numpy as np
import pytest

from streamsir import (
    ConfigurationError,
    DataError,
    KernelTracker,
    OnlineSparseSIR,
    SIRConfig,
    SimModelSpec,
    SliceGrid,
    TruncatedGradient,
    batch_sir,
    dense_top_eigen,
    fit_online,
    fit_stream,
    lasso_coordinate_descent,
    sample,
    subspace_distance,
    true_betas,
    truncate,
)

_SPEC = SimModelSpec(1, 6)
_X, _Y = sample(_SPEC, 300, rng=0)
_CONFIG = SIRConfig(n_slices=5)
_RAGGED = [[0.0, 1.0], [2.0]]  # no shape at all


def _spoiled(a, bad, wrong_shape):
    """``a`` made complex, ``a`` with a NaN in its middle entry, or
    ``wrong_shape``, as ``bad`` says."""
    if bad == "complex":
        return a + 0.5j
    if bad == "nan":
        a = np.array(a, dtype=float)
        a.flat[a.size // 2] = np.nan
        return a
    return wrong_shape


def _kernel():
    kernel = KernelTracker(SliceGrid.from_warmup(_Y[:100], 5), _SPEC.n_features)
    kernel.replay(_X[:100], _Y[:100])
    return kernel


def _check(bad):
    kernel = _kernel()
    return lambda: kernel.check(_spoiled(_X[100], bad, _X[100, :-1]), _Y[100]), kernel


def _fit_stream(bad):
    model = OnlineSparseSIR.warmup(_X[:100], _Y[:100], _CONFIG)
    stream = _spoiled(_X[100:], bad, _X[100:-1])  # the NaN lands in row 100 of 200
    return lambda: fit_stream(model, stream, _Y[100:]), model.kernel


# entry point -> (bad -> (call, the kernel whose state the call must keep, or None))
_ENTRY_POINTS = {
    "KernelTracker.check": _check,
    "fit_stream": _fit_stream,
    "fit_online": lambda bad: (
        lambda: fit_online(_spoiled(_X, bad, _X[:-1]), _Y, _CONFIG), None),
    "SliceGrid": lambda bad: (
        lambda: SliceGrid(_spoiled(np.array([-1.0, 0.0, 1.0]), bad, _RAGGED)), None),
    "SliceGrid.from_warmup": lambda bad: (
        lambda: SliceGrid.from_warmup(_spoiled(_Y, bad, _RAGGED), 5), None),
    "lasso_coordinate_descent": lambda bad: (
        lambda: lasso_coordinate_descent(_spoiled(_X, bad, _X[:, 0]), _Y, 0.01), None),
    "batch_sir": lambda bad: (
        lambda: batch_sir(_spoiled(_X, bad, _X[:-1]), _Y, 5, 1), None),
    "dense_top_eigen": lambda bad: (
        lambda: dense_top_eigen(_spoiled(np.eye(4), bad, np.ones((3, 4))), 1), None),
    "truncate": lambda bad: (
        lambda: truncate(_spoiled(np.arange(-2.0, 3.0), bad, _RAGGED), 0.1), None),
    "subspace_distance": lambda bad: (
        lambda: subspace_distance(
            true_betas(_SPEC), _spoiled(true_betas(_SPEC), bad, np.ones((5, 1)))), None),
}


def _state(kernel):
    return kernel.t, kernel.block.tobytes(), kernel.grid.counts.tobytes()


@pytest.mark.parametrize("bad", ["complex", "wrong shape", "nan"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_entry_point_refuses_bad_arrays_before_any_work(entry, bad):
    # a complex array once lost its imaginary part with a ComplexWarning,
    # a NaN once ran the lasso's whole sweep budget (seconds) and fit_stream
    # streamed the rows before it
    call, kernel = _ENTRY_POINTS[entry](bad)
    before = None if kernel is None else _state(kernel)
    start = time.perf_counter()
    with pytest.raises(DataError):
        call()
    assert time.perf_counter() - start < 1.0
    if kernel is not None:
        assert _state(kernel) == before


def test_fit_stream_names_the_first_non_finite_row():
    model = OnlineSparseSIR.warmup(_X[:100], _Y[:100], _CONFIG)
    y = _Y[100:].copy()
    y[150] = np.inf
    X = _X[100:].copy()
    X[120, 2] = np.nan
    with pytest.raises(DataError, match="stream X row 120 holds a non-finite"):
        fit_stream(model, X, y)
    assert model.t == 100


# constructor or argument -> a call with that count set to the value given
_COUNTS = {
    "TruncatedGradient n_features": lambda n: TruncatedGradient(n, 1, rate=0.1),
    "TruncatedGradient n_targets": lambda n: TruncatedGradient(4, n, rate=0.1),
    "TruncatedGradient period": lambda n: TruncatedGradient(4, 1, rate=0.1, period=n),
    "KernelTracker n_features": lambda n: KernelTracker(SliceGrid(np.array([0.0])), n),
    "SliceGrid.from_warmup n_slices": lambda n: SliceGrid.from_warmup(np.arange(20.0), n),
    "fit_online warmup_size": lambda n: fit_online(_X, _Y, SIRConfig(n_slices=2), warmup_size=n),
    "sample n": lambda n: sample(_SPEC, n),
    "SimModelSpec n_features": lambda n: true_betas(SimModelSpec(1, n)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, 1e3, True, 0])
@pytest.mark.parametrize("count", sorted(_COUNTS))
def test_counts_must_be_positive_integers(count, value):
    # 2.5 once ran as 2 and True as 1, while the caller's setting said
    # otherwise; a float feature count, warmup size or sample size raised
    # a bare TypeError, and True as the warmup size ran a 1-row warmup.
    # The accepted count is 10, the smallest warmup of two slices.
    with pytest.raises(ConfigurationError, match="must be a positive integer"):
        _COUNTS[count](value)
    _COUNTS[count](np.int64(10))
