"""End-to-end streaming estimator."""

import copy
import json
import math
import os
import re
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from streamsir import (
    STRATEGIES,
    ConfigurationError,
    ConvergenceError,
    DataError,
    DegenerateDataError,
    EigenTracker,
    KernelTracker,
    OnlineSparseSIR,
    SIRConfig,
    SimModelSpec,
    SliceGrid,
    TrackerConfig,
    fit_online,
    fit_stream,
    sample,
    subspace_distance,
    true_betas,
)
from streamsir import pipeline
from streamsir.pipeline import CHECKPOINT_FORMAT, DEFAULT_WARMUP
from streamsir.truncated import active_features

from .helpers import (
    assert_same_state,
    ccipca_observe_reference,
    observe_chain_reference,
    principal_angle,
    response_oracle,
)

# settings used by the synthetic-benchmark assertions below: small enough
# for coefficient-stage stability at these dimensions, large enough to
# converge within a couple thousand observations
BENCH = dict(n_slices=10, learning_rate=1e-3, gravity=3e-4)


def _model_one(n=1100, p=20, seed=0):
    X, y = sample(SimModelSpec(1, p), n, rng=seed)
    return X, y


# -- warmup ------------------------------------------------------------


def test_warmup_initializes_every_stage():
    X, y = _model_one()
    model = OnlineSparseSIR.warmup(X[:100], y[:100], SIRConfig())
    assert model.t == 100
    assert model.warmup_size == 100
    np.testing.assert_allclose(
        np.linalg.norm(model.eigen.vectors, axis=0), 1.0, atol=1e-8
    )
    assert model.coef.nonzero_count() == 0  # coefficients start at zero
    assert model.eigen.step == 0
    model.check_counters()


def test_warmup_rejects_small_batches():
    X, y = _model_one()
    with pytest.raises(ConfigurationError):
        OnlineSparseSIR.warmup(X[:8], y[:8], SIRConfig(n_slices=10))
    # five rows per slice on average
    assert OnlineSparseSIR.warmup(X[:25], y[:25], SIRConfig(n_slices=5)).warmup_size == 25
    with pytest.raises(ConfigurationError, match="need at least 25"):
        OnlineSparseSIR.warmup(X[:24], y[:24], SIRConfig(n_slices=5))


def test_constant_covariates_cannot_seed_the_tracker():
    y = np.linspace(0.0, 1.0, 60)
    X = np.ones((60, 4))
    with pytest.raises(DegenerateDataError):
        OnlineSparseSIR.warmup(X, y, SIRConfig(n_slices=5))


def test_constant_responses_collapse_the_grid():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 4))
    with pytest.raises(DegenerateDataError):
        OnlineSparseSIR.warmup(X, np.ones(60), SIRConfig(n_slices=5))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SIRConfig(n_slices=0)
    with pytest.raises(ConfigurationError):
        SIRConfig(tracker="newton")
    with pytest.raises(ConfigurationError):
        SIRConfig(learning_rate=1.5)
    # the coefficient stage's fields fail when the config is built, not
    # later at warmup, through the stage's own checks
    with pytest.raises(ConfigurationError, match="period"):
        SIRConfig(period=0)
    with pytest.raises(ConfigurationError, match="gravity"):
        SIRConfig(gravity=-1.0)
    with pytest.raises(ConfigurationError, match="threshold"):
        SIRConfig(threshold=-1.0)
    for field in ("gravity", "threshold"):
        with pytest.raises(ConfigurationError, match=f"{field} must be non-negative, got nan"):
            SIRConfig(**{field: math.nan})
        assert getattr(SIRConfig(**{field: math.inf}), field) == math.inf
    assert SIRConfig(learning_rate=None).resolve_rate(25) == 1e-3


@pytest.mark.parametrize("field", ["n_slices", "n_directions", "period"])
def test_integer_config_fields_reject_non_integers(field):
    # a stage would run with int(2.5) = 2 while the config says 2.5, and with
    # 1 while it says True
    with pytest.raises(ConfigurationError, match=f"{field} must be a positive integer, got 2.5"):
        SIRConfig(**{field: 2.5})
    with pytest.raises(ConfigurationError, match=f"{field} must be a positive integer, got True"):
        SIRConfig(**{field: True})
    assert getattr(SIRConfig(**{field: np.int64(2)}), field) == 2


@pytest.mark.parametrize("bad", [True, False, np.True_, "0.1", None, [0.1]])
@pytest.mark.parametrize("field", ["learning_rate", "gravity", "threshold"])
def test_float_config_fields_reject_bools_and_non_numbers(field, bad):
    # True would run as 1.0 while the config says True; "0.1" would reach a
    # comparison and fail with a bare TypeError.  learning_rate alone may be
    # None, its "resolve from p" value
    if field == "learning_rate" and bad is None:
        assert SIRConfig(learning_rate=None).learning_rate is None
        return
    with pytest.raises(ConfigurationError, match=f"^{field} must be a real number, got "):
        SIRConfig(**{field: bad})
    assert getattr(SIRConfig(**{field: np.float32(0.25)}), field) == 0.25


# -- artificial response ------------------------------------------------------------


def test_response_matches_batch_recomputation():
    # stream for a while, then audit the target the coefficient stage saw
    # against a from-scratch recomputation out of the raw rows
    X, y = _model_one(n=1000)
    cfg = SIRConfig(**BENCH)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    for i in range(100, 1000):
        model.observe(X[i], y[i])
        if i in (400, 700, 999):
            got = model.artificial_response(y[i])
            expected = response_oracle(
                X[: i + 1], y[: i + 1], model.kernel.grid.cuts,
                model.eigen.vectors, model.eigen.values,
            )
            np.testing.assert_allclose(got, expected, atol=1e-8)


def test_response_scale_with_an_aligned_basis():
    # with the tracked direction equal to the normalized factor column of
    # y's slice and a unit eigenvalue, the target reduces to norm/(t H)
    X, y = _model_one(n=200)
    cfg = SIRConfig(n_slices=5, learning_rate=1e-3)
    base = OnlineSparseSIR.warmup(X[:200], y[:200], cfg)
    h = base.kernel.grid.slice_of(y[0])
    col = base.kernel.slice_cov[:, h]
    eigen = EigenTracker(
        np.array([1.0]), (col / np.linalg.norm(col))[:, None], TrackerConfig()
    )
    model = OnlineSparseSIR(base.kernel, eigen, base.coef, cfg, base.warmup_size)
    got = model.artificial_response(y[0])
    expected = np.linalg.norm(col) / (200 * 5)
    assert got[0] == pytest.approx(expected, rel=1e-12)


def test_zero_slice_statistic_gives_zero_response():
    X, y = _model_one(n=150)
    model = OnlineSparseSIR.warmup(X[:150], y[:150], SIRConfig(n_slices=5))
    h = model.kernel.grid.slice_of(y[0])
    # surgically erase slice h's centered statistic S_h - c_h x_sum / t: with
    # S_h and x_sum zero it is zero in any order of the arithmetic
    model.kernel.cross_sum[:, h] = 0.0
    model.kernel.x_sum[:] = 0.0
    np.testing.assert_array_equal(model.artificial_response(y[0]), [0.0])


def test_floored_eigenvalue_zeroes_its_coordinate(monkeypatch):
    # a floor above the tracked values declares every coordinate degenerate
    monkeypatch.setattr(pipeline, "_EIGENVALUE_FLOOR", 10.0)
    X, y = sample(SimModelSpec(3, 10), 400, rng=1)
    cfg = SIRConfig(n_slices=5, n_directions=2, learning_rate=1e-3)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    probe = model.artificial_response(y[100])
    np.testing.assert_array_equal(probe, [0.0, 0.0])
    assert model.degenerate_responses == 0  # pure read leaves the counter
    model.observe(X[100], y[100])
    assert model.degenerate_responses == 2


# -- observe ------------------------------------------------------------


def test_observing_the_running_mean_is_harmless():
    X, y = _model_one()
    model = OnlineSparseSIR.warmup(X[:100], y[:100], SIRConfig())
    mean_before = model.kernel.mean.copy()
    model.observe(mean_before.copy(), 0.37)
    np.testing.assert_allclose(model.kernel.mean, mean_before, atol=1e-12)
    model.check_counters()


@pytest.mark.parametrize(
    "d, offset",
    [(1, 0.0), (2, 0.0), (3, 0.0), (1, 1e3), (2, 1e3), (3, 1e3)],
    ids=["1", "2", "3", "1-offset", "2-offset", "3-offset"],
)
def test_factor_free_ccipca_matches_the_materialized_algebra(d, offset):
    # at a covariate offset of 1e3 the block's raw sums cancel to the
    # centered factor; the rate keeps the coefficient stage finite there
    X, y = sample(SimModelSpec(3, 200), 2100, rng=d)
    X += offset
    cfg = SIRConfig(n_directions=d, **BENCH)
    if offset:
        cfg = replace(cfg, learning_rate=1e-10)
    fused = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    dense = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    for i in range(100, 2100):
        fused.observe(X[i], y[i])
        ccipca_observe_reference(dense, X[i], y[i])
    for attr in ("values", "vectors"):
        np.testing.assert_allclose(
            getattr(fused.eigen, attr), getattr(dense.eigen, attr), rtol=0, atol=1e-12
        )
    np.testing.assert_allclose(fused.directions(), dense.directions(), rtol=0, atol=1e-12)
    assert fused.eigen.reinit_count == dense.eigen.reinit_count


def _factor_calls(monkeypatch, tracker: str) -> Counter:
    """Calls of the builders of a p x H or p x p array (``slice_cov``,
    ``kernel_matrix``) and of the slice lookup made by two ``observe`` calls
    of a ``tracker`` model."""
    X, y = _model_one(n=102)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], SIRConfig(tracker=tracker, **BENCH))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        KernelTracker, "slice_cov", property(counted("slice_cov", KernelTracker.slice_cov.fget))
    )
    monkeypatch.setattr(
        KernelTracker, "kernel_matrix", counted("kernel_matrix", KernelTracker.kernel_matrix)
    )
    monkeypatch.setattr(SliceGrid, "slice_of", counted("slice_of", SliceGrid.slice_of))
    model.observe(X[100], y[100])
    model.observe(X[101], y[101])
    return calls


def test_ccipca_observe_builds_no_slice_factor(monkeypatch):
    assert _factor_calls(monkeypatch, "ccipca") == {"slice_of": 2}


@pytest.mark.parametrize("tracker", ["sgd", "ipca"])
def test_sgd_and_ipca_observe_build_no_slice_factor(monkeypatch, tracker):
    # both run on the kernel's thin products with the factor, as ccipca does
    assert _factor_calls(monkeypatch, tracker) == {"slice_of": 2}


def _state(model) -> dict:
    """Every checkpointed attribute of ``model`` as raw bytes."""
    return {key: np.asarray(value).tobytes() for key, _, _, value in model._checkpointed()}


def _collapse_facing_away(models, x, y) -> np.ndarray:
    """Collapse the last component of each of ``models``, all in one state,
    with its unit vector pointing away from the column of the deflated
    factor that re-seeds it at the next ``observe(x, y)``, so that the step
    must flip the reseeded component.  Returns that unit vector."""
    probe = copy.deepcopy(models[0])
    probe.observe(x, y)  # the components before the last one do not depend on it
    w = probe.kernel.slice_cov
    for u in probe.eigen.vectors[:, :-1].T:
        w = w - np.outer(u, u @ w)
    seed = w[:, np.argmax(np.linalg.norm(w, axis=0))]
    away = -seed / np.linalg.norm(seed)
    for model in models:
        model.eigen.values[-1] = 0.0
        model.eigen.vectors[:, -1] = away
    return away


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [20, 200])
def test_observe_is_bitwise_the_reference_chain(p, d, monkeypatch):
    X, y = sample(SimModelSpec(3, p), 2100, rng=p + d)
    cfg = SIRConfig(n_directions=d, **BENCH)
    lean = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    ref = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    for i in range(100, 2100):
        if i == 600:  # collapse one component: the step must reseed it and flip it
            away = _collapse_facing_away([lean, ref], X[i], y[i])
        if i == 1100:  # from here on the smallest eigenvalue is floored
            assert lean.degenerate_responses == 0
            floor = 2.0 * float(lean.eigen.values.min())
            monkeypatch.setattr(pipeline, "_EIGENVALUE_FLOOR", floor)
        lean.observe(X[i], y[i])
        observe_chain_reference(ref, X[i], y[i])
        if i == 600:
            assert lean.eigen.reinit_count == 1
            assert lean.eigen.vectors[:, -1] @ away > 0.0
    assert lean.degenerate_responses > 0
    assert lean.coef.truncation_zeros > 0
    assert _state(lean) == _state(ref)
    assert lean.directions().tobytes() == ref.directions().tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [20, 200])
def test_observe_stays_within_round_off_of_the_materialized_chain(p, d, monkeypatch):
    # the materialized-algebra oracle (dense factor, explicit deflation):
    # same stream, same collapse and floor change as the bitwise test,
    # within 1e-12
    X, y = sample(SimModelSpec(3, p), 2100, rng=p + d)
    cfg = SIRConfig(n_directions=d, **BENCH)
    lean = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    dense = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    for i in range(100, 2100):
        if i == 600:
            _collapse_facing_away([lean, dense], X[i], y[i])
        if i == 1100:
            floor = 2.0 * float(lean.eigen.values.min())
            monkeypatch.setattr(pipeline, "_EIGENVALUE_FLOOR", floor)
        lean.observe(X[i], y[i])
        ccipca_observe_reference(dense, X[i], y[i])
    assert lean.degenerate_responses == dense.degenerate_responses > 0
    assert lean.coef.truncation_zeros == dense.coef.truncation_zeros > 0
    assert lean.eigen.reinit_count == dense.eigen.reinit_count == 1
    for (key, _, _, value), (_, _, _, twin) in zip(lean._checkpointed(), dense._checkpointed()):
        np.testing.assert_allclose(value, twin, rtol=0, atol=1e-12, err_msg=key)
    np.testing.assert_allclose(lean.directions(), dense.directions(), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "bad", ["non-finite x", "wrong-length x", "NaN y", "-inf x", "inf y"]
)
@pytest.mark.parametrize("tracker", STRATEGIES)
def test_rejected_observation_leaves_the_state_unchanged(tmp_path, bad, tracker):
    X, y = _model_one(n=200)
    model = fit_online(X[:150], y[:150], SIRConfig(tracker=tracker, **BENCH), 100)
    x, yi = X[150].copy(), y[150]
    if bad == "non-finite x":
        x[3] = np.inf
    elif bad == "wrong-length x":
        x = x[:-1]
    elif bad == "-inf x":
        x[0] = -np.inf
    elif bad == "inf y":
        yi = np.inf
    else:
        yi = np.nan
    model.save(tmp_path / "before.npz")
    with pytest.raises(DataError):
        model.observe(x, yi)
    model.save(tmp_path / "after.npz")
    with np.load(tmp_path / "before.npz") as before, np.load(tmp_path / "after.npz") as after:
        assert before.files == after.files
        for key in before.files:
            assert before[key].dtype == after[key].dtype, key
            assert before[key].tobytes() == after[key].tobytes(), key
    model.check_counters()


@pytest.mark.parametrize("tracker", STRATEGIES)
def test_diverged_coefficients_raise_and_leave_the_state_unchanged(tmp_path, tracker):
    X, y = _model_one(n=200)
    model = fit_online(X[:150], y[:150], SIRConfig(tracker=tracker, **BENCH), 100)
    model.coef.betas[:] = 1e308 * np.sign(X[150])[:, None]  # b'x overflows
    model.save(tmp_path / "before.npz")
    with pytest.raises(ConvergenceError, match="t = 151"):
        model.observe(X[150], y[150])
    model.save(tmp_path / "after.npz")
    with np.load(tmp_path / "before.npz") as before, np.load(tmp_path / "after.npz") as after:
        assert before.files == after.files
        for key in before.files:
            assert before[key].tobytes() == after[key].tobytes(), key
    model.check_counters()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_diverging_stream_raises_instead_of_returning_nan():
    # the coefficient step is LMS on uncentered x: with every covariate
    # shifted by 1e4, rate |mean|^2 > 1 and the recursion diverges; the
    # error is the report, with no overflow warning before it
    X, y = sample(SimModelSpec(1, 10), 400, rng=0)
    with pytest.raises(ConvergenceError, match="diverged"):
        fit_online(X + 1e4, y)


def test_a_stream_whose_last_row_overflows_the_coefficients_raises():
    # no later prediction catches coefficients that overflow on the last
    # row; fit_stream checks them after the loop
    X, y = sample(SimModelSpec(1, 10), 400, rng=2)
    X = X + 1e4
    model = OnlineSparseSIR.warmup(X[:DEFAULT_WARMUP], y[:DEFAULT_WARMUP], SIRConfig())
    with np.errstate(over="ignore"):
        for last in range(DEFAULT_WARMUP, y.size):
            model.observe(X[last], y[last])
            if not np.isfinite(model.coef.betas).all():
                break
    assert not np.isfinite(model.coef.betas).all()
    with np.errstate(over="ignore"), pytest.raises(
        ConvergenceError, match=f"last observation, t = {last + 1}$"
    ):
        fit_online(X[: last + 1], y[: last + 1])


def test_model_one_stream_recovers_the_direction():
    X, y = _model_one(n=1000, seed=0)
    model = fit_online(X, y, SIRConfig(**BENCH), warmup_size=100)
    d = subspace_distance(true_betas(SimModelSpec(1, 20)), model.directions())
    assert d < 0.05


def test_identical_streams_give_identical_estimates():
    X, y = _model_one(n=600)
    cfg = SIRConfig(**BENCH)
    a = fit_online(X, y, cfg, warmup_size=100)
    b = fit_online(X, y, cfg, warmup_size=100)
    np.testing.assert_array_equal(a.coef.betas, b.coef.betas)
    np.testing.assert_array_equal(a.eigen.vectors, b.eigen.vectors)


@pytest.mark.parametrize("tracker", ["perturbation", "sgd", "ipca"])
def test_alternative_trackers_run_the_full_chain(tracker):
    X, y = _model_one(n=800)
    cfg = SIRConfig(tracker=tracker, **BENCH)
    model = fit_online(X, y, cfg, warmup_size=100)
    model.check_counters()
    d = subspace_distance(true_betas(SimModelSpec(1, 20)), model.directions())
    assert d < 0.3  # wiring check; convergence quality is tested elsewhere


def test_dense_state_appears_only_for_perturbation():
    X, y = _model_one(n=400)
    lean = fit_online(X, y, SIRConfig(**BENCH), warmup_size=100)
    assert lean.eigen.averaged_kernel is None
    assert lean.kernel.dense_builds == 0
    dense = fit_online(X, y, SIRConfig(tracker="perturbation", **BENCH), 100)
    assert dense.eigen.averaged_kernel is not None
    assert dense.kernel.dense_builds == 301  # one at init plus one per step


def test_counter_drift_is_detected():
    X, y = _model_one(n=300)
    model = fit_online(X, y, SIRConfig(**BENCH), warmup_size=100)
    model.coef.step += 1
    with pytest.raises(AssertionError):
        model.check_counters()


def test_stream_validation():
    X, y = _model_one(n=200)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], SIRConfig())
    with pytest.raises(DataError):
        fit_stream(model, X[100:], y[100:150])
    with pytest.raises(ConfigurationError):
        fit_stream(model, X[100:], y[100:], progress=print, progress_every=0)
    with pytest.raises(ConfigurationError):
        fit_online(X, y, warmup_size=200)
    with pytest.raises(DataError, match="one response per row"):
        fit_online(X, y[:150])


@pytest.mark.parametrize("warmup_size", [0, -5])
def test_fit_online_rejects_a_warmup_below_one(warmup_size):
    # X[:-5] as the warmup and then X[-5:] streamed would see rows twice
    X, y = _model_one(n=300)
    with pytest.raises(ConfigurationError, match="warmup_size must be at least 1"):
        fit_online(X, y, SIRConfig(**BENCH), warmup_size=warmup_size)


# -- direction readout ------------------------------------------------------------


def test_directions_are_unit_normalized():
    X, y = _model_one(n=150)
    model = OnlineSparseSIR.warmup(X[:150], y[:150], SIRConfig())
    model.coef.betas[:] = 0.0
    model.coef.betas[0, 0] = 2.0
    out = model.directions()
    expected = np.zeros((20, 1))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(out, expected, atol=1e-15)
    assert not np.shares_memory(out, model.coef.betas)  # a new array, not a view


def test_nonzeros_count_features_not_coefficients():
    # one support rule: a feature counts once, however many directions use it
    X, y = sample(SimModelSpec(3, 10), 150, rng=2)
    model = OnlineSparseSIR.warmup(X, y, SIRConfig(n_slices=5, n_directions=2))
    model.coef.betas[0, :] = [1.0, -2.0]
    model.coef.betas[3, 1] = 0.5
    assert active_features(model.coef.betas) == model.coef.nonzero_count() == 2
    assert model.diagnostics()["nonzeros"] == 2


def test_zero_column_is_flagged_not_normalized():
    X, y = sample(SimModelSpec(3, 10), 150, rng=2)
    cfg = SIRConfig(n_slices=5, n_directions=2)
    model = OnlineSparseSIR.warmup(X, y, cfg)
    model.coef.betas[:, 0] = 0.0
    model.coef.betas[2, 1] = -1.5
    np.testing.assert_array_equal(model.zero_direction_flags, [True, False])
    out = model.directions()
    np.testing.assert_array_equal(out[:, 0], np.zeros(10))
    assert np.linalg.norm(out[:, 1]) == pytest.approx(1.0)


def test_directions_match_the_masked_division_bit_for_bit():
    # each column is divided by its norm, a zero column by 1, which leaves
    # it as it is: the same bits as dividing only the nonzero columns
    X, y = sample(SimModelSpec(3, 20), 600, rng=4)
    model = fit_online(X, y, SIRConfig(n_directions=2, **BENCH), warmup_size=100)
    for zero_column in (False, True):
        if zero_column:
            model.coef.betas[:, 0] = 0.0
        expected = model.coef.betas.copy(order="K")
        norms = np.linalg.norm(expected, axis=0)
        good = norms > 0
        expected[:, good] /= norms[good]
        out = model.directions()
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert model.zero_direction_flags.tolist() == [zero_column, False]
    np.testing.assert_array_equal(out[:, 0], np.zeros(20))


def test_model_two_direction_recovery():
    spec = SimModelSpec(2, 20)
    beta = true_betas(spec)
    dists = []
    for seed in range(3):
        X, y = sample(spec, 2000, rng=seed)
        model = fit_online(X, y, SIRConfig(**BENCH), warmup_size=100)
        dists.append(subspace_distance(beta, model.directions()))
    assert np.median(dists) < 0.1


# -- invariants ------------------------------------------------------------


def test_distance_trend_improves_with_data():
    # median over 20 seeds must drop from t=200 to t=1000 streamed
    for model_id, p in [(1, 20), (2, 20), (3, 10)]:
        spec = SimModelSpec(model_id, p)
        beta = true_betas(spec)
        cfg = SIRConfig(n_directions=spec.n_directions, **BENCH)
        early, late = [], []
        for seed in range(20):
            X, y = sample(spec, 1100, rng=5000 + seed)
            model = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
            fit_stream(model, X[100:300], y[100:300])
            early.append(subspace_distance(beta, model.directions()))
            fit_stream(model, X[300:1100], y[300:1100])
            late.append(subspace_distance(beta, model.directions()))
        assert np.median(late) < np.median(early), f"model {model_id}"


def test_covariate_scale_equivariance():
    # with truncation off, rescaling x by c (warmup included) and the
    # learning rate by 1/c^2 (its units are 1/x^2) reproduces the same
    # normalized direction; for the default tracker the chain is exactly
    # homothetic, so the angle is zero up to floating point
    X, y = _model_one(n=2000, seed=3)
    a = fit_online(X, y, SIRConfig(learning_rate=1e-3, gravity=0.0), 100)
    b = fit_online(2.0 * X, y, SIRConfig(learning_rate=2.5e-4, gravity=0.0), 100)
    angle = principal_angle(a.directions(), b.directions())
    assert angle < 0.05
    assert angle < 1e-9


def test_progress_reporting():
    X, y = _model_one(n=600)
    beta = true_betas(SimModelSpec(1, 20))
    seen = []
    model = OnlineSparseSIR.warmup(X[:100], y[:100], SIRConfig(**BENCH))

    def report(info):  # the callback holds the model, so it adds the distance
        info["distance"] = subspace_distance(beta, model.directions())
        seen.append(info)

    fit_stream(model, X[100:600], y[100:600], progress=report, progress_every=100)
    assert [info["t"] for info in seen] == [200, 300, 400, 500, 600]
    assert all(np.isfinite(info["distance"]) for info in seen)
    assert all(info["eigenvalues"].shape == (1,) for info in seen)
    assert all(isinstance(info["nonzeros"], int) for info in seen)


def test_progress_follows_the_observation_count_across_calls(monkeypatch):
    # the cadence is on model.t, so splitting the stream moves no report,
    # and each report is the model's diagnostics record at that t
    monkeypatch.setattr(pipeline, "_EIGENVALUE_FLOOR", 10.0)
    X, y = _model_one(n=400)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], SIRConfig(**BENCH))
    seen = []

    def report(info):
        expected = model.diagnostics()
        assert set(expected) == {"t", "eigenvalues", "nonzeros", "reinit_count",
                                 "degenerate_responses"}
        np.testing.assert_array_equal(info["eigenvalues"], expected.pop("eigenvalues"))
        info["eigenvalues"][:] = -1.0  # a copy: the tracker keeps its values
        assert {k: v for k, v in info.items() if k != "eigenvalues"} == expected
        seen.append(info)

    fit_stream(model, X[100:150], y[100:150], progress=report, progress_every=100)
    fit_stream(model, X[150:400], y[150:400], progress=report, progress_every=100)
    assert [info["t"] for info in seen] == [200, 300, 400]
    assert seen[-1]["degenerate_responses"] > 0
    assert np.all(model.eigen.values > 0)


# -- persistence ------------------------------------------------------------


def test_save_load_resume_equivalence(tmp_path):
    X, y = _model_one(n=900)
    cfg = SIRConfig(tracker="ipca", threshold=5.0, **BENCH)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    fit_stream(model, X[100:500], y[100:500])
    path = tmp_path / "checkpoint.npz"
    model.save(path)
    restored = OnlineSparseSIR.load(path)
    assert restored.config == cfg
    np.testing.assert_array_equal(restored.coef.betas, model.coef.betas)
    fit_stream(model, X[500:900], y[500:900])
    fit_stream(restored, X[500:900], y[500:900])
    np.testing.assert_array_equal(restored.coef.betas, model.coef.betas)
    np.testing.assert_array_equal(restored.eigen.vectors, model.eigen.vectors)
    restored.check_counters()


def test_save_preserves_diagnostics(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_EIGENVALUE_FLOOR", 10.0)
    X, y = _model_one(n=300)
    cfg = SIRConfig(**BENCH)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    model.observe(X[100], y[100])
    assert model.degenerate_responses >= 1
    path = tmp_path / "state.npz"
    model.save(path)
    assert OnlineSparseSIR.load(path).degenerate_responses == model.degenerate_responses


@pytest.mark.parametrize("threshold", [math.inf, 5.0])
@pytest.mark.parametrize("tracker", STRATEGIES)
def test_checkpoint_round_trips_every_strategy(tmp_path, tracker, threshold):
    X, y = _model_one(n=500)
    cfg = SIRConfig(tracker=tracker, threshold=threshold, **BENCH)
    model = fit_online(X[:300], y[:300], cfg, warmup_size=100)
    model.save(tmp_path / "model.npz")
    restored = OnlineSparseSIR.load(tmp_path / "model.npz")
    assert_same_state(model, restored)
    fit_stream(model, X[300:], y[300:])
    fit_stream(restored, X[300:], y[300:])
    assert_same_state(model, restored)
    restored.check_counters()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("tracker", STRATEGIES)
def test_checkpoint_round_trips_bitwise_into_owned_arrays(tmp_path, tracker, d):
    X, y = sample(SimModelSpec(3, 20), 300, rng=5)
    model = fit_online(X, y, SIRConfig(tracker=tracker, n_directions=d, **BENCH), 100)
    model.save(tmp_path / "model.npz")
    restored = OnlineSparseSIR.load(tmp_path / "model.npz")
    assert_same_state(model, restored)
    restored.save(tmp_path / "again.npz")
    with np.load(tmp_path / "model.npz") as first, np.load(tmp_path / "again.npz") as again:
        assert first.files == again.files
        for key in first.files:
            assert first[key].dtype == again[key].dtype, key
            assert first[key].tobytes() == again[key].tobytes(), key
    # no restored array is a view of a decoded vector (whose memory would be
    # larger than the array) or shares memory with another, apart from the
    # two views of the slice-sum block
    kernel = restored.kernel
    stages = (kernel, kernel.grid, restored.eigen, restored.coef)
    arrays = {name: value for stage in stages for name, value in vars(stage).items()
              if isinstance(value, np.ndarray)}
    views = {"block": {"block", "cross_sum", "x_sum"},
             "cross_sum": {"block", "cross_sum"}, "x_sum": {"block", "x_sum"}}
    for name, array in arrays.items():
        root = array
        while isinstance(root.base, np.ndarray):
            root = root.base
        assert root is kernel.block if name in views else root.nbytes == array.nbytes, name
        shared = {other for other, value in arrays.items() if np.shares_memory(array, value)}
        assert shared == views.get(name, {name}), name


@pytest.mark.parametrize("p", [20, 40])
def test_checkpoint_round_trips_the_perturbation_bounds(tmp_path, p):
    # below 40 features the solves never run, so no certificate proves the
    # eigenvalue bounds and they stay +inf; from 40 on they are finite
    X, y = _model_one(n=400, p=p)
    model = fit_online(X[:250], y[:250], SIRConfig(tracker="perturbation", **BENCH), 100)
    bounds = (model.eigen.top_bound, model.eigen.second_bound)
    assert all(math.isinf(b) == (p < 40) for b in bounds), bounds
    model.save(tmp_path / "model.npz")
    restored = OnlineSparseSIR.load(tmp_path / "model.npz")
    assert_same_state(model, restored)
    fit_stream(model, X[250:], y[250:])
    fit_stream(restored, X[250:], y[250:])
    assert_same_state(model, restored)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("name", ["top_bound", "second_bound"])
def test_checkpoint_with_an_impossible_bound_fails_loudly(tmp_path, name, value):
    # +inf is an unproved bound; nan and -inf bound nothing
    model, arrays = _saved(tmp_path, "perturbation")
    floats = arrays["pipe_floats"]
    at = floats.size - model.coef.betas.size - (2 if name == "top_bound" else 1)
    assert floats[at] == getattr(model.eigen, name) == math.inf
    floats[at] = value
    path = tmp_path / "broken.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape(f"{path}: eigen_{name} holds a non-finite")):
        OnlineSparseSIR.load(path)


def test_save_of_a_non_finite_state_raises_and_writes_nothing(tmp_path):
    X, y = _model_one(n=300)
    model = fit_online(X, y, SIRConfig(**BENCH), warmup_size=100)
    path = tmp_path / "model.npz"
    model.save(path)
    before = path.read_bytes()
    model.coef.betas[3, 0] = np.inf
    with pytest.raises(ConvergenceError, match="coef_betas is not finite"):
        model.save(path)
    assert os.listdir(tmp_path) == ["model.npz"]
    assert path.read_bytes() == before
    with pytest.raises(ConvergenceError):
        model.save(tmp_path / "fresh.npz")
    assert os.listdir(tmp_path) == ["model.npz"]


def test_checkpoint_with_a_non_finite_value_fails_loudly(tmp_path):
    model, arrays = _saved(tmp_path, "ccipca")
    floats = arrays["pipe_floats"]
    betas = floats[-model.coef.betas.size:]
    np.testing.assert_array_equal(betas, model.coef.betas.ravel(order="F"))
    betas[3] = np.inf
    path = tmp_path / "broken.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape(f"{path}: coef_betas holds a non-finite value")):
        OnlineSparseSIR.load(path)


def test_checkpoint_with_a_non_integer_config_field_fails_loudly(tmp_path):
    arrays = _saved_arrays(tmp_path)
    raw = json.loads(str(arrays["pipe_config"]))
    raw["period"] = 2.5
    arrays["pipe_config"] = np.asarray(json.dumps(raw))
    path = tmp_path / "broken.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape("period must be a positive integer, got 2.5")):
        OnlineSparseSIR.load(path)


def _saved(tmp_path, tracker="ipca"):
    """A model streamed past its warmup, and the members of its checkpoint."""
    X, y = _model_one(n=300)
    model = fit_online(X, y, SIRConfig(tracker=tracker, **BENCH), warmup_size=100)
    model.save(tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as handle:
        return model, {key: handle[key] for key in handle.files}


def _saved_arrays(tmp_path, tracker="ipca"):
    return _saved(tmp_path, tracker)[1]


def _format_2_arrays(model):
    """The checkpoint format 2 wrote: one member per attribute, with the
    slice sums and the covariate sum as two arrays (less ccipca's component
    vectors, which the tracker no longer keeps)."""
    kernel, grid, eigen, coef = model.kernel, model.kernel.grid, model.eigen, model.coef
    arrays = {
        "pipe_format": np.asarray(2),
        "pipe_config": np.asarray(json.dumps(asdict(model.config))),
        "pipe_warmup_size": np.asarray(model.warmup_size),
        "pipe_degenerate_responses": np.asarray(model.degenerate_responses),
        "kernel_t": np.asarray(kernel.t),
        "kernel_x_sum": kernel.x_sum.copy(),
        "kernel_cross_sum": kernel.cross_sum.copy(),
        "grid_cuts": grid.cuts,
        "grid_counts": grid.counts,
        "eigen_values": eigen.values,
        "eigen_vectors": eigen.vectors,
        "eigen_step": np.asarray(eigen.step),
        "eigen_reinit_count": np.asarray(eigen.reinit_count),
        "coef_betas": coef.betas,
        "coef_step": np.asarray(coef.step),
        "coef_truncation_zeros": np.asarray(coef.truncation_zeros),
    }
    if eigen.averaged_kernel is not None:
        arrays["eigen_averaged_kernel"] = eigen.averaged_kernel
    return arrays


def _length_error(key, stored, implied, dtype):
    return (f"{key} holds {stored.dtype} of shape {stored.shape}, "
            f"the config implies {dtype} of length {implied}")


def test_loaded_sums_are_views_of_one_block(tmp_path):
    # load fills the block in place, so cross_sum and x_sum stay its views,
    # and a resumed stream equals the live one
    X, y = _model_one(n=600)
    model = fit_online(X[:300], y[:300], SIRConfig(**BENCH), warmup_size=100)
    model.save(tmp_path / "model.npz")
    restored = OnlineSparseSIR.load(tmp_path / "model.npz")
    fit_stream(model, X[300:], y[300:])
    kernel = restored.kernel
    assert np.shares_memory(kernel.cross_sum, kernel.block)
    assert np.shares_memory(kernel.x_sum, kernel.block)
    fit_stream(restored, X[300:], y[300:])
    assert np.shares_memory(kernel.x_sum, kernel.block)
    assert_same_state(model, restored)


def test_checkpoint_stores_the_config_once(tmp_path):
    model, arrays = _saved(tmp_path, "ccipca")
    assert sorted(arrays) == ["pipe_config", "pipe_floats", "pipe_format", "pipe_ints"]
    assert arrays["pipe_format"] == CHECKPOINT_FORMAT == 8
    assert arrays["pipe_floats"].dtype == np.float64 and arrays["pipe_ints"].dtype == np.int64
    assert arrays["pipe_ints"][0] == model.n_features


# each case cuts a packed vector short or extends it, as a stored array of
# another shape would: p = 20, H = 10 and d = 1
@pytest.mark.parametrize(
    "tracker, key, cut",
    [
        ("ccipca", "pipe_floats", lambda a: a[:-5 * 20]),  # five slice-sum columns
        ("ccipca", "pipe_floats", lambda a: a[:-10]),  # ten coefficient rows
        ("ccipca", "pipe_floats", lambda a: np.concatenate([a, a[-20:]])),  # d = 2
        ("ipca", "pipe_ints", lambda a: a[:-1]),
        ("perturbation", "pipe_floats", lambda a: a[:-(2 * 20 - 1)]),  # 19 x 19 kernel
        ("ccipca", "pipe_ints", lambda a: a.astype(float)),
    ],
    ids=["columns_cut", "rows_cut", "wrong_d", "wrong_length", "perturbation", "wrong_dtype"],
)
def test_checkpoint_with_a_wrong_shape_fails_loudly(tmp_path, tracker, key, cut):
    arrays = _saved_arrays(tmp_path, tracker)
    implied, dtype = arrays[key].size, arrays[key].dtype
    arrays[key] = cut(arrays[key])
    np.savez(tmp_path / "broken.npz", **arrays)
    message = _length_error(key, arrays[key], implied, dtype)
    with pytest.raises(DataError, match=re.escape(message)):
        OnlineSparseSIR.load(tmp_path / "broken.npz")


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c[::-1],
        lambda c: np.where(np.arange(c.size) == 4, np.nan, c),
        lambda c: np.where(np.arange(c.size) == c.size - 1, np.inf, c),
    ],
    ids=["reversed", "nan", "inf"],
)
def test_checkpoint_with_invalid_grid_cuts_fails_loudly(tmp_path, edit):
    model, arrays = _saved(tmp_path, "ccipca")
    cuts = arrays["pipe_floats"][model.kernel.block.size:][:model.kernel.grid.cuts.size]
    np.testing.assert_array_equal(cuts, model.kernel.grid.cuts)  # the slice after the block
    cuts[:] = edit(cuts.copy())
    path = tmp_path / "broken.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape(f"{path}: grid_cuts")):
        OnlineSparseSIR.load(path)


def test_checkpoint_in_the_format_2_layout_fails_loudly(tmp_path):
    model, _ = _saved(tmp_path, "ccipca")
    arrays = _format_2_arrays(model)
    assert len(arrays) == 16
    np.savez(tmp_path / "format2.npz", **arrays)
    with pytest.raises(DataError, match=f"checkpoint format 2, but only format {CHECKPOINT_FORMAT}"):
        OnlineSparseSIR.load(tmp_path / "format2.npz")


def test_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    X, y = _model_one(n=300)
    model = fit_online(X, y, SIRConfig(**BENCH), warmup_size=100)
    model.save(tmp_path / "model")  # np.savez's rule: the suffix is appended
    assert os.listdir(tmp_path) == ["model.npz"]
    before = (tmp_path / "model.npz").read_bytes()
    model.observe(X[0], y[0])
    original, written = np.lib.format.write_array, []

    def failing(fp, array, *args, **kwargs):
        if written:
            raise OSError("disk full")
        written.append(array)
        original(fp, array, *args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", failing)
    with pytest.raises(OSError, match="disk full"):
        model.save(tmp_path / "model.npz")
    assert len(written) == 1  # the save failed partway through the file
    assert os.listdir(tmp_path) == ["model.npz"]
    assert (tmp_path / "model.npz").read_bytes() == before


@pytest.mark.parametrize(
    "tracker, key",
    [
        ("ipca", "kernel_cross_sum"),
        ("ipca", "eigen_vectors"),
        ("ipca", "coef_betas"),
        ("ipca", "pipe_config"),
        ("perturbation", "eigen_averaged_kernel"),
        ("ipca", "pipe_format"),
        ("ipca", "pipe_floats"),
        ("ipca", "pipe_ints"),
    ],
)
def test_checkpoint_missing_a_key_fails_loudly(tmp_path, tracker, key):
    # a missing member fails by name; state missing from a packed vector
    # fails by that vector's length
    model, arrays = _saved(tmp_path, tracker)
    if key in arrays:
        del arrays[key]
        message = "format None" if key == "pipe_format" else f"lacks the key '{key}'"
    else:
        stage, attr = key.split("_", 1)
        state = getattr(getattr(model, stage), attr)
        member = "pipe_floats" if state.dtype.kind == "f" else "pipe_ints"
        implied = arrays[member].size
        arrays[member] = arrays[member][: implied - state.size]
        message = _length_error(member, arrays[member], implied, arrays[member].dtype)
    np.savez(tmp_path / "broken.npz", **arrays)
    with pytest.raises(DataError, match=re.escape(message)):
        OnlineSparseSIR.load(tmp_path / "broken.npz")


@pytest.mark.parametrize("p", [0, -3, 10**12])
def test_checkpoint_with_an_impossible_feature_count_fails_loudly(tmp_path, p):
    # checked against the stored floats before a model of that size is built
    arrays = _saved_arrays(tmp_path, "ccipca")
    arrays["pipe_ints"][0] = p
    np.savez(tmp_path / "broken.npz", **arrays)
    with pytest.raises(DataError, match="pipe_ints must start with the feature count"):
        OnlineSparseSIR.load(tmp_path / "broken.npz")


def test_checkpoint_relabelled_to_another_tracker_fails_loudly(tmp_path):
    # a perturbation file holds a p x p averaged kernel and two eigenvalue
    # bounds, so read as ccipca its float vector has the wrong length
    model, arrays = _saved(tmp_path, "perturbation")
    raw = json.loads(str(arrays["pipe_config"]))
    raw["tracker"] = "ccipca"
    arrays["pipe_config"] = np.asarray(json.dumps(raw))
    np.savez(tmp_path / "relabelled.npz", **arrays)
    p, floats = model.n_features, arrays["pipe_floats"]
    message = _length_error("pipe_floats", floats, floats.size - p * p - 2, floats.dtype)
    with pytest.raises(DataError, match=re.escape(message)):
        OnlineSparseSIR.load(tmp_path / "relabelled.npz")


def test_checkpoint_with_an_unknown_config_field_fails_loudly(tmp_path):
    arrays = _saved_arrays(tmp_path)
    raw = json.loads(str(arrays["pipe_config"]))
    raw["centering"] = "exact"
    arrays["pipe_config"] = np.asarray(json.dumps(raw))
    np.savez(tmp_path / "broken.npz", **arrays)
    with pytest.raises(DataError, match="centering"):
        OnlineSparseSIR.load(tmp_path / "broken.npz")


def test_checkpoint_whose_count_disagrees_with_its_slices_fails_loudly(tmp_path):
    # pipe_ints is [p, kernel_t, grid_counts, ...]: a t that is not the sum
    # of the slice counts would load and bias every later kernel update
    model, arrays = _saved(tmp_path, "ccipca")
    H = model.config.n_slices
    np.testing.assert_array_equal(arrays["pipe_ints"][1:H + 2],
                                  [model.t, *model.kernel.grid.counts])
    arrays["pipe_ints"][1] += 50
    path = tmp_path / "broken.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape(
            f"{path}: kernel_t is {model.t + 50}, but grid_counts sum to {model.t}")):
        OnlineSparseSIR.load(path)


def test_checkpoint_with_a_negative_slice_count_fails_loudly(tmp_path):
    # moving counts between slices keeps their sum, so the kernel_t check
    # alone would load a negative count
    model, arrays = _saved(tmp_path, "ccipca")
    H = model.config.n_slices
    counts = arrays["pipe_ints"][2:H + 2]
    np.testing.assert_array_equal(counts, model.kernel.grid.counts)
    moved = counts[0] + 1
    counts[0] -= moved
    counts[1] += moved
    path = tmp_path / "broken.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape(
            f"{path}: grid_counts hold a negative count, {counts.tolist()}")):
        OnlineSparseSIR.load(path)


@pytest.mark.parametrize("attr, rank", [("top_bound", 1), ("second_bound", 2)])
def test_checkpoint_with_an_eigenvalue_bound_below_its_eigenvalue_fails_loudly(
        tmp_path, attr, rank):
    # a carried bound that is too low would let the perturbation step skip
    # the certificate it needs, so load checks each finite bound against
    # eigvalsh of the stored average
    X, y = _model_one(n=400, p=40)
    model = fit_online(X, y, SIRConfig(tracker="perturbation", **BENCH), warmup_size=100)
    eigen = model.eigen
    assert math.isfinite(eigen.top_bound) and math.isfinite(eigen.second_bound)
    model.save(tmp_path / "model.npz")
    assert_same_state(OnlineSparseSIR.load(tmp_path / "model.npz"), model)
    eigenvalue = np.linalg.eigvalsh(eigen.averaged_kernel)[-rank]
    assert eigenvalue > 1e-3
    setattr(eigen, attr, 0.0)
    path = tmp_path / "broken.npz"
    model.save(path)
    with pytest.raises(DataError, match=re.escape(f"{path}: eigen_{attr} is 0.0, below")):
        OnlineSparseSIR.load(path)


# 3 and 4 are the formats before the config lost its retired fields, 5 the
# one before the perturbation tracker's eigenvalue bounds, 6 the one with
# the ipca tracker's per-slice response sums, 7 the one with ccipca's raw
# component vectors
@pytest.mark.parametrize("version", [1, 3, 4, 5, 6, 7, 9])
def test_checkpoint_of_another_format_fails_loudly(tmp_path, version):
    arrays = _saved_arrays(tmp_path)
    arrays["pipe_format"] = np.asarray(version)
    path = tmp_path / "other.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape(f"{path}: checkpoint format {version},")):
        OnlineSparseSIR.load(path)


def test_checkpoint_in_the_layout_before_format_numbers_fails_loudly(tmp_path):
    # the earlier layout: no format key, a kernel centering mode and a
    # centering field in the stored config
    arrays = _format_2_arrays(_saved(tmp_path)[0])
    del arrays["pipe_format"]
    arrays["kernel_centering"] = np.asarray("exact")
    raw = json.loads(str(arrays["pipe_config"]))
    raw["centering"] = "exact"
    arrays["pipe_config"] = np.asarray(json.dumps(raw))
    np.savez(tmp_path / "old.npz", **arrays)
    with pytest.raises(DataError, match="format None"):
        OnlineSparseSIR.load(tmp_path / "old.npz")


def test_damaged_checkpoint_loads_the_same_state_or_fails_loudly(tmp_path):
    # every single-byte flip and every seventh truncation of a small file:
    # zipfile's CRC and numpy's header checks catch most damage, and whatever
    # they raise (BadZipFile, EOFError, NotImplementedError, ...) becomes a
    # DataError naming the file; damage to bytes nobody reads (such as a zip
    # timestamp) loads the same state, and none loads a different one
    X, y = sample(SimModelSpec(1, 4), 60, rng=3)
    model = fit_online(X, y, SIRConfig(n_slices=3), warmup_size=30)
    good = tmp_path / "good.npz"
    model.save(good)
    data = good.read_bytes()
    expected = OnlineSparseSIR.load(good)
    path = tmp_path / "damaged.npz"
    outcomes = Counter()
    flips = (data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:] for i in range(len(data)))
    truncations = (data[:n] for n in range(0, len(data), 7))
    for damaged in (*flips, *truncations):
        path.write_bytes(damaged)
        try:
            loaded = OnlineSparseSIR.load(path)
        except DataError as exc:
            assert str(exc).startswith(str(path)), exc
            outcomes["DataError"] += 1
        else:
            assert_same_state(loaded, expected)
            outcomes["same"] += 1
    assert outcomes["DataError"] > outcomes["same"] > 0


@pytest.mark.parametrize(
    "edit",
    [lambda text: text[:-1], lambda text: text.replace('"n_slices": 10', '"n_slices": "ten"')],
    ids=["bad_json", "non_numeric_field"],
)
def test_checkpoint_with_an_undecodable_config_fails_loudly(tmp_path, edit):
    arrays = _saved_arrays(tmp_path)
    text = str(arrays["pipe_config"])
    assert edit(text) != text
    arrays["pipe_config"] = np.asarray(edit(text))
    path = tmp_path / "broken.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape(f"{path}: not a readable checkpoint")):
        OnlineSparseSIR.load(path)


def test_a_missing_checkpoint_stays_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        OnlineSparseSIR.load(tmp_path / "absent.npz")


# -- memory layout --------------------------------------------------------------


def _assert_column_major(model, when):
    """The p-sized arrays of the ccipca path are column-major.  With d = 2
    and H = 10 none of them is both C- and F-contiguous, so the check bites."""
    hot = {
        "block": model.kernel.block,
        "cross_sum": model.kernel.cross_sum,
        "vectors": model.eigen.vectors,
        "betas": model.coef.betas,
    }
    for name, array in hot.items():
        assert not array.flags.c_contiguous, f"{name} {when}"
        assert array.flags.f_contiguous, f"{name} is not column-major {when}"


def test_hot_state_stays_column_major(tmp_path):
    X, y = sample(SimModelSpec(3, 20), 400, rng=5)
    cfg = SIRConfig(n_directions=2, **BENCH)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], cfg)
    _assert_column_major(model, "after warmup")

    fit_stream(model, X[100:110], y[100:110])
    assert model.coef.step % cfg.period == 0  # the last step truncated
    _assert_column_major(model, "after a truncating step")

    away = _collapse_facing_away([model], X[110], y[110])
    model.observe(X[110], y[110])  # re-seeds the collapsed component and flips it
    assert model.eigen.reinit_count == 1
    assert model.eigen.vectors[:, 1] @ away > 0.0
    _assert_column_major(model, "after a reseed and a sign flip")

    fit_stream(model, X[111:300], y[111:300])
    path = tmp_path / "model.npz"
    model.save(path)
    restored = OnlineSparseSIR.load(path)
    _assert_column_major(restored, "after load")
    assert_same_state(model, restored)

    # the float vector holds each array raveled in column-major order: the
    # block first, the coefficients last
    with np.load(path) as handle:
        floats = handle["pipe_floats"]
    block, betas = model.kernel.block, model.coef.betas
    np.testing.assert_array_equal(floats[:block.size], block.ravel(order="F"))
    np.testing.assert_array_equal(floats[-betas.size:], betas.ravel(order="F"))

    fit_stream(model, X[300:], y[300:])
    fit_stream(restored, X[300:], y[300:])
    _assert_column_major(restored, "after streaming on from a loaded model")
    assert_same_state(model, restored)
