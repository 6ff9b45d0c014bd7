"""Online eigen-trackers against dense-solver oracles."""

import copy
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsir import (
    STRATEGIES,
    ConfigurationError,
    DataError,
    DegenerateDataError,
    DenseOnlineSIR,
    EigenTracker,
    KernelTracker,
    OnlineSparseSIR,
    SIRConfig,
    SimModelSpec,
    SliceGrid,
    TrackerConfig,
    dense_top_eigen,
    fit_online,
    sample,
)
from streamsir import eigen as eigen_module
from .helpers import (
    PINV_CUTOFF,
    assert_same_state,
    ccipca_step_reference,
    eigen_chain_reference,
    kernel_of,
    perturbation_step_reference,
    principal_angle,
    random_stream,
    top_eigen_oracle,
)


def _cfg(strategy="ccipca", **kw):
    return TrackerConfig(strategy=strategy, **kw)


def _stub_kernel(factor):
    """Duck-typed stand-in carrying a fixed slice factor."""
    factor = np.asarray(factor, dtype=float)
    H = factor.shape[1]
    sym = factor @ factor.T / H
    return SimpleNamespace(slice_cov=factor, kernel_matrix=lambda: (sym + sym.T) / 2)


# -- initialization ------------------------------------------------------------


def test_init_matches_dense_oracle():
    rng = np.random.default_rng(0)
    X, y = random_stream(rng, 120, 10)
    grid = SliceGrid.from_warmup(y, 5)
    kernel = KernelTracker(grid, 10)
    kernel.replay(X, y)
    tracker = EigenTracker.from_kernel(kernel, 2, _cfg())
    vals, vecs = dense_top_eigen(kernel.kernel_matrix(), 2)
    np.testing.assert_allclose(tracker.values, vals, atol=1e-8)
    for j in range(2):
        assert abs(tracker.vectors[:, j] @ vecs[:, j]) == pytest.approx(1.0, abs=1e-8)


def test_init_on_a_diagonal_kernel():
    # factor chosen so the kernel matrix is exactly diag(3, 1, 0)
    factor = np.zeros((3, 2))
    factor[0, 0] = np.sqrt(6.0)
    factor[1, 1] = np.sqrt(2.0)
    tracker = EigenTracker.from_kernel(_stub_kernel(factor), 1, _cfg())
    assert tracker.values[0] == pytest.approx(3.0, abs=1e-12)
    assert abs(tracker.vectors[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_init_validation():
    factor = np.eye(4)[:, :3]
    with pytest.raises(ConfigurationError):
        EigenTracker.from_kernel(_stub_kernel(factor), 4, _cfg())  # d > H
    with pytest.raises(ConfigurationError):
        EigenTracker.from_kernel(_stub_kernel(factor), 0, _cfg())
    with pytest.raises(DegenerateDataError):
        EigenTracker.from_kernel(_stub_kernel(np.zeros((4, 3))), 1, _cfg())


@pytest.mark.parametrize("shape, d", [
    ((4, 7), 3),  # k < H
    ((6, 6), 6),  # k = H, d = H
    ((20, 5), 2),  # k > H
    ((20, 5), 5),  # d = H
    ("rank 3", 3),  # a 9 x 6 factor of rank 3
])
def test_factor_top_eigen_matches_the_dense_kernel(shape, d):
    rng = np.random.default_rng(12)
    if shape == "rank 3":
        F = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 6))
    else:
        F = rng.standard_normal(shape)
    H = F.shape[1]
    values, vectors = eigen_module.factor_top_eigen(F, d)
    vals, vecs = np.linalg.eigh(F @ F.T / H)
    vals, vecs = vals[::-1][:d], vecs[:, ::-1][:, :d]
    assert values.shape == (d,) and vectors.shape == (F.shape[0], d)
    assert np.all(np.diff(values) <= 0)
    np.testing.assert_allclose(values, vals, rtol=1e-12)
    signs = np.sign(np.sum(vectors * vecs, axis=0))
    np.testing.assert_allclose(vectors * signs, vecs, atol=1e-12)


def test_tracker_config_validation():
    with pytest.raises(ConfigurationError):
        TrackerConfig(strategy="power-iteration")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_constructor_allocates_the_strategy_state(strategy):
    tracker = EigenTracker(np.ones(1), np.eye(3)[:, :1], _cfg(strategy))
    if strategy == "perturbation":
        assert tracker.averaged_kernel.shape == (3, 3) and not tracker.averaged_kernel.any()
        assert tracker.top_bound == tracker.second_bound == math.inf
    else:
        assert tracker.averaged_kernel is None
        assert tracker.top_bound is tracker.second_bound is None


@pytest.mark.parametrize("which,entry,message", [
    ("values", 0.5j, "eigenvalues must be real numbers"),
    ("values", np.nan, "eigenvalues must be finite"),
    ("vectors", 0.5j, "eigenvectors must be real numbers"),
    ("vectors", np.inf, "eigenvectors must be finite"),
])
def test_the_constructor_refuses_complex_or_non_finite_state(which, entry, message):
    # a float copy once dropped an imaginary part with a ComplexWarning, and
    # a nan eigenvalue built a tracker without a word
    state = {"values": np.array([2.0, 1.0]), "vectors": np.eye(3)[:, :2]}
    if isinstance(entry, complex):
        state[which] = state[which] + entry
    else:
        state[which].flat[-1] = entry
    with pytest.raises(DataError, match=message):
        EigenTracker(state["values"], state["vectors"], _cfg())


def test_the_constructor_copies_its_state():
    values, vectors = np.array([2.0]), np.eye(3)[:, :1]
    tracker = EigenTracker(values, vectors, _cfg())
    assert not np.shares_memory(tracker.values, values)
    assert not np.shares_memory(tracker.vectors, vectors)
    assert tracker.vectors.flags.f_contiguous


def test_from_kernel_starts_perturbation_at_the_dense_kernel():
    rng = np.random.default_rng(4)
    X, y = random_stream(rng, 60, 5)
    kernel = KernelTracker(SliceGrid.from_warmup(y, 4), 5)
    kernel.replay(X, y)
    tracker = EigenTracker.from_kernel(kernel, 1, _cfg("perturbation"))
    assert tracker.averaged_kernel.tobytes() == kernel.kernel_matrix().tobytes()
    assert kernel.dense_builds == 2  # one by from_kernel, one above
    assert tracker.top_bound == tracker.second_bound == math.inf  # nothing proved yet


# -- ccipca ------------------------------------------------------------


def test_ccipca_converges_on_a_stationary_rank_one_factor():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(6)
    stationary = np.zeros((6, 4))
    stationary[:, 2] = c
    stationary = kernel_of(stationary)
    # start from a deliberately different basis
    init = EigenTracker.from_kernel(_stub_kernel(rng.standard_normal((6, 4))), 1, _cfg())
    for t in range(1, 10_001):
        init.ccipca_step(stationary, t)
    target = c / np.linalg.norm(c)
    assert principal_angle(init.vectors[:, 0], target) < 1e-3
    lam_expected = float(c @ c) / 4.0
    assert init.values[0] == pytest.approx(lam_expected, rel=1e-2)


def test_ccipca_zero_factor_shrinks_norm_only():
    rng = np.random.default_rng(2)
    tracker = EigenTracker.from_kernel(_stub_kernel(rng.standard_normal((5, 3))), 2, _cfg())
    before_values = tracker.values.copy()
    before_dirs = tracker.vectors.copy()
    tracker.ccipca_step(kernel_of(np.zeros((5, 3))), 4)
    np.testing.assert_allclose(tracker.values, 0.8 * before_values, atol=1e-12)
    np.testing.assert_allclose(tracker.vectors, before_dirs, atol=1e-12)


def test_ccipca_reseeds_a_collapsed_component():
    rng = np.random.default_rng(4)
    tracker = EigenTracker.from_kernel(_stub_kernel(rng.standard_normal((5, 4))), 2, _cfg())
    tracker.values[1] = 0.0
    tracker.ccipca_step(kernel_of(rng.standard_normal((5, 4))), 3)
    assert tracker.reinit_count == 1
    assert tracker.values[1] > 0.0


def _constant_kernel(p=8, n_slices=4):
    """Kernel whose every row is the same dyadic vector: the centered
    factor is exactly zero."""
    grid = SliceGrid(np.arange(1.0, n_slices))
    kernel = KernelTracker(grid, p)
    for y in np.arange(0.5, n_slices + 0.5):
        kernel.update(np.full(p, 0.5), y)
    return kernel


@pytest.mark.parametrize("case", ["zero_factor", "collapsed_component"])
def test_ccipca_reseeding_matches_the_materialized_algebra(case):
    rng = np.random.default_rng(13)
    start = EigenTracker.from_kernel(_stub_kernel(rng.standard_normal((8, 4))), 2, _cfg())
    if case == "zero_factor":
        kernel = _constant_kernel()
        assert not np.any(kernel.slice_cov)
        t = 0  # keep = 0: the update is the zero factor's, and both components reseed
    else:
        kernel = KernelTracker(SliceGrid(np.array([-0.5, 0.0, 0.5])), 8)
        kernel.replay(*random_stream(rng, 60, 8))
        start.values[1] = 0.0  # reseeded from the once-deflated factor
        t = kernel.t - 1
    fused = copy.deepcopy(start)
    dense = copy.deepcopy(start)
    for _ in range(2):
        fused.ccipca_step(kernel, t)
        ccipca_step_reference(dense, kernel.slice_cov, t)
    assert fused.reinit_count == dense.reinit_count > 0
    for attr in ("values", "vectors"):
        np.testing.assert_allclose(
            getattr(fused, attr), getattr(dense, attr), rtol=0, atol=1e-12
        )
    if case == "zero_factor":
        assert fused.reinit_count == 4
        np.testing.assert_array_equal(fused.values, [0.0, 0.0])


def test_ccipca_tracks_a_model_one_stream():
    from streamsir import SimModelSpec, sample

    X, y = sample(SimModelSpec(1, 20), 5000, rng=42)
    grid = SliceGrid.from_warmup(y[:200], 10)
    kernel = KernelTracker(grid, 20)
    kernel.replay(X[:200], y[:200])
    tracker = EigenTracker.from_kernel(kernel, 1, _cfg())
    for i in range(200, 5000):
        kernel.update(X[i], y[i])
        tracker.ccipca_step(kernel, kernel.t - 1)
    _, ref = top_eigen_oracle(kernel.kernel_matrix())
    affinity = abs(float(tracker.vectors[:, 0] @ ref[:, 0]))
    assert affinity > 0.99


# -- perturbation ------------------------------------------------------------


def test_perturbation_noop_when_kernel_matches_average():
    rng = np.random.default_rng(5)
    factor = rng.standard_normal((4, 3))
    stub = _stub_kernel(factor)
    tracker = EigenTracker.from_kernel(stub, 1, _cfg("perturbation"))
    vals, vecs, avg = (
        tracker.values.copy(),
        tracker.vectors.copy(),
        tracker.averaged_kernel.copy(),
    )
    tracker.perturbation_step(stub.kernel_matrix(), 7)
    np.testing.assert_allclose(tracker.values, vals, atol=1e-12)
    np.testing.assert_allclose(tracker.vectors, vecs, atol=1e-12)
    np.testing.assert_allclose(tracker.averaged_kernel, avg, atol=1e-12)


def test_perturbation_first_order_value_shift_on_a_diagonal():
    eps, t = 1e-3, 4
    tracker = EigenTracker(np.array([2.0]), np.eye(2)[:, :1], _cfg("perturbation"))
    tracker.averaged_kernel = np.diag([2.0, 1.0])
    tracker.perturbation_step(np.diag([2.0 + eps, 1.0]), t)
    assert tracker.values[0] == pytest.approx(2.0 + eps / (t + 1), abs=1e-12)
    assert abs(tracker.vectors[0, 0]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        tracker.averaged_kernel, np.diag([2.0 + eps / (t + 1), 1.0]), atol=1e-15
    )


def test_perturbation_tracks_its_running_average():
    rng = np.random.default_rng(6)
    X, y = random_stream(rng, 2100, 8)
    grid = SliceGrid.from_warmup(y[:100], 5)
    kernel = KernelTracker(grid, 8)
    kernel.replay(X[:100], y[:100])
    tracker = EigenTracker.from_kernel(kernel, 1, _cfg("perturbation"))
    for i in range(100, 2100):
        kernel.update(X[i], y[i])
        tracker.perturbation_step(kernel.kernel_matrix(), kernel.t - 1)
    _, ref = top_eigen_oracle(tracker.averaged_kernel)
    assert principal_angle(tracker.vectors[:, 0], ref[:, 0]) < 0.05


# -- perturbation: the solves against the eigendecomposition they replace ----


def _solves_forced():
    """Send every perturbation step to the solves, whatever p and d."""
    return mock.patch.object(eigen_module, "_solves_pay", lambda p, d: True)


def _fallbacks():
    """Count the perturbation steps that fall back to the eigendecomposition."""
    return mock.patch.object(
        eigen_module, "_eigh_shift_inverse", wraps=eigen_module._eigh_shift_inverse
    )


def _assert_matches_the_reference(stream):
    """Run ``stream()``, which builds and streams a perturbation model,
    with the solves at every p and d and again with the eigh reference step;
    the final eigen states and directions agree to 1e-12.  With one
    direction the solves, not the eigendecomposition they fall back to,
    carried nine steps in ten; they certify the top pair alone, so with two
    every step falls back."""
    with _solves_forced(), _fallbacks() as fallbacks:
        model = stream()
    with mock.patch.object(EigenTracker, "perturbation_step", perturbation_step_reference):
        reference = stream()
    for name in ("values", "vectors", "averaged_kernel"):
        np.testing.assert_allclose(
            getattr(model.eigen, name), getattr(reference.eigen, name),
            rtol=0, atol=1e-12, err_msg=name,
        )
    np.testing.assert_allclose(model.directions(), reference.directions(), rtol=0, atol=1e-12)
    if model.eigen.n_directions == 1:
        assert 10 * fallbacks.call_count < model.eigen.step
    else:
        assert fallbacks.call_count == model.eigen.step


def test_perturbation_matches_the_eigh_reference_on_criterion_2_streams():
    cfg = SIRConfig(
        n_slices=10, n_directions=1, tracker="perturbation",
        learning_rate=1e-3, gravity=0.0,
    )
    for seed in range(10):
        X, y = sample(SimModelSpec(1, 20), 5000, rng=seed)
        _assert_matches_the_reference(lambda: fit_online(X, y, cfg, warmup_size=100))


def _dense_stream(X, y, d, warmup):
    model = DenseOnlineSIR.warmup(X[:warmup], y[:warmup], 10, d, "perturbation")
    for i in range(warmup, X.shape[0]):
        model.observe(X[i], y[i])
    return model


@pytest.mark.parametrize("estimator", ["sparse", "dense"])
@pytest.mark.parametrize("model_id, d", [(1, 1), (3, 2)])
def test_perturbation_matches_the_eigh_reference_at_p_100(estimator, model_id, d):
    X, y = sample(SimModelSpec(model_id, 100), 1000, rng=7)
    if estimator == "sparse":
        cfg = SIRConfig(n_directions=d, tracker="perturbation")
        _assert_matches_the_reference(lambda: fit_online(X, y, cfg, warmup_size=100))
    else:
        _assert_matches_the_reference(lambda: _dense_stream(X, y, d, 100))


def test_perturbation_matches_the_eigh_reference_on_a_criterion_4_stream():
    # criterion 4's first M5 cell: model 1, p = 500, 200 warmup rows of 1000
    rng = np.random.default_rng(np.random.SeedSequence([0, 1, 500, 0]))
    X, y = sample(SimModelSpec(1, 500), 1000, rng)
    _assert_matches_the_reference(lambda: _dense_stream(X, y, 1, 200))


# resonant eigenvalues of each planted case, and whether the step must fall
# back to the eigendecomposition
_PLANTED = {"free": (0, False), "one": (1, False), "exact": (1, False),
            "two": (2, True), "neighbour": (1, True)}


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 8),
    case=st.sampled_from(sorted(_PLANTED)),
    d=st.integers(1, 2),
    t=st.integers(20, 2000),
)
def test_perturbation_matches_the_eigh_reference_on_planted_spectra(seed, p, case, d, t):
    # A = Q diag(mu) Q' with eigenvalues at least 0.5 apart; the first
    # tracked value is placed against eigenvalue k so that the cut-off C
    # (1e-3 of the largest shift) sees the planted case: far from every
    # eigenvalue, within C/2 of one, exactly on one, within C of two, or
    # within C of one whose neighbour sits C/2 from it but over C from the
    # value.  A second direction, when drawn, sits midway between two
    # eigenvalues.
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    mu = np.cumsum(rng.uniform(0.5, 1.5, p))
    k = int(rng.integers(0, p - 1))
    moved = k + 1 if k + 1 < p - 1 else k  # an interior one: the spread stays
    anchor = k if moved == k + 1 else k + 1
    side = 1.0 if moved > anchor else -1.0
    cut = PINV_CUTOFF * max(mu[anchor] - mu[0], mu[-1] - mu[anchor])
    if case == "two":
        mu[moved] = mu[anchor] + side * 0.5 * cut
        lam = mu[anchor] + side * 0.25 * cut
    elif case == "neighbour":
        mu[moved] = mu[anchor] + side * 0.5 * cut
        lam = mu[anchor] - side * 0.9 * cut
    elif case == "one":
        lam = mu[anchor] + rng.uniform(-0.5, 0.5) * cut
    else:
        lam = (mu[k] + mu[k + 1]) / 2.0
    average = (basis * mu) @ basis.T
    average = (average + average.T) / 2.0
    eigvals = np.linalg.eigvalsh(average)
    if case == "exact":
        lam = eigvals[anchor]
    values = np.array([lam, (mu[0] + mu[1]) / 2.0][:d])
    vectors = basis[:, [anchor, 0][:d]] + 0.3 * rng.standard_normal((p, d))
    vectors /= np.linalg.norm(vectors, axis=0)
    noise = rng.standard_normal((p, p))
    kernel_dense = average + 0.01 * (noise + noise.T)

    resonant, falls_back = _PLANTED[case]
    shifts = np.abs(lam - eigvals)
    assert np.count_nonzero(shifts <= PINV_CUTOFF * shifts.max()) == resonant

    tracker = EigenTracker(values, vectors, _cfg("perturbation"))
    tracker.averaged_kernel = average.copy()
    reference = copy.deepcopy(tracker)
    with _solves_forced(), _fallbacks() as fallbacks:
        tracker.perturbation_step(kernel_dense, t)
    # the solves settle the top pair alone, so a second direction, or a
    # value placed against any eigenvalue but the top one, falls back too;
    # against the top one, the iteration from a vector this rough can also
    # settle on another eigenpair and fall back
    if falls_back or d > 1 or anchor < p - 1:
        assert fallbacks.called
    perturbation_step_reference(reference, kernel_dense, t)
    for name in ("values", "vectors", "averaged_kernel"):
        np.testing.assert_allclose(
            getattr(tracker, name), getattr(reference, name), rtol=0, atol=1e-12, err_msg=name
        )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 10),
    place=st.sampled_from(["top", "interior", "two above"]),
    start=st.sampled_from(["near", "rough", "orthogonal"]),
    offset=st.floats(-2.0, 2.0),
    null=st.booleans(),
    t=st.integers(20, 2000),
)
def test_perturbation_certificate_agrees_with_the_spectrum_whenever_it_settles(
    seed, p, place, start, offset, null, t
):
    # A = Q diag(mu) Q' with eigenvalues at least 0.2 apart, the smallest
    # exactly 0 when ``null``.  The tracked value sits ``offset`` times about
    # the cut-off from the top eigenvalue, or from an interior one, or midway
    # between the third and second largest, below two eigenvalues.  The
    # tracked vector is the top eigenvector up to 1e-8 to 1e-2 of noise,
    # or up to 0.3, or orthogonal to it.
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    mu = np.cumsum(rng.uniform(0.2, 1.5, p))
    if null:
        mu -= mu[0]
    average = (basis * mu) @ basis.T
    average = (average + average.T) / 2.0
    cut = PINV_CUTOFF * (mu[-1] - mu[0])
    if place == "top":
        lam = mu[-1] + offset * cut
    elif place == "interior":
        lam = mu[int(rng.integers(1, p - 1))] + offset * cut
    else:
        lam = (mu[-3] + mu[-2]) / 2.0
    top = basis[:, -1]
    if start == "orthogonal":
        v = rng.standard_normal(p)
        v -= top * top.dot(v)
    else:
        scale = 0.3 if start == "rough" else 10.0 ** -rng.uniform(2, 8)
        v = top + scale * rng.standard_normal(p)
    tracker = EigenTracker(np.array([lam]), (v / np.linalg.norm(v))[:, None], _cfg("perturbation"))
    tracker.averaged_kernel = average.copy()
    noise = rng.standard_normal((p, p))
    kernel_dense = average + 0.01 * (noise + noise.T)
    gv = (average - kernel_dense) @ tracker.vectors

    unbounded = (math.inf, math.inf)
    settled = eigen_module._shift_solves(
        average, tracker.values, tracker.vectors, gv, unbounded
    ) is not None
    if null and place == "top" and start == "near" and not 0.9 <= abs(offset) <= 1.1:
        # clear of the cut-off, the top pair settles; the bounds on the
        # cut-off are tight when the smallest eigenvalue is 0, as a slice
        # kernel's nearly is
        assert settled
    if place == "two above":
        assert not settled  # a second eigenvalue above lam fails the certificate
    if not settled:
        return
    shifts = lam - np.linalg.eigvalsh(average)
    resonant = np.flatnonzero(np.abs(shifts) <= PINV_CUTOFF * np.abs(shifts).max())
    assert resonant.tolist() in ([], [p - 1])
    reference = copy.deepcopy(tracker)
    with _solves_forced(), _fallbacks() as fallbacks:
        tracker.perturbation_step(kernel_dense, t)
    assert not fallbacks.called
    perturbation_step_reference(reference, kernel_dense, t)
    for name in ("values", "vectors", "averaged_kernel"):
        np.testing.assert_allclose(
            getattr(tracker, name), getattr(reference, name), rtol=0, atol=1e-12, err_msg=name
        )


def _perturbation_stream(seed, p=8, n=160, warmup=60):
    rng = np.random.default_rng(seed)
    X, y = random_stream(rng, n, p)
    kernel = KernelTracker(SliceGrid.from_warmup(y[:warmup], 5), p)
    kernel.replay(X[:warmup], y[:warmup])
    tracker = EigenTracker.from_kernel(kernel, 2, _cfg("perturbation"))
    return kernel, tracker, X[warmup:], y[warmup:]


def test_perturbation_falls_back_to_the_eigh_reference_when_a_solve_fails(monkeypatch):
    kernel, tracker, X, y = _perturbation_stream(21)
    reference = copy.deepcopy(tracker)
    attempts = []

    def singular(*args, **kwargs):
        attempts.append(1)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(eigen_module, "_solves_pay", lambda p, d: True)
    monkeypatch.setattr(np.linalg, "solve", singular)
    for x_i, y_i in zip(X, y):
        kernel.update(x_i, y_i)
        tracker.perturbation_step(kernel.kernel_matrix(), kernel.t - 1)
        perturbation_step_reference(reference, kernel.kernel_matrix(), kernel.t - 1)
    assert len(attempts) == len(y)
    for name in ("values", "vectors", "averaged_kernel"):
        np.testing.assert_allclose(
            getattr(tracker, name), getattr(reference, name), rtol=0, atol=1e-12, err_msg=name
        )
    assert tracker.step == reference.step == len(y)


@pytest.mark.parametrize("model_id, p, d, solves", [
    (1, 20, 1, False), (1, 39, 1, False), (1, 40, 1, True), (1, 100, 1, True), (3, 100, 2, False),
])
def test_perturbation_takes_the_solves_for_one_direction_from_p_40(model_id, p, d, solves):
    # below 40 features, or with more than one direction, the eigh costs
    # less than the solves that would replace it
    X, y = sample(SimModelSpec(model_id, p), 140, rng=3)
    cfg = SIRConfig(n_directions=d, tracker="perturbation")
    with mock.patch.object(
        eigen_module, "_shift_solves", wraps=eigen_module._shift_solves
    ) as route, mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        model = fit_online(X, y, cfg, warmup_size=100)
    assert route.call_count == (model.eigen.step if solves else 0)
    assert not eigvalsh.called


def test_perturbation_step_that_raises_leaves_the_tracker_unchanged(monkeypatch):
    kernel, tracker, X, y = _perturbation_stream(22)
    kernel.update(X[0], y[0])
    before = copy.deepcopy(tracker)

    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the solves settle no second direction, so the step reaches the eigh
    monkeypatch.setattr(eigen_module, "_solves_pay", lambda p, d: True)
    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    with pytest.raises(np.linalg.LinAlgError):
        tracker.perturbation_step(kernel.kernel_matrix(), kernel.t - 1)
    for name in ("values", "vectors", "averaged_kernel", "top_bound", "second_bound"):
        np.testing.assert_array_equal(getattr(tracker, name), getattr(before, name), err_msg=name)
    assert tracker.step == before.step


def _diagonal_tracker(lam, vector, diagonal):
    tracker = EigenTracker(np.array([lam]), np.asarray(vector)[:, None], _cfg("perturbation"))
    tracker.averaged_kernel = np.diag(diagonal)
    return tracker


def test_perturbation_iteration_settles_a_resonant_pair_in_an_invariant_plane():
    # the tracked value on the top eigenvalue 5 and its vector in the span of
    # the two top eigenvectors: the pair is resonant and unsettled, so the
    # step reaches Rayleigh quotient iteration, which settles it without the
    # eigendecomposition
    diagonal = np.array([5.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.2, 0.0])
    vector = np.zeros(8)
    vector[:2] = 1.0, 0.1
    tracker = _diagonal_tracker(5.0, vector / np.linalg.norm(vector), diagonal)
    reference = copy.deepcopy(tracker)
    noise = np.random.default_rng(0).standard_normal((8, 8))
    kernel_dense = np.diag(diagonal) + 0.01 * (noise + noise.T)
    with _solves_forced(), _fallbacks() as fallbacks, \
            mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        tracker.perturbation_step(kernel_dense, 50)
    assert solve.call_count >= 2 and not fallbacks.called  # the iteration, then the step
    perturbation_step_reference(reference, kernel_dense, 50)
    for name in ("values", "vectors", "averaged_kernel"):
        assert np.all(np.isfinite(getattr(tracker, name))), name
        np.testing.assert_allclose(
            getattr(tracker, name), getattr(reference, name), rtol=0, atol=1e-12, err_msg=name
        )


def test_perturbation_iteration_that_raises_leaves_the_tracker_unchanged(monkeypatch):
    # the tracked value on the top eigenvalue and its vector 1e-2 off the
    # top eigenvector: the pair is resonant and unsettled, so the step
    # reaches the iteration, whose solve raises, and the fallback's eigh too
    rng = np.random.default_rng(23)
    diagonal = np.linspace(4.0, 0.0, 12)
    vector = np.eye(12)[0] + 1e-2 * rng.standard_normal(12)
    tracker = _diagonal_tracker(4.0, vector / np.linalg.norm(vector), diagonal)
    tracker.top_bound, tracker.second_bound = 4.0 + 1e-9, diagonal[1] + 1e-9
    before = copy.deepcopy(tracker)
    kernel_dense = np.diag(diagonal) + 0.01 * np.outer(vector, vector)
    attempts = []

    def singular(*args, **kwargs):
        attempts.append(1)
        raise np.linalg.LinAlgError("Singular matrix")

    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(eigen_module, "_solves_pay", lambda p, d: True)
    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    with _fallbacks() as fallbacks, pytest.raises(np.linalg.LinAlgError):
        tracker.perturbation_step(kernel_dense, 50)
    assert len(attempts) == 1 and fallbacks.called
    for name in ("values", "vectors", "averaged_kernel", "top_bound", "second_bound"):
        np.testing.assert_array_equal(getattr(tracker, name), getattr(before, name), err_msg=name)
    assert tracker.step == before.step


# -- perturbation: the eigenvalue bounds carried between steps ---------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(3, 60), planted=st.booleans())
def test_carried_bounds_stay_above_the_eigenvalues_they_bound(seed, p, planted):
    # after every step, on a random stream or on PSD kernels scattered about
    # a planted spectrum whose top two eigenvalues lie 1e-4 to 1 apart, with
    # the tracked value off the top one by up to a tenth of its size
    rng = np.random.default_rng(seed)
    if planted:
        basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
        mu = np.sort(rng.uniform(0.0, 1.0, p))
        mu[-1] = mu[-2] + 10.0 ** rng.uniform(-4, 0)
        root = basis * np.sqrt(mu)
        tracker = EigenTracker(
            mu[-1:] * (1.0 + rng.uniform(-0.1, 0.1)),
            basis[:, -1:] + 0.01 * rng.standard_normal((p, 1)),
            _cfg("perturbation"),
        )
        tracker.averaged_kernel = root @ root.T
        steps = []
        for t in range(20, 60):
            mix = root @ (np.eye(p) + 0.1 * rng.standard_normal((p, p)))
            steps.append((mix @ mix.T, t))
    else:
        kernel, _, X, y = _perturbation_stream(seed % 2**31, p=p, n=100, warmup=60)
        tracker = EigenTracker.from_kernel(kernel, 1, _cfg("perturbation"))
        steps = []
        for x_i, y_i in zip(X, y):
            kernel.update(x_i, y_i)
            steps.append((kernel.kernel_matrix(), kernel.t - 1))
    with _solves_forced():
        for kernel_dense, t in steps:
            tracker.perturbation_step(kernel_dense, t)
            spectrum = np.linalg.eigvalsh(tracker.averaged_kernel)
            assert tracker.top_bound >= spectrum[-1], (t, tracker.top_bound, spectrum[-1])
            assert tracker.second_bound >= spectrum[-2], (t, tracker.second_bound, spectrum[-2])


def _study_stream():
    """The stream of the benchmark's study cells, and so of its perturbation
    methods M1 and M5: model 1, p = 100, 1000 rows, 100 of them warmup."""
    rng = np.random.default_rng(np.random.SeedSequence([1000, 1, 100, 0]))
    return sample(SimModelSpec(1, 100), 1000, rng)


def test_carried_bounds_change_no_bit_of_the_step():
    # the same stream with +inf bounds handed to every step, which then
    # proves its claim by a Cholesky factorization each time
    X, y = _study_stream()
    cfg = SIRConfig(tracker="perturbation")
    carried = fit_online(X, y, cfg, warmup_size=100)
    solves = eigen_module._shift_solves

    def unbounded(average, values, vectors, gv, bounds):
        return solves(average, values, vectors, gv, (math.inf, math.inf))

    with mock.patch.object(eigen_module, "_shift_solves", unbounded), \
            mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        proved = fit_online(X, y, cfg, warmup_size=100)
    assert cholesky.call_count >= proved.eigen.step
    for name in ("values", "vectors", "averaged_kernel"):
        assert getattr(carried.eigen, name).tobytes() == getattr(proved.eigen, name).tobytes(), name


def test_carried_bounds_skip_nine_cholesky_factorizations_in_ten():
    X, y = _study_stream()
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        model = fit_online(X, y, SIRConfig(tracker="perturbation"), warmup_size=100)
    assert model.eigen.step == 900
    assert cholesky.call_count <= 0.1 * model.eigen.step


def _bounded_tracker(lam, v, eigenvalues, rng):
    """A tracker of (lam, v) on A = Q diag(eigenvalues) Q' for a random
    orthogonal Q, its bounds 1e-9 above the two largest eigenvalues, and
    the mu, |r| and cut of its first resonance test; ``v`` is given in
    Q's coordinates."""
    p = eigenvalues.size
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    average = (basis * eigenvalues) @ basis.T
    average = (average + average.T) / 2.0
    v = basis @ v
    tracker = EigenTracker(np.array([lam]), (v / np.linalg.norm(v))[:, None], _cfg("perturbation"))
    tracker.averaged_kernel = average
    spectrum = np.linalg.eigvalsh(average)
    tracker.top_bound, tracker.second_bound = spectrum[-1] + 1e-9, spectrum[-2] + 1e-9
    mu, _, res = eigen_module._rayleigh(average, tracker.vectors[:, 0])
    floor = -p * np.finfo(float).eps * float(average.trace())
    return tracker, mu, res, PINV_CUTOFF * max(lam - floor, mu + res - lam)


@pytest.mark.parametrize("seed", range(4))
def test_perturbation_settles_a_pair_from_the_carried_second_bound(seed):
    # A = Q diag(mu) Q' with top eigenvalues 5 and 3 and the rest in [0, 2];
    # the tracked value 4.5, its vector mostly the top eigenvector with a
    # 0.3 part of the second.  Its residual leaves lam within the cut-off of
    # mu's eigenvalue as far as mu alone shows, but the carried bound on
    # the second eigenvalue settles the pair before any iteration: one
    # solve, no Cholesky factorization.
    rng = np.random.default_rng(seed)
    p, lam = 12, 4.5
    eigenvalues = np.concatenate([np.sort(rng.uniform(0.0, 2.0, p - 2)), [3.0, 5.0]])
    v = 0.02 * rng.standard_normal(p)
    v[-2:] += 0.3, 0.95
    tracker, mu, res, cut = _bounded_tracker(lam, v, eigenvalues, rng)
    assert abs(mu - lam) - res <= cut  # mu and |r| alone leave the pair open
    assert lam < mu - cut and tracker.second_bound < min(lam - cut, mu - res)
    shifts = lam - np.linalg.eigvalsh(tracker.averaged_kernel)
    assert np.all(np.abs(shifts) > PINV_CUTOFF * np.abs(shifts).max())  # no resonant shift

    noise = rng.standard_normal((p, p))
    kernel_dense = tracker.averaged_kernel + 0.01 * (noise + noise.T)
    reference = copy.deepcopy(tracker)
    with _solves_forced(), _fallbacks() as fallbacks, \
            mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve, \
            mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        tracker.perturbation_step(kernel_dense, 40)
    assert solve.call_count == 1
    assert not (cholesky.called or fallbacks.called)
    perturbation_step_reference(reference, kernel_dense, 40)
    for name in ("values", "vectors", "averaged_kernel"):
        np.testing.assert_allclose(
            getattr(tracker, name), getattr(reference, name), rtol=0, atol=1e-12, err_msg=name
        )
    spectrum = np.linalg.eigvalsh(tracker.averaged_kernel)
    assert tracker.top_bound >= spectrum[-1] and tracker.second_bound >= spectrum[-2]


def test_perturbation_second_bound_settles_no_pair_whose_residual_hides_the_top():
    # top eigenvalue 50, second 1, the rest in [0, 0.5]; the tracked vector
    # mostly the second eigenvector, with mu = 1.5 and a residual of about
    # 5, and lam = 1.03, resonant with the second eigenvalue once the top
    # one sets the cut-off.  lam < mu - cut and the second bound lies below
    # lam - cut, but not below mu - |r|: mu's eigenvalue need not be the
    # top one, so the bound proves nothing and the step falls back.
    rng = np.random.default_rng(5)
    p, lam, top = 12, 1.03, math.sqrt(0.5 / 49.0)
    eigenvalues = np.concatenate([rng.uniform(0.0, 0.5, p - 2), [1.0, 50.0]])
    v = np.zeros(p)
    v[-2:] = math.sqrt(1.0 - top**2), top
    tracker, mu, res, cut = _bounded_tracker(lam, v, eigenvalues, rng)
    assert lam < mu - cut and mu - res < tracker.second_bound < lam - cut
    shifts = np.abs(lam - np.linalg.eigvalsh(tracker.averaged_kernel))
    assert shifts[-2] <= PINV_CUTOFF * shifts.max()  # the second eigenvalue is resonant

    noise = rng.standard_normal((p, p))
    kernel_dense = tracker.averaged_kernel + 0.01 * (noise + noise.T)
    reference = copy.deepcopy(tracker)
    with _solves_forced(), _fallbacks() as fallbacks:
        tracker.perturbation_step(kernel_dense, 40)
    assert fallbacks.called
    perturbation_step_reference(reference, kernel_dense, 40)
    for name in ("values", "vectors", "averaged_kernel"):
        np.testing.assert_allclose(
            getattr(tracker, name), getattr(reference, name), rtol=0, atol=1e-12, err_msg=name
        )


# -- sgd ------------------------------------------------------------


def test_sgd_vanishing_rate_freezes_the_state():
    rng = np.random.default_rng(7)
    tracker = EigenTracker.from_kernel(
        _stub_kernel(rng.standard_normal((5, 4))), 2, _cfg("sgd")
    )
    vals, vecs = tracker.values.copy(), tracker.vectors.copy()
    tracker.sgd_step(kernel_of(rng.standard_normal((5, 4))), 10**15)
    np.testing.assert_allclose(tracker.values, vals, atol=1e-10)
    np.testing.assert_allclose(tracker.vectors, vecs, atol=1e-10)


def test_sgd_value_fixed_point_on_a_stationary_column():
    rng = np.random.default_rng(8)
    c = rng.standard_normal(5)
    factor = kernel_of(c[:, None])  # single slice
    tracker = EigenTracker.from_kernel(_stub_kernel(rng.standard_normal((5, 1))), 1, _cfg("sgd"))
    lam_star = float(c @ tracker.vectors[:, 0]) ** 2
    tracker.values[:] = lam_star
    tracker.sgd_step(factor, 3)
    assert tracker.values[0] == pytest.approx(lam_star, abs=1e-12)


def test_sgd_orthonormalizes_on_schedule(monkeypatch):
    monkeypatch.setattr(eigen_module, "_ORTHONORMALIZE_EVERY", 10)
    rng = np.random.default_rng(9)
    tracker = EigenTracker.from_kernel(_stub_kernel(rng.standard_normal((6, 4))), 2, _cfg("sgd"))
    # offsets mimic entry after a warmup batch; a unit-order rate on raw
    # random factors would diverge, which no caller produces
    for t in range(100, 131):
        tracker.sgd_step(kernel_of(rng.standard_normal((6, 4))), t)
        if tracker.step % 10 == 0:
            gram = tracker.vectors.T @ tracker.vectors
            np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)


def test_sgd_tracks_a_model_one_stream():
    from streamsir import SimModelSpec, sample

    X, y = sample(SimModelSpec(1, 20), 5000, rng=43)
    grid = SliceGrid.from_warmup(y[:200], 10)
    kernel = KernelTracker(grid, 20)
    kernel.replay(X[:200], y[:200])
    tracker = EigenTracker.from_kernel(kernel, 1, _cfg("sgd"))
    for i in range(200, 5000):
        kernel.update(X[i], y[i])
        tracker.sgd_step(kernel, kernel.t - 1)
    _, ref = top_eigen_oracle(kernel.kernel_matrix())
    assert abs(float(tracker.vectors[:, 0] @ ref[:, 0])) > 0.95


# -- ipca ------------------------------------------------------------


def test_ipca_zero_residual_keeps_the_basis():
    factor = np.zeros((3, 2))
    factor[0, 0] = 2.0
    tracker = EigenTracker(np.array([1.0]), np.eye(3)[:, :1], _cfg("ipca"))
    tracker.ipca_step(kernel_of(factor), 0)
    assert abs(tracker.vectors[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert tracker.values[0] == pytest.approx(2.0, abs=1e-12)  # 2^2 / H with H=2


def test_ipca_orthogonal_column_extends_the_basis():
    factor = np.zeros((3, 1))
    factor[1, 0] = 1.0  # e2, orthogonal to the current e1 basis
    tracker = EigenTracker(np.array([1.0]), np.eye(3)[:, :1], _cfg("ipca"))
    tracker.ipca_step(kernel_of(factor), 0)
    assert abs(tracker.vectors[1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert tracker.values[0] == pytest.approx(1.0, abs=1e-12)


def test_ipca_refreshes_the_slice_it_is_given():
    # slice 0's column is e2 and slice 1's is 2 e3, both orthogonal to the
    # e1 basis: the step extends the basis by the given slice's column alone
    factor = np.zeros((3, 2))
    factor[1, 0] = 1.0
    factor[2, 1] = 2.0
    for h, axis, value in [(0, 1, 0.5), (1, 2, 2.0)]:  # value: |column|^2 / H
        tracker = EigenTracker(np.array([1.0]), np.eye(3)[:, :1], _cfg("ipca"))
        tracker.ipca_step(kernel_of(factor), h)
        assert abs(tracker.vectors[axis, 0]) == pytest.approx(1.0, abs=1e-12)
        assert tracker.values[0] == pytest.approx(value, abs=1e-12)


def test_ipca_vectors_stay_orthonormal():
    rng = np.random.default_rng(10)
    tracker = EigenTracker.from_kernel(
        _stub_kernel(rng.standard_normal((6, 4))), 2, _cfg("ipca")
    )
    for _ in range(100):
        tracker.ipca_step(kernel_of(rng.standard_normal((6, 4))), int(rng.integers(4)))
        gram = tracker.vectors.T @ tracker.vectors
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)
        assert np.all(np.diff(tracker.values) <= 1e-12)


def test_ipca_tracks_a_model_one_stream():
    from streamsir import SimModelSpec, sample

    X, y = sample(SimModelSpec(1, 20), 5000, rng=44)
    grid = SliceGrid.from_warmup(y[:200], 10)
    kernel = KernelTracker(grid, 20)
    kernel.replay(X[:200], y[:200])
    tracker = EigenTracker.from_kernel(kernel, 1, _cfg("ipca"))
    for i in range(200, 5000):
        tracker.ipca_step(kernel, kernel.update(X[i], y[i]))
    _, ref = top_eigen_oracle(kernel.kernel_matrix())
    assert abs(float(tracker.vectors[:, 0] @ ref[:, 0])) > 0.95


# -- shared machinery ------------------------------------------------------------

# Tracked eigenvalues must lie within this factor of the kernel's own top d.
_CONFORMING_VALUE_RATIO = 1.25


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_conforms(strategy, tmp_path):
    # what a strategy must meet to be offered, on a model-3 stream (p = 60,
    # d = 2, 900 rows after a 100-row warmup): eigenvalues on the scale of
    # the kernel W W' / H that the synthetic response divides by, signs
    # continuous from step to step, and a checkpoint that round-trips bitwise
    X, y = sample(SimModelSpec(3, 60), 1000, rng=1)
    model = OnlineSparseSIR.warmup(X[:100], y[:100], SIRConfig(n_directions=2, tracker=strategy))
    for i in range(100, 1000):
        previous = model.eigen.vectors.copy()
        model.observe(X[i], y[i])
        overlaps = np.einsum("ij,ij->j", previous, model.eigen.vectors)
        assert np.all(overlaps >= 0.0), (i, overlaps)
    top = np.linalg.eigvalsh(model.kernel.kernel_matrix())[::-1][:2]
    ratio = model.eigen.values / top
    assert np.all(np.abs(np.log(ratio)) <= math.log(_CONFORMING_VALUE_RATIO)), ratio
    model.save(tmp_path / "model.npz")
    restored = OnlineSparseSIR.load(tmp_path / "model.npz")
    assert_same_state(restored, model)
    restored.save(tmp_path / "resaved.npz")
    with np.load(tmp_path / "model.npz") as saved, np.load(tmp_path / "resaved.npz") as resaved:
        assert saved.files == resaved.files
        for key in saved.files:
            assert saved[key].dtype == resaved[key].dtype, key
            assert saved[key].tobytes() == resaved[key].tobytes(), key


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_advance_is_the_per_strategy_chain(strategy):
    # advance must reproduce the four-way dispatch and the sign alignment
    # bit for bit, from the same warmup
    from streamsir import SimModelSpec, sample

    X, y = sample(SimModelSpec(3, 12), 400, rng=7)
    trackers, kernels = [], []
    for _ in range(2):
        kernel = KernelTracker(SliceGrid.from_warmup(y[:101], 5), 12)
        kernel.replay(X[:101], y[:101])
        kernels.append(kernel)
        trackers.append(EigenTracker.from_kernel(kernel, 2, _cfg(strategy)))
    tracker, reference = trackers
    for i in range(101, 400):
        h = kernels[0].update(X[i], y[i])
        tracker.advance(kernels[0], h)
        eigen_chain_reference(reference, kernels[1], kernels[1].update(X[i], y[i]))
    for attr in ("values", "vectors"):
        np.testing.assert_array_equal(getattr(tracker, attr), getattr(reference, attr))
    assert tracker.step == reference.step == 299


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s != "ccipca"])
def test_advance_calls_the_step_by_name_and_aligns_signs(strategy, monkeypatch):
    # a step that flips every vector: advance must find it under its
    # attribute name at call time, feed it its input (perturbation the dense
    # kernel, the others the kernel itself; ipca the slice, the others the
    # step count) and undo the flip
    rng = np.random.default_rng(13)
    X, y = random_stream(rng, 60, 6)
    kernel = KernelTracker(SliceGrid.from_warmup(y, 4), 6)
    kernel.replay(X, y)
    tracker = EigenTracker.from_kernel(kernel, 2, _cfg(strategy))
    inputs = []

    def flipping_step(self, source, *rest):
        inputs.append((source, *rest))
        self.vectors = -self.vectors
        return 0

    monkeypatch.setattr(EigenTracker, f"{strategy}_step", flipping_step)
    before = tracker.vectors.copy()
    h = kernel.update(X[0], y[0])
    tracker.advance(kernel, h)
    assert len(inputs) == 1
    (source, *rest), = inputs
    assert rest == [h if strategy == "ipca" else kernel.t - 1]
    if strategy == "perturbation":
        assert source.shape == (6, 6)
    else:
        assert source is kernel
    np.testing.assert_array_equal(tracker.vectors, before)


def test_ccipca_step_aligns_its_own_signs(monkeypatch):
    # ccipca compares each new component with its previous unit vector inside
    # the step; advance calls the step by name and adds no second pass.  A
    # collapsed component takes its new direction from its reseed whatever
    # its old unit vector, so of two trackers whose old vectors differ only
    # in sign, one must flip the reseeded component
    rng = np.random.default_rng(13)
    X, y = random_stream(rng, 60, 6)
    kernel = KernelTracker(SliceGrid.from_warmup(y, 4), 6)
    kernel.replay(X, y)
    tracker = EigenTracker.from_kernel(kernel, 2, _cfg("ccipca"))
    tracker.values[1] = 0.0
    inputs = []
    step = EigenTracker.ccipca_step

    def spy(self, source, t):
        inputs.append(source)
        return step(self, source, t)

    monkeypatch.setattr(EigenTracker, "ccipca_step", spy)
    h = kernel.update(X[0], y[0])
    twins = []
    for sign in (1.0, -1.0):
        twin = copy.deepcopy(tracker)
        twin.vectors[:, 1] *= sign
        before = twin.vectors.copy()
        twin.advance(kernel, h)
        assert np.all(np.einsum("ij,ij->j", before, twin.vectors) > 0.0)
        assert twin.reinit_count == 1
        twins.append(twin)
    assert len(inputs) == 2 and all(source is kernel for source in inputs)
    np.testing.assert_array_equal(twins[0].vectors[:, 1], -twins[1].vectors[:, 1])
    tracker = twins[0]

    def flipping_step(self, source, t):
        self.vectors = -self.vectors

    monkeypatch.setattr(EigenTracker, "ccipca_step", flipping_step)
    flipped = -tracker.vectors
    tracker.advance(kernel, kernel.update(X[1], y[1]))
    np.testing.assert_array_equal(tracker.vectors, flipped)


def test_align_signs_flips_vectors():
    rng = np.random.default_rng(11)
    kernel = _stub_kernel(rng.standard_normal((4, 3)))
    tracker = EigenTracker.from_kernel(kernel, 2, _cfg("sgd"))
    reference = tracker.vectors * np.array([-1.0, 1.0])
    vecs = tracker.vectors.copy()
    tracker.align_signs(reference)
    np.testing.assert_array_equal(tracker.vectors, vecs * [-1.0, 1.0])


@pytest.mark.parametrize("strategy", ["sgd", "ipca", "perturbation"])
def test_advance_rebinds_the_basis_and_leaves_the_old_one_intact(strategy, monkeypatch):
    # advance aligns signs against the array the step replaced, uncopied,
    # so no step of these strategies may write into it
    monkeypatch.setattr(eigen_module, "_ORTHONORMALIZE_EVERY", 7)
    rng = np.random.default_rng(17)
    X, y = random_stream(rng, 160, 6)
    kernel = KernelTracker(SliceGrid.from_warmup(y[:60], 4), 6)
    kernel.replay(X[:60], y[:60])
    tracker = EigenTracker.from_kernel(kernel, 2, _cfg(strategy))
    for i in range(60, 160):
        old = tracker.vectors
        snapshot = old.copy()
        tracker.advance(kernel, kernel.update(X[i], y[i]))
        assert not np.shares_memory(tracker.vectors, old)
        np.testing.assert_array_equal(old, snapshot)
