"""Shared fixtures and independent reference implementations.

The oracles here deliberately avoid the package's own code paths: slice
membership is decided by a scalar comparison loop, running statistics are
recomputed from the full stored sample, and eigenpairs come straight from
numpy's dense solvers.  Streaming results are compared against these.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from streamsir import pipeline


def slice_index_oracle(y: float, cuts) -> int:
    """Right-closed slice lookup by plain comparison.

    Slice h covers (cuts[h-1], cuts[h]], open at both extremes, so an
    observation lands in slice h exactly when it exceeds h cut points.
    """
    h = 0
    for c in cuts:
        if y > c:
            h += 1
    return h


def slice_cov_oracle(X, y, cuts) -> np.ndarray:
    """(p, H) factor recomputed from the whole sample.

    Column h is (1/t) sum_i (x_i - xbar_t) 1{y_i in slice h} with xbar_t
    the mean of all t rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    t, p = X.shape
    n_slices = len(cuts) + 1
    xbar = X.mean(axis=0)
    C = np.zeros((p, n_slices))
    for i in range(t):
        h = slice_index_oracle(float(y[i]), cuts)
        C[:, h] += X[i] - xbar
    return C / t


def kernel_matrix_oracle(X, y, cuts) -> np.ndarray:
    C = slice_cov_oracle(X, y, cuts)
    K = C @ C.T / (len(cuts) + 1)
    return (K + K.T) / 2.0


def response_oracle(X, y, cuts, eta, lams) -> np.ndarray:
    """Regression target for the newest observation, recomputed batch-style.

    Takes the slice-factor column of the newest response, projects it on
    eta, and scales by 1/(t * H * lam) with t the total rows seen.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    t = X.shape[0]
    n_slices = len(cuts) + 1
    C = slice_cov_oracle(X, y, cuts)
    h = slice_index_oracle(float(y[-1]), cuts)
    proj = C[:, h] @ np.asarray(eta, dtype=float)
    return proj / (t * n_slices * np.asarray(lams, dtype=float))


def principal_angle(u, v) -> float:
    """Angle between two one-dimensional spans, in radians."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    c = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(min(1.0, c)))


def top_eigen_oracle(S, d: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Top-d eigenpairs of a symmetric matrix via the dense solver,
    eigenvalues descending."""
    vals, vecs = np.linalg.eigh(np.asarray(S, dtype=float))
    order = np.argsort(vals)[::-1][:d]
    return vals[order], vecs[:, order]


def random_stream(rng, t: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Generic regression stream with enough response spread to fill every
    slice of a modest grid."""
    X = rng.standard_normal((t, p))
    y = X[:, 0] + 0.5 * rng.standard_normal(t)
    return X, y


# The tracker's norm floor: ccipca re-seeds a component that falls below it,
# perturbation keeps the previous vector.
_NORM_FLOOR = 1e-12


def ccipca_step_reference(eigen, factor, t: int) -> None:
    """One ccipca step on a materialized p x H factor, deflated explicitly
    as w <- w - u (u'w) after each component: component j is lam u, its
    eigenvalue times its unit vector, and moves to t/(t+1) lam u +
    1/(t+1) (1/H) w w' u, negated when it points away from its previous unit
    vector.  This is the algebra the factor-free tracker must reproduce; it
    updates ``eigen`` in place."""
    w = np.asarray(factor, dtype=float)
    n_slices = w.shape[1]
    keep, blend = t / (t + 1.0), 1.0 / (t + 1.0)

    def reseed(w):
        eigen.reinit_count += 1
        return w[:, int(np.argmax(np.linalg.norm(w, axis=0)))].copy()

    for j in range(eigen.values.size):
        lam = float(eigen.values[j])
        unit = eigen.vectors[:, j]
        if lam < _NORM_FLOOR:
            seed = reseed(w)
            lam = float(np.linalg.norm(seed))
            if lam < _NORM_FLOOR:
                eigen.values[j] = 0.0
                continue
            unit = seed / lam
        v = keep * lam * unit + blend * (w @ (w.T @ unit)) / n_slices
        norm = float(np.linalg.norm(v))
        if norm < _NORM_FLOOR:
            v = reseed(w)
            norm = float(np.linalg.norm(v))
            if norm < _NORM_FLOOR:
                eigen.values[j] = 0.0
                continue
        if eigen.vectors[:, j] @ v < 0.0:
            v = -v
        eigen.values[j] = norm
        unit = v / norm
        eigen.vectors[:, j] = unit
        w = w - np.outer(unit, unit @ w)
    eigen.step += 1


def ccipca_observe_reference(model, x, y) -> None:
    """One ccipca ``observe`` of an ``OnlineSparseSIR`` with every p x H
    temporary materialized: dense factor, explicit deflation, signs aligned
    by multiplying every column, response from a column of the dense
    factor with its coordinates at the eigenvalue floor zeroed and counted
    in ``degenerate_responses``."""
    kernel, eigen = model.kernel, model.eigen
    kernel.update(x, y)
    factor = kernel.slice_cov
    previous = eigen.vectors.copy()
    ccipca_step_reference(eigen, factor, kernel.t - 1)
    overlap = np.einsum("ij,ij->j", previous, eigen.vectors)
    flips = np.where(overlap < 0.0, -1.0, 1.0)
    eigen.vectors = eigen.vectors * flips
    h = slice_index_oracle(float(y), kernel.grid.cuts)
    lams = eigen.values
    floor = pipeline._EIGENVALUE_FLOOR
    response = (factor[:, h] @ eigen.vectors) / (
        kernel.t * kernel.grid.n_slices * np.maximum(lams, floor)
    )
    dead = lams <= floor
    model.degenerate_responses += int(dead.sum())
    model.coef.update(x, np.where(dead, 0.0, response))


# Shifts within this fraction of the largest count as resonant (the
# perturbation tracker's cut-off).
PINV_CUTOFF = 1e-3


def perturbation_step_reference(eigen, kernel_dense, t: int) -> None:
    """One perturbation step through a full eigendecomposition of the
    running average A: each pair moves by -1/(t+1) times v'(A - K)v for the
    value and, for the vector, the cut-off pseudo-inverse of (lam I - A),
    built from A's eigenpairs, applied to (A - K)v.  This is the step the
    solve-based tracker must reproduce; it updates ``eigen`` in place."""
    gap = eigen.averaged_kernel - np.asarray(kernel_dense, dtype=float)
    rate = 1.0 / (t + 1.0)
    base_vals, base_vecs = np.linalg.eigh(eigen.averaged_kernel)
    gv = gap @ eigen.vectors  # (p, d)
    new_values = eigen.values - rate * np.einsum("ij,ij->j", eigen.vectors, gv)
    new_vectors = np.empty_like(eigen.vectors)
    for j in range(eigen.values.size):
        shifts = eigen.values[j] - base_vals
        cutoff = PINV_CUTOFF * float(np.abs(shifts).max())
        inv = np.where(np.abs(shifts) > cutoff, 1.0, 0.0)
        inv = np.divide(inv, shifts, out=np.zeros_like(shifts), where=inv > 0)
        delta = base_vecs @ (inv * (base_vecs.T @ gv[:, j]))
        v = eigen.vectors[:, j] - rate * delta
        norm = float(np.linalg.norm(v))
        new_vectors[:, j] = v / norm if norm > _NORM_FLOOR else eigen.vectors[:, j]
    eigen.values = new_values
    eigen.vectors = new_vectors
    eigen.averaged_kernel -= rate * gap
    eigen.step += 1


def eigen_chain_reference(eigen, kernel, h: int) -> None:
    """The eigen stage of one observation in slice ``h`` as a four-way test
    of the tracker name: the step on its input (the factor operator for
    every strategy but perturbation, which takes the dense kernel, and for
    ipca also the slice) and sign alignment.  This is the chain
    ``EigenTracker.advance`` must reproduce bit for bit."""
    t_prev = kernel.t - 1
    previous = eigen.vectors.copy()
    strategy = eigen.config.strategy
    if strategy == "ccipca":
        eigen.ccipca_step(kernel.factor(), t_prev)
    elif strategy == "sgd":
        eigen.sgd_step(kernel.factor(), t_prev)
    elif strategy == "perturbation":
        eigen.perturbation_step(kernel.kernel_matrix(), t_prev)
    else:  # ipca
        eigen.ipca_step(kernel.factor(), h)
    eigen.align_signs(previous)


def observe_chain_reference(model, x, y) -> None:
    """One default (ccipca) ``observe`` of an ``OnlineSparseSIR``, written
    out with every numpy call its stages make on the kernel's p x (H + 1)
    block [S, x_sum] of slice sums and covariate sum: the input check
    (``np.isfinite`` validation, ``np.searchsorted``), the prediction b'x
    before any state changes, the ccipca step in two block products per
    component (W'a centered on the (H + 1)-vector, W g as the block times
    [g; -(c.g)/t]) with each component's sign checked against its old unit
    vector before that is overwritten, the response from two dots with the
    block's columns (always through ``np.maximum``) and the unchecked
    coefficient step, which forms the prediction again only after a
    truncation.  It calls none of the package's methods, so ``observe`` must
    match it bit for bit; it updates ``model`` in place and returns
    nothing."""
    kernel, grid, eigen, coef = model.kernel, model.kernel.grid, model.eigen, model.coef

    # input check and the prediction, before any state changes
    x = np.asarray(x, dtype=float).ravel()
    assert x.size == kernel.n_features and np.all(np.isfinite(x))
    y = float(y)
    assert np.isfinite(y)
    h = int(np.searchsorted(grid.cuts, y, side="left"))
    prediction = coef.betas.T @ x
    assert np.all(np.isfinite(prediction))

    # slice statistics
    kernel.t += 1
    kernel.x_sum += x
    kernel.cross_sum[:, h] += x
    grid.counts[h] += 1

    # the factor W = (S - x_sum c'/t) / t as block products, never formed
    t, block, counts = kernel.t, kernel.block, grid.counts
    n_slices = counts.size

    def reseed(units):
        eigen.reinit_count += 1
        w = np.empty((block.shape[0], n_slices), order="F")
        np.multiply.outer(block[:, -1], counts / t, out=w)
        np.subtract(block[:, :-1], w, out=w)
        w /= t
        for u in units:
            w = w - np.outer(u, u @ w)
        return w[:, int(np.argmax(np.linalg.norm(w, axis=0)))].copy()

    def w_w_transposed_times(v, scale):
        r = block.T @ v
        g = r[:-1]
        g -= counts * (r[-1] / t)
        g *= scale / (t * t)
        r[-1] = (counts @ g) / -t
        return block @ r

    # eigen stage: ccipca step with the sign check folded in
    step_t = t - 1
    keep, blend = step_t / (step_t + 1.0), 1.0 / (step_t + 1.0)
    per_slice = blend / n_slices
    scratch = np.empty(block.shape[0])
    units = []
    smallest = math.inf
    for j in range(eigen.values.size):
        lam = float(eigen.values[j])
        unit = eigen.vectors[:, j]
        start = unit
        if lam < _NORM_FLOOR:
            seed = reseed(units)
            lam = math.sqrt(seed @ seed)
            if lam < _NORM_FLOOR:
                eigen.values[j] = smallest = 0.0
                continue
            start = seed / lam
        a = start
        if units:
            a = start.copy()
            for u in reversed(units):
                a -= np.multiply(u, u @ a, out=scratch)
        v = w_w_transposed_times(a, per_slice)
        for u in units:
            v -= np.multiply(u, u @ v, out=scratch)
        v += np.multiply(start, keep * lam, out=scratch)
        norm = math.sqrt(v @ v)
        if norm < _NORM_FLOOR:
            v = reseed(units)
            norm = math.sqrt(v @ v)
            if norm < _NORM_FLOOR:
                eigen.values[j] = smallest = 0.0
                continue
        eigen.values[j] = norm
        np.divide(v, -norm if unit @ v < 0.0 else norm, out=unit)
        units.append(unit)
        smallest = min(smallest, norm)
    eigen.step += 1
    assert smallest == eigen.values.min()

    # synthetic response
    vectors = eigen.vectors
    proj = block[:, h] @ vectors
    proj -= (counts[h] / t) * (block[:, -1] @ vectors)
    proj /= t
    floor = pipeline._EIGENVALUE_FLOOR
    lams = eigen.values
    response = proj / (t * n_slices * np.maximum(lams, floor))
    dead = lams <= floor
    if dead.any():
        response = np.where(dead, 0.0, response)
        model.degenerate_responses += int(dead.sum())

    # coefficient step, unchecked but for the target
    assert np.all(np.isfinite(response))
    coef.step += 1
    if coef.gravity > 0.0 and coef.step % coef.period == 0:
        shrink = coef.gravity * coef.rate * coef.period
        mag = np.abs(coef.betas)
        cut = mag <= min(shrink, coef.threshold)
        out = np.maximum(mag - shrink, 0.0)
        out *= np.sign(coef.betas)
        out = np.where(mag <= coef.threshold, out, coef.betas)
        coef.truncation_zeros += int(np.count_nonzero(cut) - np.count_nonzero(mag == 0.0))
        coef.betas = out
        prediction = coef.betas.T @ x
    resid = response - prediction
    resid *= 2.0 * coef.rate
    rows = coef.betas.T
    rows += resid[:, None] * x


def assert_same_state(a, b, path="model"):
    """Every attribute of a model and of its stages (the attributes that are
    plain objects, not dataclass configs) is bitwise equal."""
    assert vars(a).keys() == vars(b).keys(), path
    for name, value in vars(a).items():
        other = vars(b)[name]
        where = f"{path}.{name}"
        if name == "dense_builds":  # a diagnostic counter checkpoints do not keep
            continue
        if hasattr(value, "__dict__") and not dataclasses.is_dataclass(value):
            assert_same_state(value, other, where)
        elif isinstance(value, np.ndarray):
            assert isinstance(other, np.ndarray) and value.dtype == other.dtype, where
            assert value.shape == other.shape and value.tobytes() == other.tobytes(), where
        else:
            assert type(value) is type(other) and value == other, where
