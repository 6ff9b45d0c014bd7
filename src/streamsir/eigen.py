"""Incremental eigen-trackers for the slice kernel matrix.

Four interchangeable strategies maintain the top-d eigenpairs of the
p x p slice kernel while only ever being shown its p x H factor (and, for
the perturbation strategy alone, the dense matrix):

* ``ccipca``        covariance-free averaging of weighted samples, with
                    deflation between components.  O(pdH) per step, the
                    default and the only one that scales past p ~ 10^3.
* ``perturbation``  first-order eigenpair correction around the running
                    average of kernel matrices.  O(p^3) per step: one
                    ``eigh`` of the average, or, for one direction at
                    p >= 40, no eigendecomposition: one p x p solve and
                    one Cholesky factorization that proves which shift
                    is resonant, plus one or two solves of Rayleigh
                    quotient iteration when the pair is; kept as the
                    accuracy yardstick at small p.
* ``sgd``           stochastic gradient ascent on the Rayleigh quotient
                    with a first-order deflation term; periodic
                    Gram-Schmidt repair.
* ``ipca``          rank-(d+1) incremental decomposition: project the new
                    factor column onto the current basis plus its residual
                    direction and re-solve a (d+1) x (d+1) problem.

ccipca, sgd and ipca need only thin products and one column of the
factor, so the pipeline hands them a ``SliceFactor`` operator and the
factor is never formed; their steps also accept the p x H array.  All
trackers are initialized from the same warmup statistics via a thin SVD of
the p x H factor, which equals the dense eigendecomposition of the kernel
matrix without materializing it.  ``EigenTracker.advance`` runs the
whole eigen stage of one streaming observation for any strategy.  A
tracker's state is its public attributes.  The constructor allocates the
chosen strategy's own state, zeroed, from the shapes of the basis, so a
loader needs no per-strategy knowledge; ``from_kernel`` fills it from the
warmup, and ``OnlineSparseSIR.save`` decides which of it a checkpoint holds.

``vectors`` and ``raw_vectors`` start column-major (Fortran order) and
ccipca rewrites their columns in place, so on the default path every
per-component pass runs over contiguous memory.  The other strategies
replace ``vectors`` with whatever layout their linear algebra returns; the
layout is an implementation detail, not part of the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateDataError
from .kernel import SliceFactor

STRATEGIES = ("ccipca", "perturbation", "sgd", "ipca")

_NORM_FLOOR = 1e-12
# Shifts within this fraction of the largest one count as resonant and are
# excluded from the perturbation pseudo-inverse.  The tracked pair itself is
# always resonant once the tracker converges (its shift decays toward zero),
# and inverting it amplifies the per-step innovation enough to throw the
# vector onto a different eigenpair, so the tolerance is deliberately coarse.
_PINV_CUTOFF = 1e-3
_EPS = np.finfo(float).eps
# Rayleigh quotient iteration shifts off mu by this fraction of the largest
# shift, about mu's own rounding error: once mu is exact to rounding, A - mu I
# can have an exactly zero pivot.
_SHIFT_NUDGE = 4 * _EPS
# Rayleigh quotient iteration stops once the residual is this fraction of the
# largest shift: the eigenvector it leaves in the pseudo-inverse is then off
# by at most this over the eigengap.  Over criterion 4's first M5 stream
# (p = 500, 800 steps) the tracker ends 3e-12 from the eigh reference at
# 1e-10, 4e-15 at 1e-12 and 4e-16 here; the iteration, cubically convergent,
# gets there from the tracked vector in one or two solves, and gives up after
# ``_RAYLEIGH_SOLVES``.
_RESIDUAL_TOL = 1e-13
_RAYLEIGH_SOLVES = 4
# The perturbation step's solves replace its eigh for one direction from
# this many features on (see ``_solves_pay``).
_SOLVE_MIN_P = 40
# The sgd step replaces its first-order deflation by an exact Gram-Schmidt
# pass every this many steps.
_ORTHONORMALIZE_EVERY = 50
# The sgd step size is this constant over (t + 1).  At 20 the tracker lands
# within acceptance criterion 2's 0.1 rad of the batch eigenvector (median
# over its 10 seeds); at 5 it ends 0.122 rad away.
_SGD_RATE_CONSTANT = 20.0


@dataclass(frozen=True)
class TrackerConfig:
    strategy: str = "ccipca"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )


class EigenTracker:
    """Top-d eigenpair state plus one strategy's update rule.

    Attributes
    ----------
    values : (d,) tracked eigenvalues, descending at init.
    vectors : (p, d) tracked eigenvectors, unit columns.
    raw_vectors : (p, d) unnormalized component vectors (ccipca only);
        the norm of column j doubles as its eigenvalue estimate.
    averaged_kernel : (p, p) running mean of dense kernel matrices
        (perturbation only; zeros until ``from_kernel`` sets it).
    slice_y_sum, slice_y_count : (H,) response sum and count per slice, whose
        ratio picks the slice of each observation (ipca only; allocated
        when ``n_slices`` is given).
    step : number of streaming updates applied.
    reinit_count : how often a collapsed ccipca component was re-seeded.
    """

    def __init__(
        self,
        values: np.ndarray,
        vectors: np.ndarray,
        config: TrackerConfig,
        n_slices: int | None = None,
    ):
        self.values = np.array(values, dtype=float)
        self.vectors = np.array(vectors, dtype=float, order="F")
        self.config = config
        self.step = 0
        self.reinit_count = 0
        self.raw_vectors = (
            self.vectors * self.values  # keeps the column-major layout
            if config.strategy == "ccipca"
            else None
        )
        p = self.vectors.shape[0]
        self.averaged_kernel = np.zeros((p, p)) if config.strategy == "perturbation" else None
        if config.strategy == "ipca" and n_slices is not None:
            self.slice_y_sum = np.zeros(n_slices)
            self.slice_y_count = np.zeros(n_slices, dtype=np.int64)
        else:
            self.slice_y_sum = self.slice_y_count = None

    @property
    def n_directions(self) -> int:
        return self.values.size

    @classmethod
    def from_kernel(cls, kernel, d: int, config: TrackerConfig, y=None) -> "EigenTracker":
        """Initialize from warmup statistics.

        The top-d eigenpairs of (1/H) C C' are read off the thin SVD of the
        p x H factor C, so no p x p matrix is formed unless the strategy
        itself requires one: perturbation's running average starts at the
        dense kernel.  The ipca strategy starts its per-slice response sums
        from the warmup responses ``y``; without them every slice starts
        empty and its step raises ``DataError``.
        """
        factor = kernel.slice_cov
        p, n_slices = factor.shape
        if not 1 <= d <= min(p, n_slices):
            raise ConfigurationError(
                f"need 1 <= d <= min(p, H) = {min(p, n_slices)}, got {d}"
            )
        u, s, _ = np.linalg.svd(factor, full_matrices=False)
        values = s[:d] ** 2 / n_slices
        vectors = u[:, :d]
        if values[0] <= _NORM_FLOOR:
            raise DegenerateDataError(
                "slice kernel is numerically zero; covariates carry no "
                "between-slice signal in the warmup"
            )
        tracker = cls(values, vectors, config, n_slices)
        if tracker.averaged_kernel is not None:
            tracker.averaged_kernel = kernel.kernel_matrix()
        if tracker.slice_y_sum is not None and y is not None:
            y = np.asarray(y, dtype=float).ravel()
            slices = np.searchsorted(kernel.grid.cuts, y, side="left")
            np.add.at(tracker.slice_y_sum, slices, y)
            np.add.at(tracker.slice_y_count, slices, 1)
        return tracker

    # -- one streaming observation ---------------------------------------------

    def advance(self, kernel, factor, y) -> float:
        """The eigen stage of one observation, after ``kernel`` absorbed it:
        the strategy's step on the input it needs (ccipca, sgd and ipca the
        factor operator ``factor = kernel.factor()``, which the caller
        builds once per observation, perturbation the dense kernel), ipca's
        slice bookkeeping, then sign alignment, which ccipca does inside its
        step.  Returns the smallest tracked eigenvalue.

        The sgd, perturbation and ipca steps never write into ``vectors``:
        each rebinds it to a new array, so the array it replaced is the
        previous step's basis that signs are aligned against, uncopied."""
        t = kernel.t - 1
        strategy = self.config.strategy
        if strategy == "ccipca":
            return self.ccipca_step(factor, t)
        previous = self.vectors
        if strategy == "sgd":
            self.sgd_step(factor, t)
        elif strategy == "perturbation":
            self.perturbation_step(kernel.kernel_matrix(), t)
        else:  # ipca
            y = float(y)
            with np.errstate(invalid="ignore"):  # an empty slice's mean is nan
                means = self.slice_y_sum / self.slice_y_count
            k = self.ipca_step(factor, y, means)
            self.slice_y_sum[k] += y
            self.slice_y_count[k] += 1
        self.align_signs(previous)
        return float(self.values.min())

    # -- strategy updates -----------------------------------------------------

    def ccipca_step(self, factor, t: int) -> float:
        """Candid covariance-free update from the current p x H factor.

        Component j receives the weighted-average update
        v <- t/(t+1) v + 1/(t+1) (1/H) W_j (W_j' v/|v|) on the j-times-deflated
        factor W_j = P_{j-1}...P_0 W, with P_k = I - u_k u_k' for the unit
        vectors u_k of the components before it.  The deflation is applied
        to vectors, W_j g = P_{j-1}...P_0 (W g) and W_j' u = W' (P_0...P_{j-1} u),
        so ``factor`` may be an ndarray or a ``SliceFactor``.  Each component
        costs the two block products of ``SliceFactor.kernel_times``, with
        the 1/|v|, 1/(t+1) and 1/H scales applied on the H-sized side.
        Column j of ``raw_vectors`` is updated in place;
        before its unit vector overwrites column j of ``vectors``, the new
        column is negated when it points away from the old unit column, so
        the step aligns its own signs (``align_signs``' rule).  The first
        component builds no p-sized temporary besides W g; the deflated
        ones share one scratch buffer.  A component whose norm collapses
        below 1e-12 is re-seeded from the largest remaining deflated column
        and counted in ``reinit_count``.  Returns the smallest eigenvalue.
        """
        w = SliceFactor.wrap(factor)
        keep, blend = t / (t + 1.0), 1.0 / (t + 1.0)
        per_slice = blend / w.counts.size
        scratch = np.empty(self.raw_vectors.shape[0]) if self.n_directions > 1 else None
        units = []  # columns of ``vectors`` already updated this step
        smallest = math.inf
        for j in range(self.n_directions):
            v = self.raw_vectors[:, j]
            norm = math.sqrt(v.dot(v))
            if norm < _NORM_FLOOR:
                seed = self._reseed_from(w, units)
                norm = math.sqrt(seed @ seed)
                if norm < _NORM_FLOOR:
                    self.values[j] = smallest = 0.0
                    continue
                v[:] = seed
            if units:
                a = v / norm
                for u in reversed(units):
                    a -= np.multiply(u, u.dot(a), out=scratch)
                b = w.kernel_times(a, per_slice)
            else:  # a = v/|v|: the 1/|v| scales the H-sized side instead
                b = w.kernel_times(v, per_slice / norm)
            for u in units:
                b -= np.multiply(u, u.dot(b), out=scratch)
            v *= keep
            v += b
            norm = math.sqrt(v.dot(v))
            if norm < _NORM_FLOOR:
                v[:] = self._reseed_from(w, units)
                norm = math.sqrt(v @ v)
                if norm < _NORM_FLOOR:
                    self.values[j] = smallest = 0.0
                    continue
            unit = self.vectors[:, j]
            if unit.dot(v) < 0.0:
                v *= -1.0
            self.values[j] = norm
            np.divide(v, norm, out=unit)
            units.append(unit)
            if norm < smallest:
                smallest = norm
        self.step += 1
        return smallest

    def _reseed_from(self, factor, units) -> np.ndarray:
        self.reinit_count += 1
        w = np.asarray(factor, dtype=float)
        for u in units:
            w = w - np.outer(u, u @ w)
        col = int(np.argmax(np.linalg.norm(w, axis=0)))
        return w[:, col].copy()

    def perturbation_step(self, kernel_dense: np.ndarray, t: int) -> None:
        """First-order eigenpair correction around the running kernel mean.

        With A the current average and K the new dense kernel, each pair
        moves by -1/(t+1) times (v'(A - K)v for the value, and the
        pseudo-inverse of (lam I - A) applied to (A - K)v for the vector).
        Shifts lam - mu within a small fraction of the largest are treated
        as singular and dropped, which covers the tracked pair's own
        direction once it has converged.  Where ``_solves_pay`` (one
        direction, p >= 40), the pseudo-inverse is applied by solves
        (``_shift_solves``): one solve, one Cholesky factorization that
        certifies which shift is resonant, and, when the pair is, one or
        two solves of Rayleigh quotient iteration.  Otherwise, and in the
        cases the certificate cannot settle, it comes from one
        eigendecomposition of A (``_eigh_shift_inverse``).  State changes
        only after every product is formed, so an error leaves the tracker
        as it was.
        """
        gap = self.averaged_kernel - np.asarray(kernel_dense, dtype=float)
        rate = 1.0 / (t + 1.0)
        gv = gap @ self.vectors  # (p, d)
        new_values = self.values - rate * np.einsum("ij,ij->j", self.vectors, gv)
        deltas = None
        if _solves_pay(*self.vectors.shape):
            deltas = _shift_solves(self.averaged_kernel, self.values, self.vectors, gv)
        if deltas is None:
            deltas = _eigh_shift_inverse(self.averaged_kernel, self.values, gv)
        new_vectors = np.empty_like(self.vectors)
        for j in range(self.n_directions):
            v = self.vectors[:, j] - rate * deltas[:, j]
            norm = float(np.linalg.norm(v))
            new_vectors[:, j] = v / norm if norm > _NORM_FLOOR else self.vectors[:, j]
        gap *= rate
        self.values = new_values
        self.vectors = new_vectors
        self.averaged_kernel -= gap
        self.step += 1

    def sgd_step(self, factor, t: int) -> None:
        """Stochastic gradient update with first-order deflation.

        Writing phi_j = W' v_j, the value moves toward phi_j'phi_j and the
        vector takes a gradient step along W phi_j minus the self and
        lower-component corrections (coefficient 2 on the latter).  Every
        ``_ORTHONORMALIZE_EVERY`` steps the correction is replaced by an
        exact Gram-Schmidt pass.  Step size is C/(t+1), C being
        ``_SGD_RATE_CONSTANT``.
        """
        w = SliceFactor.wrap(factor)
        gamma = _SGD_RATE_CONSTANT / (t + 1.0)
        phi = w.T @ self.vectors  # (H, d)
        gram = phi.T @ phi  # (d, d)
        self.values = self.values + gamma * (np.diag(gram) - self.values)
        self.step += 1
        drive = w @ phi  # (p, d)
        if self.step % _ORTHONORMALIZE_EVERY == 0:
            q, r = np.linalg.qr(self.vectors + gamma * drive)
            signs = np.sign(np.diag(r))
            signs[signs == 0] = 1.0
            self.vectors = q * signs[None, :]
        else:
            correction = self.vectors * np.diag(gram)[None, :]
            correction += 2.0 * (self.vectors @ np.triu(gram, k=1))
            self.vectors = self.vectors + gamma * (drive - correction)

    def ipca_step(self, factor, y: float, slice_means: np.ndarray) -> int:
        """Incremental rank-(d+1) refresh driven by the nearest-mean slice.

        The new observation is attributed to the slice whose running mean
        response is closest to y (ties to the lower index, empty slices
        skipped).  That slice's factor column is split into its projection
        onto the current basis and a residual direction; the (d+1)-dim
        compressed kernel is re-solved exactly and the top d pairs kept.
        Returns the chosen slice, whose response sums ``advance`` updates.
        """
        w = SliceFactor.wrap(factor)
        n_slices = w.counts.size
        means = np.asarray(slice_means, dtype=float)
        if means.size != n_slices:
            raise DataError("one running mean per slice is required")
        dist = np.abs(float(y) - means)
        dist[~np.isfinite(means)] = np.inf
        if not np.any(np.isfinite(dist)):
            raise DataError("no slice has a defined running mean")
        k = int(np.argmin(dist))

        col = w.column(k)
        resid = col - self.vectors @ (self.vectors.T @ col)
        norm = float(np.linalg.norm(resid))
        if norm >= _NORM_FLOOR:
            basis = np.hstack([self.vectors, (resid / norm)[:, None]])
        else:
            basis = self.vectors
        z = (w.T @ basis).T  # (d+1, H) compressed factor
        small = z @ z.T / n_slices
        vals, vecs = np.linalg.eigh(small)  # z @ z.T is exactly symmetric
        order = np.argsort(vals)[::-1][: self.n_directions]
        self.values = vals[order]
        self.vectors = basis @ vecs[:, order]
        self.step += 1
        return k

    # -- shared helpers ---------------------------------------------------------

    def align_signs(self, reference: np.ndarray) -> None:
        """Flip column signs so each vector has non-negative overlap with
        its counterpart in ``reference`` (the previous step's basis).  Only
        ``vectors`` is touched: ccipca, the one strategy with
        ``raw_vectors``, aligns inside its own step."""
        for j in range(self.n_directions):
            if reference[:, j].dot(self.vectors[:, j]) < 0.0:
                self.vectors[:, j] *= -1.0


# -- the perturbation step's pseudo-inverse ---------------------------------------


def _solves_pay(p: int, d: int) -> bool:
    """Whether the perturbation step's solves cost less than the ``eigh``
    they replace, for p features and d directions.

    For one direction a step takes one solve and one Cholesky
    factorization, plus one or two solves when the pair is resonant.  Time
    per observation through ``fit_online``, solves over eigh (one thread of
    a 2-core Xeon, model 1, medians of interleaved runs, three sets): 1.37,
    1.39 and 1.47 at p = 20; 1.00, 0.93 and 1.32 at 30; 0.74, 0.64 and 0.70
    at 40; 0.48, 0.70 and 0.60 at 100.  With two or more directions the
    certificate settles the first alone, so every step would pay for the
    solves and then for ``eigh``.  So the solves run for one direction from
    ``_SOLVE_MIN_P`` features on.
    """
    return d == 1 and p >= _SOLVE_MIN_P


def _eigh_shift_inverse(average, values, gv) -> np.ndarray:
    """Column j of ``gv`` under the cut-off pseudo-inverse of
    (values[j] I - average), through one eigendecomposition of the average:
    the route where the solves do not pay, and for every case
    ``_shift_solves`` leaves open.  The resonance predicate: a shift is
    resonant within ``_PINV_CUTOFF`` of the largest in magnitude."""
    base_vals, base_vecs = np.linalg.eigh(average)
    deltas = np.empty_like(gv)
    for j in range(values.size):
        shifts = values[j] - base_vals
        size = np.abs(shifts)
        resonant = size <= _PINV_CUTOFF * size.max()
        inv = np.divide(1.0, shifts, out=np.zeros_like(shifts), where=~resonant)
        deltas[:, j] = base_vecs @ (inv * (base_vecs.T @ gv[:, j]))
    return deltas


def _shift_solves(average, values, vectors, gv) -> np.ndarray | None:
    """``_eigh_shift_inverse`` by linear solves and no eigendecomposition:
    which shift is resonant is proved instead of read off the spectrum.

    For a unit q with Rayleigh quotient mu = q'Aq and residual r = Aq - mu q,
    A has an eigenvalue within |r| of mu (Parlett 1998).  The average is a
    mean of PSD kernels, so every eigenvalue lies above -p eps tr A, and the
    smallest is at most min_i A_ii.  Once mu's eigenvalue is known to be the
    top one, or every eigenvalue to lie below lam, these bound the cut-off C
    (``_PINV_CUTOFF`` times the largest |lam - eigenvalue|) above by ``cut``
    and below.  One Cholesky factorization proves the rest: A is
    (b - cut) I - F + c qq' for F = (b - cut) I - A + c qq', so when F is
    positive definite and c >= 0, Cauchy interlacing puts every eigenvalue
    of A but the top one below b - cut, and with c = 0 every one, however
    rough q is.  For lam = values[j], from the tracked vector:

    * lam more than the cut-off from mu's eigenvalue (|lam - mu| - |r| >
      cut; b = lam, c = mu above lam and 0 below): no shift is resonant,
      and one solve with lam I - A applies the inverse, the eigh route's
      formula in exact arithmetic;
    * otherwise Rayleigh quotient iteration refines (mu, q) until |r| is at
      most ``_RESIDUAL_TOL`` of the largest shift, or the first case holds.
      The top shift is the one resonant shift when |lam - mu| + |r| is
      within C's lower bound, or within the one that a failed Cholesky
      factorization of A - sI gives (``_has_eigenvalue_below``).  b =
      min(lam, mu) also keeps the other eigenvalues over the cut-off below
      mu, and one solve with lam I - A + c qq', c the bound on the largest
      shift, on the right-hand side with q projected off, projected off
      again, applies the pseudo-inverse that drops it (Stewart & Sun 1990).

    Returns None, leaving the step to the eigendecomposition, in every case
    this does not settle: a failed certificate (an eigenvalue other than the
    top one within the cut-off of lam or of mu, as for a second direction),
    an iteration short of the tolerance after ``_RAYLEIGH_SOLVES`` solves or
    drawn to another eigenpair, a top shift whose resonance the bounds leave
    open, or a singular solve.
    """
    p = average.shape[0]
    floor = -p * _EPS * float(np.trace(average))  # below every eigenvalue
    ceiling = float(average.diagonal().min())  # at or above the smallest
    deltas = np.empty_like(gv)
    try:
        for j in range(values.size):
            lam = float(values[j])
            mu, q, res = _rayleigh(average, vectors[:, j])
            solves = 0
            while True:
                width = max(lam - floor, mu + res - lam)  # the largest shift, or above
                cut = _PINV_CUTOFF * width
                if abs(mu - lam) - res > cut or res <= _RESIDUAL_TOL * width:
                    break
                if solves == _RAYLEIGH_SOLVES:
                    return None
                iterate = average.copy()
                iterate.flat[:: p + 1] -= mu + _SHIFT_NUDGE * width
                mu, q, res = _rayleigh(average, np.linalg.solve(iterate, q))
                solves += 1
            g = gv[:, j]
            # the top shift is resonant once the largest shift is this or more
            reach = (abs(lam - mu) + res) / _PINV_CUTOFF
            if abs(mu - lam) - res > cut:
                bound = lam
                shifted = np.negative(average)
                shifted.flat[:: p + 1] += lam
                deltas[:, j] = np.linalg.solve(shifted, g)
                if mu > lam:  # else c = 0 proves every eigenvalue below
                    shifted += np.multiply.outer(q, mu * q)
            elif reach <= max(lam - ceiling, mu - res - lam) or _has_eigenvalue_below(
                average, lam - reach
            ):
                bound = min(lam, mu)
                shifted = np.multiply.outer(q, width * q)
                shifted -= average
                shifted.flat[:: p + 1] += lam
                delta = np.linalg.solve(shifted, g - q * q.dot(g))
                delta -= q * q.dot(delta)
                deltas[:, j] = delta
            else:
                return None
            # the certificate: (bound - cut) I - A plus a PSD multiple of qq'
            shifted.flat[:: p + 1] -= lam - bound + cut
            np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    return deltas


def _rayleigh(average, x) -> tuple[float, np.ndarray, float]:
    """``(mu, q, |r|)``: the Rayleigh quotient mu of the unit q along x, and
    the norm of the residual r = Aq - mu q."""
    q = x / np.linalg.norm(x)
    aq = average @ q
    mu = float(q.dot(aq))
    aq -= mu * q
    return mu, q, float(np.linalg.norm(aq))


def _has_eigenvalue_below(average, level: float) -> bool:
    """Whether the average has an eigenvalue below ``level``: whether a
    Cholesky factorization of A - level I fails."""
    shifted = average.copy()
    shifted.flat[:: shifted.shape[0] + 1] -= level
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return True
    return False
