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
                    p >= 40, no eigendecomposition: one p x p solve, plus,
                    when the tracked vector and the eigenvalue bounds
                    carried between steps leave the pair's resonance
                    open, Rayleigh quotient iteration (one or two
                    solves), and a Cholesky factorization only where
                    those bounds no longer prove which shift is
                    resonant; kept as the accuracy yardstick at small p.
* ``sgd``           stochastic gradient ascent on the Rayleigh quotient
                    with a first-order deflation term; periodic
                    Gram-Schmidt repair.
* ``ipca``          rank-(d+1) incremental decomposition: project the
                    factor column of the observation's slice onto the
                    current basis plus its residual direction and re-solve
                    the kernel compressed onto those d + 1 vectors.

ccipca, sgd and ipca need only thin products with the factor and one of
its columns, which their steps take from the ``KernelTracker`` itself, so
the factor is never formed.  A kernel given by a factor F, as F F' / H, has
one eigen route: ``factor_top_eigen``, the thin SVD of F, which equals the
dense eigendecomposition of the kernel without materializing it.  All
trackers start from it on the warmup's p x H factor, ipca re-solves its
compressed (d+1) x H factor with it, and batch SIR and Lasso-SIR
(``batch``) take their between-slice eigenpairs from it.
``EigenTracker.advance`` runs the whole eigen stage of one streaming
observation for any strategy, from the slice statistics and the
observation's grid slice alone: no strategy reads the response.  A
tracker's state is its public attributes.  Every strategy but perturbation
keeps only the basis (ccipca's component vectors are the eigenvalues times
the eigenvectors); the constructor allocates perturbation's own state,
zeroed, from the shapes of the basis, so a loader needs no per-strategy
knowledge; ``from_kernel`` fills it from the warmup, and
``OnlineSparseSIR.save`` decides which of it a checkpoint holds.

``vectors`` starts column-major (Fortran order) and ccipca rewrites its
columns in place, so on the default path every per-component pass runs
over contiguous memory.  The other strategies replace ``vectors`` with
whatever layout their linear algebra returns; the layout is an
implementation detail, not part of the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDataError, check_directions, finite_array

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
# ``_RAYLEIGH_STEPS`` solves.
_RESIDUAL_TOL = 1e-13
_RAYLEIGH_STEPS = 4
# The perturbation step's solves replace its eigh for one direction from
# this many features on (see ``_solves_pay``).
_SOLVE_MIN_P = 40
# A Cholesky certificate of the perturbation solves first tries to prove its
# bound this fraction of (level - floor) below the level the step needs, so
# that the bound it leaves stays under the next steps' levels while Weyl's
# inequality loosens it; where that fails, the second factorization proves
# the level itself.  Factorizations per step (dense baseline, d = 1, H = 10,
# 100 warmup rows), at margins 0.05 / 0.1 / 0.15 / 0.25: 0.06 / 0.035 /
# 0.03-0.09 / 0.02-0.38 on three model-1 streams at p = 100 and 0.07 / 0.13
# / 0.20 / 0.57 on model 3, whose second eigenvalue nears the first; 57 / 29
# / 20 of 800 steps at 0.05 / 0.1 / 0.15 and 356 at 0.2 on criterion 4's
# first p = 500 stream.  Over criterion 4's ten streams 0.1 takes 1898 in
# 8000 steps: about 30 on seven, and 482, 548 and 657 on the three whose
# second eigenvalue starts above 0.9 of the first, where every renewal
# takes both factorizations and holds for a step or two.
_CERTIFICATE_MARGIN = 0.1
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


def factor_top_eigen(factor: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-d eigenpairs of F F' / H for the k x H ``factor`` F, eigenvalues
    descending, from its thin SVD F = U S V': the values are s^2 / H and the
    vectors the first d columns of U, in O(k H min(k, H)) and with no k x k
    matrix formed.  Column signs are LAPACK's.  The caller checks d: at
    most min(k, H) pairs exist."""
    u, s, _ = np.linalg.svd(factor, full_matrices=False)
    return s[:d] ** 2 / factor.shape[1], u[:, :d]


class EigenTracker:
    """Top-d eigenpair state plus one strategy's update rule.

    Attributes
    ----------
    values : (d,) tracked eigenvalues, descending at init.
    vectors : (p, d) tracked eigenvectors, unit columns.
    averaged_kernel : (p, p) running mean of dense kernel matrices
        (perturbation only; zeros until ``from_kernel`` sets it).
    top_bound, second_bound : upper bounds on the largest and the
        second-largest eigenvalue of ``averaged_kernel`` (perturbation only;
        +inf until a certificate of the solves proves one).
    step : number of streaming updates applied.
    reinit_count : how often a collapsed ccipca component was re-seeded.
    """

    def __init__(self, values: np.ndarray, vectors: np.ndarray, config: TrackerConfig):
        """Copies of ``values`` and ``vectors`` become the state; either
        refused by ``errors.finite_array`` raises ``DataError``."""
        self.values = np.array(finite_array(values, "eigenvalues"))
        self.vectors = np.array(finite_array(vectors, "eigenvectors"), order="F")
        self.config = config
        self.step = 0
        self.reinit_count = 0
        p = self.vectors.shape[0]
        perturbation = config.strategy == "perturbation"
        self.averaged_kernel = np.zeros((p, p)) if perturbation else None
        self.top_bound = self.second_bound = math.inf if perturbation else None

    @property
    def n_directions(self) -> int:
        return self.values.size

    @classmethod
    def from_kernel(cls, kernel, d: int, config: TrackerConfig) -> "EigenTracker":
        """Initialize from warmup statistics.

        The top-d eigenpairs of (1/H) C C' are read off the thin SVD of the
        p x H factor C (``factor_top_eigen``), so no p x p matrix is formed
        unless the strategy itself requires one: perturbation's running
        average starts at the dense kernel, with its eigenvalue bounds at
        +inf.
        """
        factor = kernel.slice_cov
        check_directions(d, *factor.shape)
        values, vectors = factor_top_eigen(factor, d)
        if values[0] <= _NORM_FLOOR:
            raise DegenerateDataError(
                "slice kernel is numerically zero; covariates carry no "
                "between-slice signal in the warmup"
            )
        tracker = cls(values, vectors, config)
        if tracker.averaged_kernel is not None:
            tracker.averaged_kernel = kernel.kernel_matrix()
        return tracker

    # -- one streaming observation ---------------------------------------------

    def advance(self, kernel, h: int) -> None:
        """The eigen stage of one observation, after ``kernel`` absorbed it
        into grid slice ``h``: the strategy's step on the input it needs
        (ccipca, sgd and ipca the kernel's products with the factor, ipca
        also the slice, perturbation the dense kernel), then sign
        alignment, which ccipca does inside its step.  Returns nothing: the
        new state is ``values`` and ``vectors``.

        The sgd, perturbation and ipca steps never write into ``vectors``:
        each rebinds it to a new array, so the array it replaced is the
        previous step's basis that signs are aligned against, uncopied."""
        t = kernel.t - 1
        strategy = self.config.strategy
        if strategy == "ccipca":
            self.ccipca_step(kernel, t)
            return
        previous = self.vectors
        if strategy == "sgd":
            self.sgd_step(kernel, t)
        elif strategy == "perturbation":
            self.perturbation_step(kernel.kernel_matrix(), t)
        else:  # ipca
            self.ipca_step(kernel, h)
        self.align_signs(previous)

    # -- strategy updates -----------------------------------------------------

    def ccipca_step(self, kernel, t: int) -> None:
        """Candid covariance-free update from the current p x H factor W of
        the ``KernelTracker`` ``kernel``.

        Component j is the vector v = lam u of its eigenvalue lam and unit
        eigenvector u, and receives the weighted-average update
        v <- t/(t+1) v + 1/(t+1) (1/H) W_j (W_j' u) on the j-times-deflated
        factor W_j = P_{j-1}...P_0 W, with P_k = I - u_k u_k' for the unit
        vectors u_k of the components before it.  The deflation is applied
        to vectors, W_j g = P_{j-1}...P_0 (W g) and W_j' u = W' (P_0...P_{j-1} u),
        so W is never formed: each component costs the two block products of
        ``KernelTracker.kernel_times``, with the 1/(t+1) and 1/H scales
        applied on the H-sized side.  The new v's norm is the new lam;
        before v/|v| overwrites column j of ``vectors`` in place, v is
        negated when it points away from the old unit column, so the step
        aligns its own signs (``align_signs``' rule).
        A component whose eigenvalue lies below 1e-12, before or after its
        update, is collapsed: it is re-seeded from the largest remaining
        deflated column and counted in ``reinit_count``.
        """
        keep, blend = t / (t + 1.0), 1.0 / (t + 1.0)
        per_slice = blend / kernel.grid.n_slices
        scratch = np.empty(self.vectors.shape[0])
        units = []  # columns of ``vectors`` already updated this step
        for j in range(self.n_directions):
            lam = float(self.values[j])
            unit = self.vectors[:, j]
            start = unit
            if lam < _NORM_FLOOR:
                seed = self._reseed_from(kernel, units)
                lam = math.sqrt(seed.dot(seed))
                if lam < _NORM_FLOOR:
                    self.values[j] = 0.0
                    continue
                start = seed / lam
            a = start
            if units:
                a = start.copy()
                for u in reversed(units):
                    a -= np.multiply(u, u.dot(a), out=scratch)
            v = kernel.kernel_times(a, per_slice)
            for u in units:
                v -= np.multiply(u, u.dot(v), out=scratch)
            v += np.multiply(start, keep * lam, out=scratch)
            norm = math.sqrt(v.dot(v))
            if norm < _NORM_FLOOR:
                v = self._reseed_from(kernel, units)
                norm = math.sqrt(v.dot(v))
                if norm < _NORM_FLOOR:
                    self.values[j] = 0.0
                    continue
            self.values[j] = norm
            np.divide(v, -norm if unit.dot(v) < 0.0 else norm, out=unit)
            units.append(unit)
        self.step += 1

    def _reseed_from(self, kernel, units) -> np.ndarray:
        self.reinit_count += 1
        w = kernel.slice_cov
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
        (``_shift_solves``): one solve, preceded, when ``second_bound`` and
        the tracked vector's Rayleigh quotient leave the pair's resonance
        open, by Rayleigh quotient iteration (one or two solves).  Which shift
        is resonant is proved by ``top_bound`` and ``second_bound`` or, when
        they are too loose, by a Cholesky factorization that renews them.
        Otherwise, and in the cases the solves cannot settle, it comes from
        one eigendecomposition of A (``_eigh_shift_inverse``).  A moves by
        rate (A - K), so by Weyl's inequality each bound grows by its
        Frobenius norm, plus a slack for the rounding of the update.  State
        changes only after every product is formed, so an error leaves the
        tracker as it was.
        """
        average = self.averaged_kernel
        gap = average - np.asarray(kernel_dense, dtype=float)
        rate = 1.0 / (t + 1.0)
        gv = gap @ self.vectors  # (p, d)
        new_values = self.values - rate * np.einsum("ij,ij->j", self.vectors, gv)
        bounds = (self.top_bound, self.second_bound)
        solved = None
        if _solves_pay(*self.vectors.shape):
            solved = _shift_solves(average, self.values, self.vectors, gv, bounds)
        if solved is None:
            deltas = _eigh_shift_inverse(average, self.values, gv)
        else:
            deltas, bounds = solved
        new_vectors = np.empty_like(self.vectors)
        for j in range(self.n_directions):
            v = self.vectors[:, j] - rate * deltas[:, j]
            norm = math.sqrt(v.dot(v))
            new_vectors[:, j] = v / norm if norm > _NORM_FLOOR else self.vectors[:, j]
        gap *= rate
        flat = gap.ravel()
        drift = math.sqrt(flat.dot(flat))  # |rate (A - K)|_F
        self.values = new_values
        self.vectors = new_vectors
        average -= gap
        p = average.shape[0]
        drift += p * _EPS * (p * drift + float(average.trace()))
        self.top_bound = float(bounds[0] + drift)
        self.second_bound = float(bounds[1] + drift)
        self.step += 1

    def sgd_step(self, kernel, t: int) -> None:
        """Stochastic gradient update with first-order deflation, from the
        products of the ``KernelTracker`` ``kernel`` with its factor W.

        Writing phi_j = W' v_j, the value moves toward phi_j'phi_j / H, the
        Rayleigh quotient of the kernel W W' / H that every tracker follows,
        and the vector takes a gradient step along W phi_j minus the self and
        lower-component corrections (coefficient 2 on the latter).  Every
        ``_ORTHONORMALIZE_EVERY`` steps the correction is replaced by an
        exact Gram-Schmidt pass.  Step size is C/(t+1), C being
        ``_SGD_RATE_CONSTANT``.
        """
        gamma = _SGD_RATE_CONSTANT / (t + 1.0)
        phi = kernel.transpose_times(self.vectors)  # (H, d)
        gram = phi.T @ phi  # (d, d)
        self.values = self.values + gamma * (np.diag(gram) / kernel.grid.n_slices - self.values)
        self.step += 1
        drive = kernel.times(phi)  # (p, d)
        if self.step % _ORTHONORMALIZE_EVERY == 0:
            q, r = np.linalg.qr(self.vectors + gamma * drive)
            signs = np.sign(np.diag(r))
            signs[signs == 0] = 1.0
            self.vectors = q * signs[None, :]
        else:
            correction = self.vectors * np.diag(gram)[None, :]
            correction += 2.0 * (self.vectors @ np.triu(gram, k=1))
            self.vectors = self.vectors + gamma * (drive - correction)

    def ipca_step(self, kernel, h: int) -> None:
        """Incremental rank-(d+1) refresh from column ``h`` of the factor W
        of the ``KernelTracker`` ``kernel``, the grid slice of the new
        observation.

        The column is split into its projection onto the current basis and a
        residual direction.  The factor compressed onto that basis B,
        z = B'W with d + 1 rows, gives the top d pairs of the compressed
        kernel z z' / H through ``factor_top_eigen``, and B maps them back.
        """
        col = kernel.column(h)
        resid = col - self.vectors @ (self.vectors.T @ col)
        norm = float(np.linalg.norm(resid))
        if norm >= _NORM_FLOOR:
            basis = np.hstack([self.vectors, (resid / norm)[:, None]])
        else:
            basis = self.vectors
        z = kernel.transpose_times(basis).T  # (d+1, H) compressed factor
        self.values, vecs = factor_top_eigen(z, self.n_directions)
        self.vectors = basis @ vecs
        self.step += 1

    # -- shared helpers ---------------------------------------------------------

    def align_signs(self, reference: np.ndarray) -> None:
        """Flip column signs so each vector has non-negative overlap with
        its counterpart in ``reference`` (the previous step's basis).  ccipca
        aligns inside its own step instead."""
        for j in range(self.n_directions):
            if reference[:, j].dot(self.vectors[:, j]) < 0.0:
                self.vectors[:, j] *= -1.0


# -- the perturbation step's pseudo-inverse ---------------------------------------


def _solves_pay(p: int, d: int) -> bool:
    """Whether the perturbation step's solves cost less than the ``eigh``
    they replace, for p features and d directions.

    For one direction a step takes one solve with lam I - A.  Where the
    tracked vector and the carried eigenvalue bounds leave the pair's
    resonance open, Rayleigh quotient iteration comes first, with one or
    two solves.  A Cholesky factorization runs only where the carried
    bounds no longer prove which shift is resonant.  Time per observation
    through ``fit_online``, solves over eigh (one thread of a 2-core Xeon,
    model 1, medians of interleaved runs, three sets, when every step took
    a factorization): 1.37, 1.39 and 1.47 at p = 20; 1.00, 0.93 and 1.32 at
    30; 0.74, 0.64 and 0.70 at 40; 0.48, 0.70 and 0.60 at 100.  With the
    step as it is now (1000 rows, medians of five alternating runs), eigh
    against solves: 206 against 148 us at p = 40, 293 / 142 at 50, 367 /
    198 at 60, 565 / 160 at 80 and 843 / 241 at 100.  No benchmark
    workload runs the perturbation tracker below p = 100, so these timings
    alone set ``_SOLVE_MIN_P``.  With two or more directions the
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


def _shift_solves(average, values, vectors, gv, bounds):
    """``_eigh_shift_inverse`` by linear solves and no eigendecomposition:
    which shift is resonant is proved instead of read off the spectrum.
    ``bounds`` are upper bounds on the largest and the second-largest
    eigenvalue of A, carried from step to step.

    For a unit q with Rayleigh quotient mu = q'Aq and residual r = Aq - mu q,
    A has an eigenvalue within |r| of mu (Parlett 1998).  The average is a
    mean of PSD kernels, so every eigenvalue lies above -p eps tr A, and the
    smallest is at most min_i A_ii.  Once mu's eigenvalue is known to be the
    top one, or every eigenvalue to lie below lam, these bound the cut-off C
    (``_PINV_CUTOFF`` times the largest |lam - eigenvalue|) above by ``cut``
    and below.  What remains is a claim for a level b - cut: with c > 0,
    that every eigenvalue of A but the top one lies below it, and with
    c = 0 that every one does.  A carried bound below the level, on the
    second eigenvalue or on the first, proves the claim outright.
    Otherwise one Cholesky factorization does: A is (b - cut) I - F + c qq'
    for F = (b - cut) I - A + c qq', so when F is positive definite,
    Cauchy interlacing puts every eigenvalue of A but the top one below
    b - cut, and with c = 0 every one, however rough q is.  The
    factorization first tries a level ``_CERTIFICATE_MARGIN`` of the way
    down to the floor, then b - cut (``_proved_level``); the level it
    proves bounds the second eigenvalue, and that level plus c the first.
    For lam = values[j], from the tracked vector:

    * lam more than the cut-off from mu's eigenvalue (|lam - mu| - |r| >
      cut; b = lam, c = mu above lam and 0 below): no shift is resonant,
      and one solve with lam I - A applies the inverse, the eigh route's
      formula in exact arithmetic.  The same holds, with b = lam and
      c = mu, when lam < mu - cut and the carried second bound lies below
      both lam - cut and mu - |r|: the top eigenvalue is at least mu
      (Courant-Fischer), every other lies below lam - cut, and the
      eigenvalue within |r| of mu is the top one, so ``cut`` still bounds
      the cut-off; the bound proves the claim, and no factorization runs;
    * otherwise Rayleigh quotient iteration refines (mu, q) until |r| is at
      most ``_RESIDUAL_TOL`` of the largest shift, or the first case holds,
      each step one solve with A - (mu + nudge) I, the nudge
      ``_SHIFT_NUDGE`` of the largest shift.
      The top shift is the one resonant shift when |lam - mu| + |r| is
      within C's lower bound, or within the one that a failed Cholesky
      factorization of A - sI gives (``_has_eigenvalue_below``).  b =
      min(lam, mu) also keeps the other eigenvalues over the cut-off below
      mu, and one solve with lam I - A + c qq', c the bound on the largest
      shift, on the right-hand side with q projected off, projected off
      again, applies the pseudo-inverse that drops it (Stewart & Sun 1990).

    Returns ``(deltas, bounds)``, the bounds as tightened by this call's
    factorizations, or None, leaving the step to the eigendecomposition, in
    every case this does not settle: a failed certificate (an eigenvalue
    other than the top one within the cut-off of lam or of mu, as for a
    second direction), an iteration short of the tolerance after
    ``_RAYLEIGH_STEPS`` steps or drawn to another eigenpair, a top shift
    whose resonance the bounds leave open, or a singular solve.
    """
    p = average.shape[0]
    floor = -p * _EPS * float(average.trace())  # below every eigenvalue
    top, second = bounds
    deltas = np.empty_like(gv)
    try:
        for j in range(values.size):
            lam = float(values[j])
            mu, q, res = _rayleigh(average, vectors[:, j])
            steps = 0
            while True:
                width = max(lam - floor, mu + res - lam)  # the largest shift, or above
                cut = _PINV_CUTOFF * width
                # no shift is resonant: by mu and |r| alone, or by mu as a
                # lower bound on the top eigenvalue and the carried second
                free = abs(mu - lam) - res > cut or (
                    lam < mu - cut and second < min(lam - cut, mu - res)
                )
                if free or res <= _RESIDUAL_TOL * width:
                    break
                if steps == _RAYLEIGH_STEPS:
                    return None
                iterate = average.copy()
                _diagonal(iterate)[:] -= mu + _SHIFT_NUDGE * width
                mu, q, res = _rayleigh(average, np.linalg.solve(iterate, q))
                steps += 1
            g = gv[:, j]
            # the top shift is resonant once the largest shift is this or more
            reach = (abs(lam - mu) + res) / _PINV_CUTOFF
            if free:
                bound, c = lam, mu if mu > lam else 0.0
                shifted = np.negative(average)
                _diagonal(shifted)[:] += lam
                deltas[:, j] = np.linalg.solve(shifted, g)
                missing = c  # the certificate's qq' term, which the solve lacks
            # min_i A_ii is at or above the smallest eigenvalue
            elif reach <= max(lam - average.diagonal().min(), mu - res - lam) or (
                _has_eigenvalue_below(average, lam - reach)
            ):
                bound, c, missing = min(lam, mu), width, 0.0
                shifted = np.multiply.outer(q, width * q)
                shifted -= average
                _diagonal(shifted)[:] += lam
                delta = np.linalg.solve(shifted, g - q * q.dot(g))
                delta -= q * q.dot(delta)
                deltas[:, j] = delta
            else:
                return None
            level = bound - cut
            if (second if c > 0.0 else top) < level:
                continue  # the carried bound proves the claim
            if missing:
                shifted += np.multiply.outer(q, missing * q)
            proved = _proved_level(shifted, lam, level, floor)
            if proved is None:
                return None
            second = min(second, proved)
            top = min(top, proved + max(c, 0.0))
    except np.linalg.LinAlgError:
        return None
    return deltas, (top, second)


def _proved_level(shifted, lam: float, level: float, floor: float) -> float | None:
    """The certificate of ``_shift_solves``: ``shifted`` is lam I - A + c qq',
    and a Cholesky factorization proves s I - A + c qq' positive definite,
    first for s = ``level`` less ``_CERTIFICATE_MARGIN`` of (``level`` -
    ``floor``), then for s = ``level``.  Returns the s proved, or None when
    neither factorization succeeds."""
    diagonal = _diagonal(shifted)
    base = diagonal.copy()
    for proved in (level - _CERTIFICATE_MARGIN * (level - floor), level):
        np.subtract(base, lam - proved, out=diagonal)
        if _positive_definite(shifted):
            return proved
    return None


def _diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of the contiguous square ``a``, as
    every matrix this module builds is; ``a.flat[:: p + 1]`` indexes
    instead of slicing, at twice the cost."""
    return a.ravel(order="K")[:: a.shape[0] + 1]


def _rayleigh(average, x) -> tuple[float, np.ndarray, float]:
    """``(mu, q, |r|)``: the Rayleigh quotient mu of the unit q along x, and
    the norm of the residual r = Aq - mu q."""
    q = x / math.sqrt(x.dot(x))  # np.linalg.norm's arithmetic, without its wrapper
    aq = average @ q
    mu = float(q.dot(aq))
    aq -= mu * q
    return mu, q, math.sqrt(aq.dot(aq))


def _has_eigenvalue_below(average, level: float) -> bool:
    """Whether the average has an eigenvalue below ``level``: whether a
    Cholesky factorization of A - level I fails."""
    shifted = average.copy()
    _diagonal(shifted)[:] -= level
    return not _positive_definite(shifted)


def _positive_definite(m: np.ndarray) -> bool:
    """Whether a Cholesky factorization of the symmetric ``m`` succeeds."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True
