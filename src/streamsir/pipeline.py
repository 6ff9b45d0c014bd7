"""End-to-end streaming estimator.

One ``observe(x, y)`` call runs the full update chain:

1. x and y are checked once, by ``KernelTracker.check``, which also finds
   the slice index; then the coefficient stage's prediction b_j' x is
   formed as d floats, and a non-finite one (the coefficients diverged)
   raises ``ConvergenceError``.  Both happen before any stage changes, so a
   rejected observation leaves the model as it was.
2. the slice statistics absorb the observation,
3. the eigen-tracker takes one step on the updated slice statistics through
   ``EigenTracker.advance`` (signs stabilized against the previous step so
   downstream targets never flip),
4. a d-vector artificial response is formed from the observation's slice,
   in one loop over the directions that zeroes a coordinate whose
   eigenvalue is at the floor (a response that is not finite raises
   ``DataError``),
5. the truncated-gradient stage takes one unchecked step
   (``TruncatedGradient.advance``) toward regressing that response on x,
   reusing the prediction of step 1 unless it truncates first.

Only the p-sized and (H + 1)-sized work runs in numpy.  The d-sized
quantities between (prediction, projections, response, residual) are
Python floats, each operation the one numpy would do in the same order, so
the outputs are bitwise those of the array form.

The sparse coefficient matrix of step 5 is the direction estimate.  Nothing
in the chain stores a p x p matrix unless the perturbation tracker is
selected.  The default ccipca tracker sees the slice factor only through
the kernel's products with its p x (H + 1) block of slice sums and
covariate sum: each ccipca component costs two matrix-vector products with
the block, the response two dot products with its columns, and no p x H or
p-sized mean temporary is built per observation, so the default
configuration streams comfortably at p in the thousands.

Every p-sized array on the default path (the sum block, the eigenvectors
and the coefficients) is column-major with H + 1 or d columns, so each stage
works on contiguous length-p columns in place; ``load`` copies the stored
state into the arrays of a model built from the config, so it keeps the
layout a fresh model gives it, and ``cross_sum`` and ``x_sum`` stay views of
the block.  Memory order is an implementation detail, not part of the API.

``warmup_stages`` is the front end this model shares with the dense
baseline (``baselines.DenseOnlineSIR``): it checks the warmup batch,
applies the warmup-size rule and starts the slice statistics and the eigen
tracker, so the two estimators differ only in how they read out
directions, and ``unit_columns`` normalizes both read-outs.  The column
norms it divides by come from ``column_norms``, as do
``zero_direction_flags`` and the ``coef_norms`` of ``diagnostics``.

``fit_stream`` is the one loop that feeds rows to ``observe``; ``fit_online``
and the command line stream through it.  ``OnlineSparseSIR.diagnostics``
is the one record of the model's state, which ``fit_stream`` reports as
progress and the ``fit`` command writes to ``checkpoints.csv``.

``save`` writes a checkpoint that holds the config once and the state that
``CHECKPOINT_LAYOUT`` lists, packed into one float and one integer vector;
``load`` rebuilds the stages from the config and checks each vector's length
against them.  A file that does not decode raises ``DataError``, as every
other damaged checkpoint does.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .eigen import EigenTracker, TrackerConfig
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    all_finite,
    as_rows,
    check_positive_integer,
)
from .kernel import KernelTracker, SliceGrid
from .truncated import TruncatedGradient

# Leading rows ``fit_online`` and the command line warm up on by default.
DEFAULT_WARMUP = 100

# Layout version of ``OnlineSparseSIR.save``; ``load`` reads this one only.
CHECKPOINT_FORMAT = 8

# A tracked eigenvalue at or below this zeroes its coordinate of the
# synthetic response instead of dividing by it.
_EIGENVALUE_FLOOR = 1e-12

# What decoding a damaged checkpoint raises, from zipfile, numpy's .npy
# reader, json and the config's own checks; ``load`` turns it into DataError.
_UNDECODABLE = (
    zipfile.BadZipFile, EOFError, NotImplementedError, OSError, RuntimeError, TypeError,
    ValueError,
)

# The checkpoint layout: the state each stage keeps in a checkpoint, in the
# order it is stored.  A checkpoint has four members: "pipe_format",
# "pipe_config" (the only copy of the hyperparameters, so ``load`` rebuilds
# the stages from it), "pipe_floats" (every float attribute below, raveled in
# column-major order, as one float64 vector) and "pipe_ints" (the feature
# count p, then every integer attribute below, as one int64 vector).  Each
# npz member costs its own zip entry and .npy header, which is why the state
# is packed instead of stored one array per attribute.  An attribute that is
# None for the configured tracker is neither written nor read; "<stage>_<attr>"
# names an entry in error messages.  Every stored float is finite except the
# perturbation tracker's eigenvalue bounds (``_MAY_BE_UNBOUNDED``), which are
# +inf until the tracker first proves them.
CHECKPOINT_LAYOUT = {
    "kernel": ("t", "block"),
    "grid": ("cuts", "counts"),
    "eigen": (
        "values", "vectors", "step", "reinit_count", "averaged_kernel",
        "top_bound", "second_bound",
    ),
    "coef": ("betas", "step", "truncation_zeros"),
    "pipe": ("warmup_size", "degenerate_responses"),
}


_MAY_BE_UNBOUNDED = ("eigen_top_bound", "eigen_second_bound")


def _coefficient_stage(config: SIRConfig, p: int) -> TruncatedGradient:
    """The coefficient stage ``config`` implies for ``p`` features; building
    it runs the stage's own checks of gravity, threshold and period."""
    return TruncatedGradient(
        p,
        config.n_directions,
        rate=config.resolve_rate(p),
        gravity=config.gravity,
        threshold=config.threshold,
        period=config.period,
    )


@dataclass(frozen=True)
class SIRConfig:
    """Hyperparameters of the streaming estimator.

    ``learning_rate=None`` resolves to min(1e-3, 0.3 / p) at warmup: the
    coefficient recursion stays mean-square stable only for a rate well
    below 1 / trace of the covariate covariance (1/p for unit variances).
    Each field is set by the command-line flag of the same meaning: --H,
    --d, --tracker, --gamma, --gravity, --theta and --period, whose
    defaults are the fields' own.
    """

    n_slices: int = 10
    n_directions: int = 1
    tracker: str = TrackerConfig.strategy
    learning_rate: float | None = None
    gravity: float = 3e-4
    threshold: float = math.inf
    period: int = 10

    def __post_init__(self):
        for name in ("n_slices", "n_directions", "period"):
            check_positive_integer(name, getattr(self, name))
        for name in ("learning_rate", "gravity", "threshold"):
            value = getattr(self, name)
            # True would run as 1.0 while the config says True, and "0.1"
            # would fail its range check with a bare TypeError
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real or (value is None and name == "learning_rate")):
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
        self.tracker_config()  # validates the tracker name
        if self.learning_rate is not None and not 0.0 < self.learning_rate < 1.0:
            raise ConfigurationError("learning_rate must lie in (0, 1)")
        _coefficient_stage(self, 1)  # validates gravity, threshold and period

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(strategy=self.tracker)

    def resolve_rate(self, n_features: int) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return min(1e-3, 0.3 / n_features)


class OnlineSparseSIR:
    """Streaming sparse sufficient-dimension-reduction model."""

    def __init__(
        self,
        kernel: KernelTracker,
        eigen: EigenTracker,
        coef: TruncatedGradient,
        config: SIRConfig,
        warmup_size: int,
    ):
        self.kernel = kernel
        self.eigen = eigen
        self.coef = coef
        self.config = config
        self.warmup_size = int(warmup_size)
        self.degenerate_responses = 0  # response coords dropped at the floor

    # -- construction -----------------------------------------------------------

    @classmethod
    def warmup(cls, X, y, config: SIRConfig = SIRConfig()) -> "OnlineSparseSIR":
        """Initialize every stage from a warmup batch (see ``warmup_stages``)."""
        X, kernel, eigen = warmup_stages(X, y, config)
        n0, p = X.shape
        return cls(kernel, eigen, _coefficient_stage(config, p), config, n0)

    # -- streaming ---------------------------------------------------------------

    @property
    def t(self) -> int:
        return self.kernel.t

    @property
    def n_features(self) -> int:
        return self.kernel.n_features

    def observe(self, x, y) -> "OnlineSparseSIR":
        """Absorb one observation and advance every stage once.

        Invalid x or y raises ``DataError``, and coefficients whose
        prediction b' x is not finite raise ``ConvergenceError``; both leave
        the model unchanged.  The prediction that finds diverged
        coefficients may itself overflow, so numpy warns of the overflow
        before the error unless the caller ignores it, as ``fit_stream``
        does once for its whole loop: an ``np.errstate`` per row would cost
        about 1.1 us, 6% of a p = 100 observation (numpy 2.4, timeit).
        """
        kernel, coef = self.kernel, self.coef
        x, h = kernel.check(x, y)
        prediction = coef.betas.T.dot(x).tolist()
        if not all(map(math.isfinite, prediction)):
            raise ConvergenceError(
                f"coefficients diverged: their prediction for observation "
                f"t = {kernel.t + 1} is {prediction}"
            )
        kernel.absorb(x, h)
        self.eigen.advance(kernel, h)
        response, dead = self._response_from(h)
        self.degenerate_responses += dead
        if not all(map(math.isfinite, response)):
            raise DataError(f"synthetic response at t = {kernel.t} is not finite")
        coef.advance(x, response, prediction)
        return self

    def _response_from(self, h: int) -> tuple[list[float], int]:
        """Target for slice ``h``, as d floats, and the number of its
        coordinates zeroed at the eigenvalue floor: coordinate j is
        W[:, h]' v_j / (t H lam_j), or 0.0 where lam_j is at or below
        ``_EIGENVALUE_FLOOR``."""
        # The extra 1/t anneals the target: its direction is fixed by the
        # slice statistics while its scale decays, so the coefficient stage
        # settles instead of rattling around a constant-variance floor.
        kernel, floor = self.kernel, _EIGENVALUE_FLOOR
        scale = kernel.t * kernel.grid.n_slices
        response, dead = [], 0
        projections = kernel.column_dot(h, self.eigen.vectors)
        for proj, lam in zip(projections, self.eigen.values.tolist()):
            if lam <= floor:
                response.append(0.0)
                dead += 1
            else:
                response.append(proj / (scale * lam))
        return response, dead

    def artificial_response(self, y) -> np.ndarray:
        """The d-vector target the coefficient stage would regress on for a
        response ``y`` under the current state.  Pure read, no update."""
        return np.array(self._response_from(self.kernel.grid.slice_of(y))[0])

    # -- results ------------------------------------------------------------------

    @property
    def zero_direction_flags(self) -> np.ndarray:
        """Which directions are all-zero coefficient columns, the ones
        ``directions()`` returns as zeros."""
        return np.array([norm == 0.0 for norm in column_norms(self.coef.betas)])

    def directions(self) -> np.ndarray:
        """Current direction estimate, (p, d), with unit columns, as a new
        array; an all-zero column (possible under heavy truncation) is
        returned as zeros and flagged through ``zero_direction_flags``.  The
        raw coefficients are ``coef.betas``."""
        return unit_columns(self.coef.betas)

    def diagnostics(self) -> dict:
        """The model's state at a glance, as a new dict: the observation
        count ``t``, a copy of the tracked ``eigenvalues``, the ``nonzeros``
        count of features with any nonzero coefficient (``nonzero_count``),
        the ``coef_norms`` |b_j| of the coefficient columns
        (``column_norms``), the eigen tracker's ``reinit_count`` and the
        ``degenerate_responses`` zeroed at the eigenvalue floor."""
        return {
            "t": self.t,
            "eigenvalues": self.eigen.values.copy(),
            "nonzeros": self.coef.nonzero_count(),
            "coef_norms": np.array(column_norms(self.coef.betas)),
            "reinit_count": self.eigen.reinit_count,
            "degenerate_responses": self.degenerate_responses,
        }

    def check_counters(self) -> None:
        """Raise if the per-stage step counters drifted apart."""
        streamed = self.kernel.t - self.warmup_size
        if not (self.eigen.step == self.coef.step == streamed):
            raise AssertionError(
                f"stage counters disagree: kernel streamed {streamed}, "
                f"eigen {self.eigen.step}, coef {self.coef.step}"
            )

    # -- persistence ----------------------------------------------------------------

    def _checkpointed(self):
        """(name, owner, attribute, value) for every entry of
        ``CHECKPOINT_LAYOUT`` whose value is not None, in table order."""
        owners = {
            "kernel": self.kernel,
            "grid": self.kernel.grid,
            "eigen": self.eigen,
            "coef": self.coef,
            "pipe": self,
        }
        for stage, attrs in CHECKPOINT_LAYOUT.items():
            owner = owners[stage]
            for attr in attrs:
                value = getattr(owner, attr)
                if value is not None:
                    yield f"{stage}_{attr}", owner, attr, value

    def save(self, path) -> None:
        """Write a checkpoint to ``path`` (``.npz`` is appended when the name
        lacks it).  The file appears whole or not at all: it is written
        next to its final name and moved into place.  State that is not
        finite raises ``ConvergenceError`` and writes nothing."""
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
        entries = list(self._checkpointed())
        floats, ints = [], [np.ravel(self.n_features)]
        for _, _, _, value in entries:
            packed = floats if _member(value) == "pipe_floats" else ints
            packed.append(np.ravel(value, order="F"))
        floats = np.concatenate(floats, dtype=np.float64)
        if not all_finite(floats) and (bad := _first_non_finite(entries)):
            raise ConvergenceError(f"{path}: not written, {bad} is not finite")
        arrays = {
            "pipe_format": np.asarray(CHECKPOINT_FORMAT),
            "pipe_config": np.asarray(json.dumps(asdict(self.config))),
            "pipe_floats": floats,
            "pipe_ints": np.concatenate(ints, dtype=np.int64),
        }
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=os.path.dirname(path) or ".",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "OnlineSparseSIR":
        """Restore a model written by ``save``.

        The stages are rebuilt from the stored config and the feature count,
        then filled from the file.  A file of another checkpoint format, a
        missing member, stored config fields that differ from
        ``SIRConfig``'s, a float or integer vector whose dtype or length the
        config does not imply, a non-finite stored value (an unproved
        eigenvalue bound may be +inf), invalid grid cut points, a negative
        slice count, an observation count other than the sum of the slice
        counts, a perturbation eigenvalue bound below the eigenvalue it
        bounds or a file that does not decode at all (truncated, corrupted) raise
        ``DataError`` naming the file; members other than the four that
        ``save`` writes are ignored.  A missing or unreadable file raises
        ``OSError``.
        """
        with open(path, "rb") as handle:
            try:
                return cls._decoded(path, handle)
            except DataError:
                raise
            except _UNDECODABLE as exc:
                raise DataError(f"{path}: not a readable checkpoint "
                                f"({type(exc).__name__}: {exc})") from exc

    @classmethod
    def _decoded(cls, path, handle) -> "OnlineSparseSIR":
        with np.load(handle, allow_pickle=False) as npz:
            stored = npz.files
            version = int(npz["pipe_format"]) if "pipe_format" in stored else None
            if version != CHECKPOINT_FORMAT:
                raise DataError(
                    f"{path}: checkpoint format {version}, but only format "
                    f"{CHECKPOINT_FORMAT} can be loaded"
                )
            for key in ("pipe_config", "pipe_floats", "pipe_ints"):
                if key not in stored:
                    raise DataError(f"{path}: checkpoint lacks the key {key!r}")
            text, floats, ints = npz["pipe_config"], npz["pipe_floats"], npz["pipe_ints"]
        raw = json.loads(str(text))
        names = {f.name for f in fields(SIRConfig)}
        if set(raw) != names:
            raise DataError(f"{path}: stored config fields {sorted(set(raw) ^ names)} "
                            "are unknown or missing")
        raw["threshold"] = float(raw["threshold"])  # inf round-trips as Infinity
        config = SIRConfig(**raw)
        p = int(ints[0]) if ints.ndim == 1 and ints.size else 0
        if not 1 <= p <= floats.size:  # every layout stores at least p floats
            raise DataError(f"{path}: pipe_ints must start with the feature count, "
                            f"between 1 and the length of pipe_floats ({floats.size})")
        model = cls._empty(config, p)
        entries = list(model._checkpointed())
        _unpack(path, entries, {"pipe_floats": floats, "pipe_ints": ints})
        # the entries' scalars are the zeroed ones; read the loaded state again
        if not all_finite(floats) and (bad := _first_non_finite(model._checkpointed())):
            raise DataError(f"{path}: {bad} holds a non-finite value")
        try:
            SliceGrid(model.kernel.grid.cuts)  # the stored cut points must be valid
        except (ConfigurationError, DataError) as exc:
            raise DataError(f"{path}: grid_cuts are invalid: {exc}") from None
        counts = model.kernel.grid.counts
        if counts.min() < 0:
            raise DataError(f"{path}: grid_counts hold a negative count, {counts.tolist()}")
        counted = int(counts.sum())
        if model.kernel.t != counted:  # every observation lands in one slice
            raise DataError(f"{path}: kernel_t is {model.kernel.t}, but grid_counts "
                            f"sum to {counted}")
        if bad := _bound_below_its_eigenvalue(model.eigen):
            raise DataError(f"{path}: {bad}")
        return model

    @classmethod
    def _empty(cls, config: SIRConfig, p: int) -> "OnlineSparseSIR":
        """A model of the shapes ``config`` and ``p`` imply, with zero state;
        its grid's cut points are placeholders."""
        H, d = config.n_slices, config.n_directions
        eigen = EigenTracker(np.zeros(d), np.zeros((p, d)), config.tracker_config())
        kernel = KernelTracker(SliceGrid(np.arange(1.0, H)), p)
        return cls(kernel, eigen, _coefficient_stage(config, p), config, 0)


def warmup_stages(X, y, config: SIRConfig) -> tuple[np.ndarray, KernelTracker, EigenTracker]:
    """The front end every streaming estimator starts from: the warmup batch
    as a float (n, p) array, the slice statistics replayed over it and the
    eigen tracker started from them.

    The batch fixes the slice cut points for the rest of the stream and
    supplies the eigen tracker's starting basis, so it must hold at least
    max(5 * n_slices, n_directions) observations: five per slice on average.
    """
    X, y = as_rows(X, y, "warmup X")
    n0 = X.shape[0]
    need = max(5 * config.n_slices, config.n_directions)
    if n0 < need:
        raise ConfigurationError(f"warmup batch has {n0} observations, need at least {need}")
    kernel = KernelTracker(SliceGrid.from_warmup(y, config.n_slices), X.shape[1])
    kernel.replay(X, y)
    eigen = EigenTracker.from_kernel(kernel, config.n_directions, config.tracker_config())
    return X, kernel, eigen


def column_norms(B: np.ndarray) -> list[float]:
    """The Euclidean norm of each column of ``B``, as floats: the square root
    of its sum of squares, np.linalg.norm's own arithmetic for real input.
    A finite column whose sum of squares overflows to inf, or underflows to
    0 though an entry is nonzero, is divided by its largest magnitude m
    first, and its norm is m times the quotient's; so only an all-zero
    column has norm 0."""
    norms = [math.sqrt(s) for s in np.add.reduce(B * B, axis=0).tolist()]
    if math.inf in norms or 0.0 in norms:  # else every sum of squares holds
        for j, norm in enumerate(norms):
            if norm in (0.0, math.inf) and (scaled := _peak_scaled(B[:, j])):
                peak, column = scaled
                norms[j] = peak * math.sqrt(column.dot(column))
    return norms


def _peak_scaled(column: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(m, column / m) for the largest magnitude m of a finite ``column``
    with a nonzero entry; None for any other column."""
    peak = float(np.abs(column).max())
    return (peak, column / peak) if 0.0 < peak < math.inf else None


def unit_columns(B: np.ndarray) -> np.ndarray:
    """``B`` with unit columns, as a new array; an all-zero column stays
    zero.  Each column is divided once by its norm (``column_norms``); one
    whose norm lies beyond the float range is divided by its largest
    magnitude first."""
    norms = column_norms(B)
    out = B / np.array([norm if norm > 0.0 else 1.0 for norm in norms])  # x / 1 is x
    if math.inf in norms:
        for j, norm in enumerate(norms):
            if norm == math.inf and (scaled := _peak_scaled(B[:, j])):
                column = scaled[1]
                out[:, j] = column / math.sqrt(column.dot(column))
    return out


def _member(value) -> str:
    """The checkpoint member a layout entry's value is packed into."""
    return "pipe_floats" if np.asarray(value).dtype.kind == "f" else "pipe_ints"


def _first_non_finite(entries) -> str | None:
    """Name of the first float entry of ``entries`` (as ``_checkpointed``
    yields them) that holds a non-finite value other than the +inf of a
    bound in ``_MAY_BE_UNBOUNDED``; None when there is none."""
    for name, _, _, value in entries:
        if _member(value) != "pipe_floats" or (name in _MAY_BE_UNBOUNDED and value == math.inf):
            continue
        if not np.isfinite(value).all():
            return name
    return None


def _bound_below_its_eigenvalue(eigen) -> str | None:
    """What is wrong with a perturbation tracker's stored eigenvalue bounds,
    or None: a finite bound below the eigenvalue of ``averaged_kernel`` it
    bounds, by more than the slack p eps tr A that each step adds to it,
    would let the step skip a certificate it needs."""
    average = eigen.averaged_kernel
    bounds = {"eigen_top_bound": eigen.top_bound, "eigen_second_bound": eigen.second_bound}
    if average is None or not any(map(math.isfinite, bounds.values())):
        return None
    p = average.shape[0]
    spectrum = np.linalg.eigvalsh(average)[::-1]
    slack = p * np.finfo(float).eps * float(average.trace())
    for (name, bound), value in zip(bounds.items(), spectrum):
        if bound < value - slack:
            return f"{name} is {bound!r}, below the averaged_kernel eigenvalue {value!r} it bounds"
    return None


def _unpack(path, entries, vectors: dict) -> None:
    """Copy the packed ``vectors`` (member name to stored vector) into the
    values of ``entries``, the zeroed state of a model built from the config,
    in table order; ``pipe_ints`` starts after its leading feature count.
    Each array is filled in place, so a column-major array stays
    column-major, a view (such as ``KernelTracker.x_sum``) stays a view and
    no restored array is a view of the decoded vectors; a scalar is set as a
    Python number.  A vector of another dtype or length than the entries
    imply raises ``DataError`` before anything is copied."""
    offsets = {"pipe_floats": 0, "pipe_ints": 1}
    wanted = dict(offsets)
    for _, _, _, empty in entries:
        wanted[_member(empty)] += np.size(empty)
    for key, dtype in (("pipe_floats", np.float64), ("pipe_ints", np.int64)):
        vector = vectors[key]
        if vector.dtype != dtype or vector.shape != (wanted[key],):
            raise DataError(f"{path}: {key} holds {vector.dtype} of shape {vector.shape}, "
                            f"the config implies {np.dtype(dtype)} of length {wanted[key]}")
    for _, owner, attr, empty in entries:
        key = _member(empty)
        start = offsets[key]
        offsets[key] = stop = start + np.size(empty)
        stored = vectors[key][start:stop]
        if isinstance(empty, np.ndarray):
            np.copyto(empty, stored.reshape(empty.shape, order="F"))
        else:
            setattr(owner, attr, stored[0].item())


def fit_stream(
    model: OnlineSparseSIR,
    X,
    y,
    progress=None,
    progress_every: int = 100,
) -> OnlineSparseSIR:
    """Feed a stream row by row, optionally reporting periodic diagnostics;
    the package's one streaming loop, for any model with ``observe`` when
    ``progress`` is None.

    ``progress`` receives ``model.diagnostics()`` each time ``model.t`` reaches
    a multiple of ``progress_every``.  A caller that wants more, such as the
    subspace distance to known directions, computes it in ``progress`` from
    the model it holds.

    A batch that ``errors.as_rows`` refuses, a non-finite entry in any row
    included, raises ``DataError`` before the first row is streamed, so the
    model is left as it was.

    ``observe`` sees diverged coefficients only through the next row's
    prediction, so coefficients that overflow on the last row are checked
    here, once, for a model that has them: ``ConvergenceError``, not
    ``nan`` directions.  A diverging fit overflows that prediction, or the
    coefficients themselves, on its way to the error; the error is the
    report, so numpy's overflow warning is ignored for the whole loop.
    """
    X, y = as_rows(X, y, "stream X")
    check_positive_integer("progress_every", progress_every)
    with np.errstate(over="ignore"):
        for i in range(X.shape[0]):
            model.observe(X[i], y[i])
            if progress is not None and model.t % progress_every == 0:
                progress(model.diagnostics())
    coef = getattr(model, "coef", None)
    if coef is not None and not all_finite(coef.betas):
        raise ConvergenceError(
            f"coefficients diverged on the last observation, t = {model.t}")
    return model


def _split_warmup(X, y, warmup_size: int):
    """``(X_warmup, y_warmup, X_stream, y_stream)``: the first ``warmup_size``
    rows and the rest, of which there must be at least one."""
    if warmup_size < 1:
        raise ConfigurationError(f"warmup_size must be at least 1, got {warmup_size}")
    X, y = as_rows(X, y)
    if warmup_size >= X.shape[0]:
        raise ConfigurationError(
            f"warmup_size {warmup_size} leaves no observations to stream"
        )
    return X[:warmup_size], y[:warmup_size], X[warmup_size:], y[warmup_size:]


def fit_online(
    X, y, config: SIRConfig = SIRConfig(), warmup_size: int = DEFAULT_WARMUP
) -> OnlineSparseSIR:
    """Warm up on the first ``warmup_size`` rows and stream the rest through
    ``fit_stream``; a warmup below 1 row or one that leaves no row to
    stream raises ``ConfigurationError``."""
    X0, y0, X1, y1 = _split_warmup(X, y, warmup_size)
    return fit_stream(OnlineSparseSIR.warmup(X0, y0, config), X1, y1)
