"""Benchmark workloads: closed-loop callers of the streamsir estimator.

Every workload is a closed loop: one caller feeds the estimator inline and
each call waits for the previous one, which is how the library is used.  A
run repeats a fixed job (an *episode*) until its time budget is spent, so the
outputs of each episode depend only on the seed, never on machine speed.
Episode k draws its stream from ``streamsir.simulate.sample`` with a
generator seeded by (seed, workload, k).  Data is generated before the timed
calls, or in blocks between them, so generator time never counts as
estimator time.

* ``narrow``    model 1, p = 100, d = 1: Python per-call overhead dominates.
* ``wide``      model 3, p = 5000, d = 2: arithmetic and memory traffic
                dominate (p x H factor, deflation, coefficient step).
* ``monitored`` model 2, p = 500, d = 1: the caller reads ``directions()``
                and projects x before every ``observe``, and checkpoints
                (save, then load and continue from the loaded model) at a
                fixed interval, so reads share the state with writes.
* ``study``     the paper's comparison on one cell (all eight methods
                through ``cli.run_benchmark_cell``), a 9-cell (gamma, g)
                sweep through the ``sweep`` command, and a deployment of the
                best sweep cell streamed with reads and checkpoints.

narrow and wide also read and checkpoint, so every end-to-end metric exists
on every workload.  narrow reads before every observe: a read every 100
observations found the call cold, and its time moved by 30% between sets of
runs in ways the calibration did not correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from streamsir import SIRConfig, SimModelSpec, cli, simulate
from streamsir.baselines import DenseOnlineSIR
from streamsir.pipeline import OnlineSparseSIR
from tracer import NullTracer, Patches

clock = time.perf_counter_ns

WORKLOAD_IDS = {"narrow": 1, "wide": 2, "monitored": 3, "study": 4}
GRAVITY = 3e-4
PERIOD = 10
N_SLICES = 10
SWEEP_GAMMAS = "0.0005,0.001,0.002"
SWEEP_GRAVITIES = "0,0.0003,0.003"
# Relative Frobenius bound of the repository's criterion 1.
TWO_PASS_BOUND = 1e-10
# Fast-state time of one calibration step at each full-size p, measured on
# the 2-CPU x86-64 host the benchmark was defined on (5th percentile).
CAL_NOMINAL_NS = {100: 12_500, 500: 36_700, 5000: 303_000}


@dataclass(frozen=True)
class Stream:
    model: int
    p: int
    d: int
    n: int  # observations streamed per episode, after the warmup
    block: int  # rows generated at a time, between timed calls
    chunk: int  # observations per slot (see Samples)
    read_every: int  # read directions() and project x every this many observations
    checkpoint_every: int  # save, load and continue from the loaded model
    distance_episodes: int  # episodes averaged into the reported distance
    cal_reps: int  # calibration steps per measurement (see Calibration)
    warmup: int = 100

    def config(self) -> SIRConfig:
        return SIRConfig(
            n_slices=N_SLICES, n_directions=self.d, tracker="ccipca",
            learning_rate=min(1e-3, 0.3 / self.p), gravity=GRAVITY, period=PERIOD,
        )


@dataclass(frozen=True)
class Study:
    p: int
    n: int
    reps: int  # replications of the eight-method comparison per job
    distance_episodes: int  # jobs averaged into the reported distance
    cal_reps: int = 20
    # deployment stream of the best sweep cell
    chunk: int = 300
    read_every: int = 1
    checkpoint_every: int = 100
    warmup: int = 100


WORKLOADS = {
    "narrow": Stream(1, 100, 1, n=20000, block=20000, chunk=1000, read_every=1,
                     checkpoint_every=2000, distance_episodes=8, cal_reps=20),
    "wide": Stream(3, 5000, 2, n=2000, block=500, chunk=125, read_every=25,
                   checkpoint_every=250, distance_episodes=1, cal_reps=3),
    "monitored": Stream(2, 500, 1, n=3000, block=3000, chunk=250, read_every=1,
                        checkpoint_every=250, distance_episodes=16, cal_reps=10),
    "study": Study(p=100, n=1000, reps=1, distance_episodes=3),
}

# Same code paths at sizes that finish in seconds, for the harness self-test.
TINY = {
    "narrow": Stream(1, 20, 1, n=400, block=400, chunk=100, read_every=10,
                     checkpoint_every=100, distance_episodes=2, cal_reps=5, warmup=60),
    "wide": Stream(3, 60, 2, n=300, block=70, chunk=100, read_every=10,
                   checkpoint_every=100, distance_episodes=1, cal_reps=5, warmup=60),
    "monitored": Stream(2, 30, 1, n=300, block=300, chunk=100, read_every=1,
                        checkpoint_every=50, distance_episodes=2, cal_reps=5, warmup=60),
    "study": Study(p=20, n=300, reps=1, distance_episodes=1, chunk=100, checkpoint_every=50),
}


@dataclass
class Tally:
    """Operations attempted and failed; a failure is an exception, a
    non-finite output or a failed correctness check."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class Calibration:
    """A fixed numpy computation shaped like the estimator's factor update
    at a given p: it calls nothing from streamsir, so its time tracks the
    machine's speed alone.

    The shared 2-CPU host this benchmark was defined on changes speed in
    phases lasting seconds to minutes: a fixed numpy loop alternates between
    two speeds about 1.6x apart, on either CPU.  Every timed slot is
    bracketed by calibrations, and its times are scaled by nominal /
    calibration, which estimates the time on that host in its fast state.
    The correction is approximate.  In checks on that host, the ratio of
    estimator time to calibration time moved by 1% or less between the
    fastest and the slowest quarter of slots when their raw times differed
    1.6x (p = 100 and 500).  In periods of weaker contrast it moved by 4%
    (p = 5000) to 10% (p = 100).
    """

    def __init__(self, p: int, reps: int):
        rng = np.random.default_rng(0)
        self.factor = rng.standard_normal((p, N_SLICES))
        self.u = rng.standard_normal(p)
        self.v = rng.standard_normal(N_SLICES)
        self.reps = reps
        self.nominal_ns = CAL_NOMINAL_NS.get(p)

    def __call__(self) -> int:
        """Fastest of ``reps`` steps, in ns."""
        best = None
        for _ in range(self.reps):
            t0 = clock()
            c = (self.factor - np.outer(self.u, self.v)) / 3.0
            w = c @ (c.T @ self.u)
            c - np.outer(w, w @ c)
            dt = clock() - t0
            best = dt if best is None or dt < best else best
        if self.nominal_ns is None:  # sizes without a nominal: the first reading
            self.nominal_ns = best
        return best

    def scale(self, before: int, after: int) -> float:
        return self.nominal_ns / ((before + after) / 2.0)


@dataclass
class Slot:
    """One instance of a repeated part of a job: a run of ``chunk``
    consecutive observations of a stream, or one cell of the study."""

    episode: int = 0
    busy_ns: int = 0  # time spent in the timed calls
    scale: float = 1.0  # calibration factor of the slot's times
    warmup_ns: int = 0  # warmups inside a study cell
    observe_ns: list = field(default_factory=list)
    read_ns: list = field(default_factory=list)
    checkpoint_ns: list = field(default_factory=list)


@dataclass
class Samples:
    """Timings of a run, grouped into slots, with their calibration."""

    cal: Calibration
    slots: list = field(default_factory=list)
    warmup_ns: list = field(default_factory=list)  # calibrated, one entry per episode
    episode_ns: list = field(default_factory=list)  # warmup plus busy time, per episode
    distances: list = field(default_factory=list)  # one entry per episode
    state_bytes: int = 0

    def slot(self) -> Slot:
        self.slots.append(Slot(episode=len(self.episode_ns)))
        return self.slots[-1]


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_npz(path_a, path_b) -> bool:
    with np.load(path_a, allow_pickle=False) as fa, np.load(path_b, allow_pickle=False) as fb:
        return sorted(fa.files) == sorted(fb.files) and all(
            same_bits(fa[key], fb[key]) for key in fa.files
        )


def state_diff(a, b, path="model"):
    """Path of the first difference between two objects' state, or None.

    Walks ``vars()`` recursively and compares arrays bitwise and other
    values by equality (NaN equals NaN), so state that ``save`` leaves out
    shows as a difference between a live model and its loaded copy."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return None if same_bits(a, b) else path
    if hasattr(a, "__dict__") or hasattr(b, "__dict__"):
        if type(a) is not type(b):
            return path
        a, b = vars(a), vars(b)
    if isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)):
            return path
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = state_diff(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        if not (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))) or len(a) != len(b):
            return path
        for i, (x, y) in enumerate(zip(a, b)):
            found = state_diff(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    if a == b or (a != a and b != b):
        return None
    return path


def fingerprint_of(model) -> dict:
    """Final outputs that a change claiming no change of answers must keep."""
    out = {"directions": model.directions()}
    vectors = getattr(getattr(model, "eigen", None), "vectors", None)
    if vectors is not None:
        out["eigenvectors"] = np.asarray(vectors)
    return out


def model_counts(model) -> dict:
    """Stage counters of a finished model; -1 where the model has none."""
    eigen = getattr(model, "eigen", None)
    coef = getattr(model, "coef", None)
    nonzeros = coef.nonzero_count() if hasattr(coef, "nonzero_count") else -1
    return {
        "reinit_count": int(getattr(eigen, "reinit_count", -1)),
        "truncation_zeros": int(getattr(coef, "truncation_zeros", -1)),
        "nonzeros": int(nonzeros),
    }


# -- the closed loop ----------------------------------------------------------


def _checkpoint(model, ckpt_dir, samples, slot, tally, tracer):
    """Save, load and continue from the loaded model; the round trip must be
    bitwise exact, both in the live model's state and in a re-save of the
    loaded model.  Only save and load are timed."""
    live = os.path.join(ckpt_dir, "live.npz")
    again = os.path.join(ckpt_dir, "resaved.npz")
    tracer.timed = True
    t0 = clock()
    model.save(live)
    loaded = OnlineSparseSIR.load(live)
    dt = clock() - t0
    tracer.timed = False
    slot.checkpoint_ns.append(dt)
    slot.busy_ns += dt
    samples.state_bytes = os.path.getsize(live)
    loaded.save(again)
    lost = state_diff(model, loaded)
    tally.check(
        lost is None and _same_npz(live, again)
        and same_bits(model.directions(), loaded.directions()),
        f"checkpoint at t={model.t} did not round-trip bitwise"
        + (f" (first difference: {lost})" if lost else ""),
    )
    return loaded


def stream_episode(cfg, data, spec, ckpt_dir, samples, tally, tracer=NullTracer()):
    """Warm up on the first block of ``data``, then stream the rest.

    Reads happen before the observe of every ``read_every``-th observation
    and checkpoints after every ``checkpoint_every``-th.  Calibrations run
    between slots, outside the timed calls.  Returns the final model.
    """
    blocks = iter(data)
    Xw, yw = next(blocks)
    cal = samples.cal
    start = cal()
    tracer.timed = True
    t0 = clock()
    model = OnlineSparseSIR.warmup(Xw, yw, cfg)
    warm_ns = clock() - t0
    tracer.timed = False
    before = cal()
    samples.warmup_ns.append(warm_ns * cal.scale(start, before))

    read_every, checkpoint_every, chunk = spec.read_every, spec.checkpoint_every, spec.chunk
    slots = []
    count = 0
    for X, y in blocks:
        tracer.timed = True
        for i in range(y.size):
            if count % chunk == 0:
                if slots:
                    after = cal()
                    slots[-1].scale = cal.scale(before, after)
                    before = after
                slot = samples.slot()
                slots.append(slot)
            x = X[i]
            if count % read_every == 0:
                t0 = clock()
                B = model.directions()
                z = x @ B
                dt = clock() - t0
                slot.read_ns.append(dt)
                slot.busy_ns += dt
                tally.check(_finite(B) and _finite(z), f"non-finite read at t={model.t}")
            t0 = clock()
            model.observe(x, y[i])
            dt = clock() - t0
            slot.observe_ns.append(dt)
            slot.busy_ns += dt
            count += 1
            if count % checkpoint_every == 0:
                model = _checkpoint(model, ckpt_dir, samples, slot, tally, tracer)
                tracer.timed = True
        tracer.timed = False
    slots[-1].scale = cal.scale(before, cal())
    tally.attempted += count
    samples.episode_ns.append(warm_ns + sum(slot.busy_ns for slot in slots))

    try:
        model.check_counters()
        counters_ok = True
    except AssertionError:
        counters_ok = False
    tally.check(counters_ok, "check_counters failed after the stream")
    tally.check(_finite(model.directions()), "non-finite final directions")
    return model


def two_pass_gap(model, data) -> float:
    """Relative Frobenius gap between the streamed slice factor and a
    two-pass recomputation (mean first, then centred slice sums) of every row
    the model has seen, warmup included."""
    total = None
    rows = 0
    for X, _ in data():
        total = X.sum(axis=0) if total is None else total + X.sum(axis=0)
        rows += X.shape[0]
    mean = total / rows
    cuts = np.asarray(model.kernel.grid.cuts)
    factor = np.zeros((mean.size, cuts.size + 1))
    for X, y in data():
        h = np.searchsorted(cuts, y, side="left")  # right-closed slices
        for k in range(factor.shape[1]):
            factor[:, k] += (X[h == k] - mean).sum(axis=0)
    factor /= rows
    gap = np.linalg.norm(model.kernel.slice_cov - factor)
    return float(gap / max(np.linalg.norm(factor), 1e-300))


def stream_data(name, spec, seed, episode):
    """Function returning a fresh iterator over the warmup block and then
    the stream blocks of one episode; every call yields the same rows."""
    sim = SimModelSpec(spec.model, spec.p)
    entropy = [seed, WORKLOAD_IDS[name], episode]

    def blocks():
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        yield simulate.sample(sim, spec.warmup, rng)
        left = spec.n
        while left:
            size = min(spec.block, left)
            yield simulate.sample(sim, size, rng)
            left -= size

    return blocks


def run_stream_episode(name, spec, seed, episode, ckpt_dir, samples, tally,
                       tracer=NullTracer(), check_two_pass=False):
    data = stream_data(name, spec, seed, episode)
    model = stream_episode(spec.config(), data(), spec, ckpt_dir, samples, tally, tracer)
    truth = simulate.true_betas(SimModelSpec(spec.model, spec.p))
    samples.distances.append(simulate.subspace_distance(truth, model.directions()))
    if check_two_pass:
        gap = two_pass_gap(model, data)
        tally.check(gap < TWO_PASS_BOUND,
                    f"slice_cov differs from the two-pass recomputation by {gap:.2e}")
    return model


# -- the study ------------------------------------------------------------------


class StudyProbe:
    """Timers at the estimator boundary for the study, whose fits run inside
    the CLI: latency of every ``observe`` and warmup time, recorded into
    ``slot`` when one is set, and the direction estimates each CLI cell
    scores (kept for the output fingerprint)."""

    def __init__(self):
        self.slot: Slot | None = None
        self.scored: list[np.ndarray] = []
        self.patches = Patches()

    def install(self):
        for cls in (OnlineSparseSIR, DenseOnlineSIR):
            observe = cls.__dict__["observe"]
            warmup = cls.__dict__["warmup"].__func__

            def timed_observe(model, x, y, _observe=observe):
                t0 = clock()
                out = _observe(model, x, y)
                if self.slot is not None:
                    self.slot.observe_ns.append(clock() - t0)
                return out

            def timed_warmup(klass, *args, _warmup=warmup, **kwargs):
                t0 = clock()
                out = _warmup(klass, *args, **kwargs)
                if self.slot is not None:
                    self.slot.warmup_ns += clock() - t0
                return out

            self.patches.set(cls, "observe", timed_observe)
            self.patches.set(cls, "warmup", classmethod(timed_warmup))
        distance = cli.subspace_distance

        def scored_distance(truth, estimate):
            self.scored.append(np.array(estimate, dtype=float))
            return distance(truth, estimate)

        self.patches.set(cli, "subspace_distance", scored_distance)


@contextlib.contextmanager
def _cell(samples, probe, tracer, span):
    """Time one study cell as a slot, with the probe's observe timings."""
    slot = samples.slot()
    before = samples.cal()
    probe.slot = slot
    tracer.timed = True
    t0 = clock()
    try:
        with tracer.span(span):
            yield slot
    finally:
        slot.busy_ns = clock() - t0
        tracer.timed = False
        probe.slot = None
        slot.scale = samples.cal.scale(before, samples.cal())


def study_job(spec, seed, job, ckpt_dir, samples, tally, probe, tracer=NullTracer()):
    """One replication of the study.  Returns (deployed model, fingerprint)."""
    job_seed = seed * 1000 + job
    sim = SimModelSpec(1, spec.p)
    # The sweep command draws its stream from default_rng(--seed); the
    # deployment replays that stream, generated before the clock starts.
    X, y = simulate.sample(sim, spec.n, np.random.default_rng(job_seed))
    truth = simulate.true_betas(sim)
    scored_before = len(probe.scored)
    cell_slots = []
    distances = []
    for rep in range(spec.reps):
        for method in cli.METHODS:
            with _cell(samples, probe, tracer, f"cli.benchmark_cell.{method.code}") as slot:
                cell_slots.append(slot)
                row = cli.run_benchmark_cell(
                    method, 1, spec.p, spec.n, N_SLICES, None, None, GRAVITY,
                    math.inf, PERIOD, spec.warmup, job_seed, rep,
                )
            ok = not row["error"] and row["distance"] != "NA"
            if tally.check(ok, f"{method.code} rep {rep}: {row['error'] or 'no distance'}"):
                distances.append(float(row["distance"]))
    sweep_csv = os.path.join(ckpt_dir, "sweep.csv")
    argv = ["sweep", "--model", "1", "--p", str(spec.p), "--n", str(spec.n),
            "--seed", str(job_seed), "--warmup", str(spec.warmup),
            "--gamma-grid", SWEEP_GAMMAS, "--gravity-grid", SWEEP_GRAVITIES,
            "--out", sweep_csv]
    with _cell(samples, probe, tracer, "cli.sweep") as slot, \
            contextlib.redirect_stdout(io.StringIO()):
        cell_slots.append(slot)
        code = cli.main(argv)

    tally.check(code == 0, f"sweep exited with {code}")
    with open(sweep_csv, newline="") as fh:
        cells = list(csv.DictReader(fh))
    n_cells = len(SWEEP_GAMMAS.split(",")) * len(SWEEP_GRAVITIES.split(","))
    tally.check(len(cells) == n_cells and all(math.isfinite(float(c["distance"])) for c in cells),
                "sweep did not report a finite distance for every cell")
    best = min(cells, key=lambda c: float(c["distance"]))

    cfg = SIRConfig(n_slices=N_SLICES, n_directions=1, tracker="ccipca",
                    learning_rate=float(best["gamma"]), gravity=float(best["gravity"]),
                    period=PERIOD)
    rows = [(X[: spec.warmup], y[: spec.warmup]), (X[spec.warmup:], y[spec.warmup:])]
    model = stream_episode(cfg, rows, spec, ckpt_dir, samples, tally, tracer)
    gap = two_pass_gap(model, lambda: iter(rows))
    tally.check(gap < TWO_PASS_BOUND,
                f"slice_cov differs from the two-pass recomputation by {gap:.2e}")

    # stream_episode recorded the deployment alone; a study job is all of it.
    samples.episode_ns[-1] += sum(slot.busy_ns for slot in cell_slots)
    samples.warmup_ns[-1] += sum(slot.warmup_ns * slot.scale for slot in cell_slots)
    samples.distances.append(float(np.mean(distances)) if distances else 1.0)
    fingerprint = fingerprint_of(model)
    for i, scored in enumerate(probe.scored[scored_before:]):
        fingerprint[f"scored_{i:02d}"] = scored
    tally.check(all(_finite(v) for v in fingerprint.values()), "non-finite study output")
    return model, fingerprint
