"""streamsir benchmark: per-observation latency and throughput on four
closed-loop workloads, with correctness checks and a per-layer trace.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload narrow --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs span
wrappers on the package from this process and prints the per-layer metrics
and the tracing overhead.  ``--workload all`` runs every workload, each in a
fresh process.  Every run writes a result file (environment record, every
metric, check failures and the output fingerprint) under perfbench/results/.

Compare the output fingerprints of two result files (exit 1 on a mismatch):

    python3 perfbench/run.py --compare A.json B.json

Outputs match when no element differs by more than 1e-12.

The stream is generated from ``--seed``; BLAS is pinned to one thread before
numpy loads.  The exit code is nonzero when any correctness check fails.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # must precede the first numpy import

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("narrow", "wide", "monitored", "study")

END_TO_END = {
    "obs_per_s": "obs/s",
    "observe_us_p50": "us",
    "observe_us_p95": "us",
    "read_us_p50": "us",
    "checkpoint_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "distance": "1",
}

TRACKERS = ("ccipca", "perturbation", "sgd", "ipca")
METHOD_CODES = tuple(f"M{i}" for i in range(1, 9))
PER_LAYER = {
    "kernel.update_us": "us",
    "kernel.slice_cov_us": "us",
    "kernel.factor_bytes_per_obs": "bytes",
    "kernel.slice_of_calls_per_obs": "count",
    "kernel.dense_builds": "count",
    **{f"eigen.step_us.{t}": "us" for t in TRACKERS},
    "eigen.align_us": "us",
    "eigen.reinit_count": "count",
    "truncated.update_us": "us",
    "truncated.truncate_step_us": "us",
    "truncated.truncation_zeros": "count",
    "truncated.nonzeros": "count",
    "pipeline.observe_self_us": "us",
    "pipeline.directions_us": "us",
    "pipeline.save_ms": "ms",
    "pipeline.load_ms": "ms",
    "pipeline.state_bytes": "bytes",
    "pipeline.warmup_ms": "ms",
    "simulate.distance_us": "us",
    "simulate.sample_ms": "ms",
    "baselines.observe_us.perturbation": "us",
    "baselines.observe_us.sgd": "us",
    "baselines.directions_ms": "ms",
    "batch.batch_sir_ms": "ms",
    "batch.batch_lasso_ms": "ms",
    **{f"cli.benchmark_cell_s.{c}": "s" for c in METHOD_CODES},
    "cli.sweep_cell_s": "s",
    **{f"{layer}.share_pct": "%" for layer in LAYERS},
    "trace.overhead_pct": "%",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import streamsir; print(time.perf_counter() - t)"
)
IMPORT_SAMPLES = 5
# A change that claims not to alter answers must keep outputs within this.
COMPARE_TOL = 1e-12


# -- environment ----------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark also runs from exported trees that have no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count numpy's OpenBLAS reports, or None where it cannot be read."""
    import ctypes

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_pin": dict(BLAS_PIN),
        "blas_threads": blas_threads(),
    }


def import_package():
    """Import streamsir from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import streamsir
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import streamsir from {SRC}: {exc}") from None
    if not Path(streamsir.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: streamsir came from {streamsir.__file__}, not {SRC}")
    return streamsir


def time_imports(cal) -> list[float]:
    """Calibrated seconds to import streamsir (numpy and scipy included) in
    fresh interpreters, as a user pays it once per process."""
    out = []
    for _ in range(IMPORT_SAMPLES):
        before = cal()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip()) * cal.scale(before, cal()))
    return out


# -- measuring --------------------------------------------------------------------


def percentile_us(ns, q):
    return float(np.percentile(np.asarray(ns, dtype=float), q)) / 1e3


def end_to_end(samples, import_s, peak_rss_mb, distance_episodes) -> dict:
    """Calibrated timings (see ``Calibration``): each statistic is taken per
    episode, and the median over episodes is reported, so that an episode
    hit by a burst of preemptions does not move the result."""
    episodes = {}
    for slot in samples.slots:
        episodes.setdefault(slot.episode, []).append(slot)

    def per_episode(stat):
        return statistics.median(stat(slots) for slots in episodes.values())

    def pooled(slots, attr):
        return [t * slot.scale for slot in slots for t in getattr(slot, attr)]

    def busy_s(slots):
        return sum(slot.busy_ns * slot.scale for slot in slots) / 1e9

    return {
        "obs_per_s": per_episode(lambda e: len(pooled(e, "observe_ns")) / busy_s(e)),
        "observe_us_p50": per_episode(lambda e: percentile_us(pooled(e, "observe_ns"), 50)),
        "observe_us_p95": per_episode(lambda e: percentile_us(pooled(e, "observe_ns"), 95)),
        "read_us_p50": per_episode(lambda e: percentile_us(pooled(e, "read_ns"), 50)),
        "checkpoint_ms_p50": per_episode(lambda e: percentile_us(pooled(e, "checkpoint_ns"), 50)) / 1e3,
        "setup_s": statistics.median(import_s) + statistics.median(samples.warmup_ns) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "distance": float(np.mean(samples.distances[:distance_episodes])),
        # printed, not gated: p99 (above p95 the host's preemption bursts
        # dominate: its spread over ten runs reached 0.26 on wide), the
        # uncalibrated median, the calibration, and the study's wall time
        "observe_us_p99": per_episode(lambda e: percentile_us(pooled(e, "observe_ns"), 99)),
        "observe_us_p50_raw": per_episode(
            lambda e: percentile_us([t for slot in e for t in slot.observe_ns], 50)),
        "calibration_scale_p50": statistics.median(slot.scale for slot in samples.slots),
        "study_s": per_episode(busy_s),
    }


def per_layer(tr, p, n_slices, counts, blocking_ns, overhead_pct) -> dict:
    def us(*names):
        return tr.mean_ns(*names) / 1e3

    observes = tr.calls("pipeline.observe")

    def per_observe(name):
        return tr.calls(name, anchor="pipeline.observe") / observes if observes else 0.0

    out = {
        "kernel.update_us": us("kernel.update"),
        "kernel.slice_cov_us": us("kernel.slice_cov"),
        "kernel.factor_bytes_per_obs": per_observe("kernel.slice_cov") * p * n_slices * 8,
        "kernel.slice_of_calls_per_obs": per_observe("kernel.slice_of"),
        "kernel.dense_builds": counts["dense_builds"],
        **{f"eigen.step_us.{t}": us(f"eigen.{t}_step") for t in TRACKERS},
        "eigen.align_us": us("eigen.align_signs"),
        "eigen.reinit_count": counts["reinit_count"],
        "truncated.update_us": us("truncated.update", "truncated.update_truncating"),
        "truncated.truncate_step_us": us("truncated.update_truncating"),
        "truncated.truncation_zeros": counts["truncation_zeros"],
        "truncated.nonzeros": counts["nonzeros"],
        "pipeline.observe_self_us": tr.mean_ns("pipeline.observe", self_time=True) / 1e3,
        "pipeline.directions_us": us("pipeline.directions"),
        "pipeline.save_ms": us("pipeline.save") / 1e3,
        "pipeline.load_ms": us("pipeline.load") / 1e3,
        "pipeline.state_bytes": counts["state_bytes"],
        "pipeline.warmup_ms": us("pipeline.warmup") / 1e3,
        "simulate.distance_us": us("simulate.subspace_distance"),
        "simulate.sample_ms": us("simulate.sample") / 1e3,
        **{f"baselines.observe_us.{t}": us(f"baselines.observe.{t}") for t in ("perturbation", "sgd")},
        "baselines.directions_ms": us("baselines.directions") / 1e3,
        "batch.batch_sir_ms": us("batch.batch_sir") / 1e3,
        "batch.batch_lasso_ms": us("batch.batch_lasso_sir") / 1e3,
        **{f"cli.benchmark_cell_s.{c}": us(f"cli.benchmark_cell.{c}") / 1e6 for c in METHOD_CODES},
        "cli.sweep_cell_s": us("cli.sweep_cell") / 1e6,
        **{f"{layer}.share_pct": 100.0 * tr.busy_ns[layer] / blocking_ns for layer in LAYERS},
        "trace.overhead_pct": overhead_pct,
    }
    assert set(out) == set(PER_LAYER)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, scale: str, ckpt_dir: str) -> dict:
    import tracer as tracing
    import workloads as wl

    spec = (wl.TINY if scale == "tiny" else wl.WORKLOADS)[name]
    study = isinstance(spec, wl.Study)
    samples, tally = wl.Samples(wl.Calibration(spec.p, spec.cal_reps)), wl.Tally()
    probe = wl.StudyProbe() if study else None
    import_s = time_imports(wl.Calibration(100, 20))
    deadline = time.perf_counter() + seconds

    def episode(k, tr=tracing.NullTracer(), first=False):
        if study:
            return wl.study_job(spec, seed, k, ckpt_dir, samples, tally, probe, tr)
        model = wl.run_stream_episode(name, spec, seed, k, ckpt_dir, samples, tally,
                                      tr, check_two_pass=first)
        return model, wl.fingerprint_of(model)

    report = {"workload": name, "scale": scale, "seconds": seconds, "trace": int(trace)}
    tr = None
    try:
        if probe is not None:
            probe.install()
        model, fingerprint = episode(0, first=True)
        # Read after the same work on every run, before the harness has kept
        # timings of as many episodes as the machine's speed allowed.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["counts"] = wl.model_counts(model)
        report["fingerprint"] = fingerprint
        if not trace:
            k = 1
            while k < spec.distance_episodes or time.perf_counter() < deadline:
                episode(k)
                k += 1
            metrics = end_to_end(samples, import_s, peak_rss_mb, spec.distance_episodes)
            if not study:
                del metrics["study_s"]
        else:
            tr = tracing.Tracer()
            tracing.install(tr)
            rerun_from = len(samples.episode_ns)
            model, traced = episode(0, tr)
            same = all(wl.same_bits(fingerprint[key], traced.get(key)) for key in fingerprint)
            tally.check(same, "traced run changed the outputs of the untraced run")
            counts = {**wl.model_counts(model), "dense_builds": tr.calls("kernel.kernel_matrix"),
                      "state_bytes": samples.state_bytes}
            # calibrated busy time of the same episode, untraced and traced
            busy = [sum(s.busy_ns * s.scale for s in samples.slots if s.episode == e)
                    for e in (0, rerun_from)]
            overhead_pct = 100.0 * (busy[1] / busy[0] - 1.0)
            k = 1
            while time.perf_counter() < deadline:
                episode(k, tr)
                k += 1
            blocking_ns = sum(samples.episode_ns[rerun_from:])
            metrics = per_layer(tr, spec.p, wl.N_SLICES, counts, blocking_ns, overhead_pct)
            report["spans"] = tr.spans
    except Exception as exc:  # noqa: BLE001 - any failure is reported as a failed operation
        tally.check(False, f"{type(exc).__name__}: {exc}")
        metrics = {}
    finally:
        if tr is not None:
            tr.patches.undo()
        if probe is not None:
            probe.patches.undo()

    report["import_s"] = import_s
    report["attempted"] = max(tally.attempted, 1)
    report["failed"] = tally.failed
    report["error_rate"] = tally.failed / report["attempted"]
    report["failures"] = tally.failures
    report["samples"] = {
        "episodes": len(samples.episode_ns),
        "slots": len(samples.slots),
        **{kind: sum(len(getattr(slot, f"{kind}_ns")) for slot in samples.slots)
           for kind in ("observe", "read", "checkpoint")},
    }
    report["metrics"] = metrics
    return report


# -- output -----------------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def result_line(report: dict, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    metrics = report["metrics"]
    correct = report["failed"] == 0 and set(units) <= set(metrics)
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def print_table(report: dict, trace: bool) -> None:
    units = PER_LAYER if trace else {**END_TO_END, "observe_us_p99": "us", "observe_us_p50_raw": "us",
                                     "calibration_scale_p50": "1", "study_s": "s"}
    print(f"# {report['workload']} seed={report['environment']['seed']} "
          f"trace={int(trace)} samples={report['samples']}")
    for key, value in report["metrics"].items():
        print(f"{key:36s} {value:16.6g} {units.get(key, '')}")
    print(f"{'error_rate':36s} {report['error_rate']:16.6g} failed/attempted "
          f"({report['failed']}/{report['attempted']})")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")


def compare(path_a: str, path_b: str, tol: float = COMPARE_TOL) -> int:
    """Diff the output fingerprints of two result files."""
    prints = []
    for path in (path_a, path_b):
        with open(path) as fh:
            prints.append(json.load(fh).get("fingerprint", {}))
    a, b = prints
    worst = 0.0
    status = 0
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            print(f"{key}: only in {'A' if key in a else 'B'}")
            status = 1
            continue
        x, y = np.asarray(a[key], dtype=float), np.asarray(b[key], dtype=float)
        if x.shape != y.shape:
            print(f"{key}: shape {x.shape} vs {y.shape}")
            status = 1
            continue
        gap = float(np.max(np.abs(x - y))) if x.size else 0.0
        worst = max(worst, gap)
        if not gap <= tol:
            print(f"{key}: max abs difference {gap:.3e} exceeds {tol:g}")
            status = 1
    if not a:
        print("no fingerprint in A")
        status = 1
    print(f"{'MATCH' if status == 0 else 'MISMATCH'}: {len(a)} arrays, "
          f"max abs difference {worst:.3e}, tolerance {tol:g}")
    return status


def run_all(args) -> int:
    """Each workload in a fresh process; a combined table and JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        if args.out:
            cmd += ["--out", str(Path(args.out) / f"{name}.json")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            sys.stderr.write(proc.stderr)
            combined["correct"] = False
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: every code path at sizes that finish in seconds")
    parser.add_argument("--out", help="result file, or directory with --workload all "
                                      "(default: perfbench/results/)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="diff the output fingerprints of two result files")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)

    import_package()
    sys.path.insert(0, str(HERE))
    trace = bool(args.trace)
    out = Path(args.out) if args.out else (
        HERE / "results" / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".ckpt-", dir=out.parent) as ckpt_dir:
        report = run(args.workload, args.seed, args.seconds, trace, args.scale, ckpt_dir)
    report["environment"] = environment(args.seed)
    out.write_text(json.dumps(_jsonable(report)))
    line = result_line(report, trace)
    print_table(report, trace)
    print(f"# result file: {out}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
