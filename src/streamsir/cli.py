"""Command-line front end: simulate, fit, benchmark, sweep.

``streamsir simulate`` writes a synthetic regression stream to CSV,
``streamsir fit`` runs the streaming estimator over a CSV file,
``streamsir benchmark`` compares estimators over replicated simulations
and writes per-replication and aggregated reports, and ``streamsir
sweep`` grid-searches truncation hyperparameters on simulated data.

Benchmark method codes
----------------------
Each comparison method has a descriptive name and a short code; both
are accepted by ``--methods``:

========  ====================  ==============================================
code      name                  estimator
========  ====================  ==============================================
M1        sparse-perturbation   streaming sparse fit, perturbation tracker
M2        sparse-sgd            streaming sparse fit, stochastic-gradient tracker
M3        sparse-ccipca         streaming sparse fit, CCIPCA tracker
M4        sparse-ipca           streaming sparse fit, incremental-PCA tracker
M5        osir-perturbation     dense online SIR, perturbation tracker
M6        osir-sgd              dense online SIR, stochastic-gradient tracker
M7        batch-sir             classical batch SIR
M8        batch-lasso           batch lasso-penalized SIR
========  ====================  ==============================================
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import DenseOnlineSIR
from .batch import batch_lasso_sir, batch_sir
from .eigen import STRATEGIES
from .errors import ConfigurationError, DataError, StreamsirError
from .pipeline import (DEFAULT_WARMUP, OnlineSparseSIR, SIRConfig, _split_warmup, fit_online,
                       fit_stream)
from .simulate import SimModelSpec, sample, subspace_distance, true_betas
from .truncated import active_features


@dataclass(frozen=True)
class MethodSpec:
    """One comparison method: how to fit it and what to call it."""

    name: str
    code: str
    kind: str  # "sparse" | "dense" | "batch-sir" | "batch-lasso"
    tracker: str | None = None


METHODS = (
    MethodSpec("sparse-perturbation", "M1", "sparse", "perturbation"),
    MethodSpec("sparse-sgd", "M2", "sparse", "sgd"),
    MethodSpec("sparse-ccipca", "M3", "sparse", "ccipca"),
    MethodSpec("sparse-ipca", "M4", "sparse", "ipca"),
    MethodSpec("osir-perturbation", "M5", "dense", "perturbation"),
    MethodSpec("osir-sgd", "M6", "dense", "sgd"),
    MethodSpec("batch-sir", "M7", "batch-sir"),
    MethodSpec("batch-lasso", "M8", "batch-lasso"),
)

_METHOD_LOOKUP = {m.name: m for m in METHODS} | {m.code.lower(): m for m in METHODS}


def resolve_methods(tokens):
    """Map user-supplied method names or codes to MethodSpec entries."""
    out = []
    for tok in tokens:
        key = tok.strip().lower()
        if key not in _METHOD_LOOKUP:
            valid = ", ".join(f"{m.code}/{m.name}" for m in METHODS)
            raise ConfigurationError(f"unknown method {tok!r}; valid methods: {valid}")
        spec = _METHOD_LOOKUP[key]
        if spec not in out:
            out.append(spec)
    return out


def _at_least_one(**counts):
    """Raise ``ConfigurationError`` for the first count flag below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ConfigurationError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


# ---------------------------------------------------------------------------
# benchmark


def _fit_one(method, X, y, config, warmup):
    """Fit one method on (X, y) under ``config``, for ``benchmark`` cells and
    ``sweep`` settings alike; the method, not ``config``, names the tracker.
    Returns (directions, nonzeros), nonzeros being ``active_features`` of
    the sparse coefficients and None for the other methods. The streaming
    methods warm up on the first ``warmup`` rows under ``fit_online``'s
    checks and stream the rest through ``fit_stream``."""
    H, d = config.n_slices, config.n_directions
    if method.kind == "sparse":
        model = fit_online(X, y, replace(config, tracker=method.tracker), warmup_size=warmup)
        return model.directions(), model.coef.nonzero_count()
    if method.kind == "dense":
        X0, y0, X1, y1 = _split_warmup(X, y, warmup)
        model = DenseOnlineSIR.warmup(X0, y0, n_slices=H, n_directions=d, tracker=method.tracker)
        return fit_stream(model, X1, y1).directions(), None
    if method.kind == "batch-sir":
        return batch_sir(X, y, H, d), None
    betas = batch_lasso_sir(X, y, H, d)
    return betas, active_features(betas)


def run_benchmark_cell(method, model_id, p, n, n_slices, n_directions, gamma, gravity,
                       theta, period, warmup, master_seed, rep):
    """Run one (method, model, p, replication) cell.

    Data generation is seeded from (master, model, p, rep) only, so all
    methods see identical replication streams and comparisons are
    paired. The fit is timed; generation is not.
    """
    spec = SimModelSpec(model_id, p)
    d = n_directions if n_directions is not None else spec.n_directions
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, model_id, p, rep]))
    X, y = sample(spec, n, rng)
    truth = true_betas(spec)
    row = {
        "model": model_id, "p": p, "n": n, "H": n_slices, "d": d,
        "method": method.name, "code": method.code, "rep": rep,
        "distance": "NA", "seconds": "", "nonzeros": "", "error": "",
    }
    start = time.perf_counter()
    try:
        config = SIRConfig(n_slices=n_slices, n_directions=d, learning_rate=gamma,
                           gravity=gravity, threshold=theta, period=period)
        betas, nonzeros = _fit_one(method, X, y, config, warmup)
    except Exception as exc:  # noqa: BLE001 - cell failures become NA rows
        row["seconds"] = f"{time.perf_counter() - start:.6f}"
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row["seconds"] = f"{time.perf_counter() - start:.6f}"
    row["distance"] = f"{subspace_distance(truth, betas):.10f}"
    if nonzeros is not None:
        row["nonzeros"] = str(nonzeros)
    return row


def _cell_task(args):
    return run_benchmark_cell(*args)


_RESULT_FIELDS = ("model", "p", "n", "H", "d", "method", "code", "rep",
                  "distance", "seconds", "nonzeros", "error")
_SUMMARY_FIELDS = ("model", "p", "n", "H", "d", "method", "code", "reps", "ok",
                   "failed", "mean_distance", "sd_distance", "mean_seconds")


def _summarize(rows):
    """Aggregate per-replication rows into one summary row per cell."""
    cells = {}
    for r in rows:
        cells.setdefault((r["model"], r["p"], r["method"]), []).append(r)
    out = []
    for reps in cells.values():
        first = reps[0]
        dists = [float(r["distance"]) for r in reps if r["distance"] != "NA"]
        secs = [float(r["seconds"]) for r in reps if r["seconds"]]
        summary = {k: first[k] for k in ("model", "p", "n", "H", "d", "method", "code")}
        summary["reps"] = len(reps)
        summary["ok"] = len(dists)
        summary["failed"] = len(reps) - len(dists)
        summary["mean_distance"] = f"{np.mean(dists):.6f}" if dists else "NA"
        # a lone replication has no spread to report
        summary["sd_distance"] = f"{np.std(dists, ddof=1):.6f}" if len(dists) > 1 else ""
        summary["mean_seconds"] = f"{np.mean(secs):.6f}" if secs else "NA"
        out.append(summary)
    out.sort(key=lambda s: (s["model"], s["p"], s["code"]))
    return out


def _write_csv(path, fields, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _format_table(summaries, value_key):
    """Aligned per-model blocks: one row per p, one column per method."""
    lines = []
    models = sorted({s["model"] for s in summaries})
    for model_id in models:
        block = [s for s in summaries if s["model"] == model_id]
        methods = sorted({s["method"] for s in block},
                         key=lambda name: _METHOD_LOOKUP[name].code)
        ps = sorted({s["p"] for s in block})
        first = block[0]
        lines.append(f"model {model_id}  (n={first['n']}, H={first['H']}, "
                     f"d={first['d']}, reps={first['reps']})")
        widths = [max(len(m), 10) for m in methods]
        header = "  p".ljust(8) + "  ".join(m.rjust(w) for m, w in zip(methods, widths))
        lines.append(header)
        by_cell = {(s["p"], s["method"]): s for s in block}
        for p in ps:
            vals = []
            for m, w in zip(methods, widths):
                cell = by_cell.get((p, m))
                vals.append((cell[value_key] if cell else "NA").rjust(w))
            lines.append(f"  {p}".ljust(8) + "  ".join(vals))
        lines.append("")
    return "\n".join(lines)


def cmd_benchmark(args):
    methods = resolve_methods(args.methods.split(","))
    models = _parse_grid(args.model, "--model", int)
    ps = _parse_grid(args.p, "--p", int)
    _at_least_one(reps=args.reps, jobs=args.jobs, warmup=args.warmup)
    if args.warmup >= args.n and any(m.kind in ("sparse", "dense") for m in methods):
        raise ConfigurationError(f"--warmup {args.warmup} leaves no observations to stream "
                                 f"out of --n {args.n}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [
        (method, model_id, p, args.n, args.H, args.d, args.gamma, args.gravity,
         args.theta, args.period, args.warmup, args.seed, rep)
        for model_id in models
        for p in ps
        for method in methods
        for rep in range(args.reps)
    ]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools need multiprocessing

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_cell_task, tasks, chunksize=1))
    else:
        rows = [_cell_task(t) for t in tasks]
    rows.sort(key=lambda r: (r["model"], r["p"], r["code"], r["rep"]))

    summaries = _summarize(rows)
    _write_csv(out_dir / "results.csv", _RESULT_FIELDS, rows)
    _write_csv(out_dir / "summary.csv", _SUMMARY_FIELDS, summaries)
    text = (_format_table(summaries, "mean_distance")
            + "\nmean seconds per replication\n\n"
            + _format_table(summaries, "mean_seconds"))
    (out_dir / "summary.txt").write_text("mean subspace distance\n\n" + text)
    print(f"wrote {out_dir / 'results.csv'}, summary.csv, summary.txt "
          f"({len(rows)} replication rows)")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    spec = SimModelSpec(args.model, args.p, rho=args.rho, noise_sd=args.noise_sd)
    rng = np.random.default_rng(args.seed)
    X, y = sample(spec, args.n, rng)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x{j + 1}" for j in range(args.p)])
        for i in range(args.n):
            writer.writerow([f"{y[i]:.17g}"] + [f"{v:.17g}" for v in X[i]])
    print(f"wrote {args.n} rows, {args.p} covariates to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _read_stream_csv(path, target):
    """Load a header-plus-rows CSV into (X, y, covariate names).

    Raises DataError naming the offending line for short rows and
    non-numeric cells; an empty or header-only file is also an error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [c.strip() for c in header]
        if not any(header):
            raise DataError(f"{path}: empty file, expected a header row")
        if target not in header:
            raise DataError(f"{path}: no column named {target!r} in header {header}")
        y_col = header.index(target)
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(header)} cells, found {len(cells)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
    if not rows:
        raise DataError(f"{path}: 0 data rows after the header")
    data = np.asarray(rows, dtype=np.float64)
    y = data[:, y_col]
    X = np.delete(data, y_col, axis=1)
    names = [c for i, c in enumerate(header) if i != y_col]
    return X, y, names


def cmd_fit(args):
    _at_least_one(checkpoint_every=args.checkpoint_every, warmup=args.warmup)
    X, y, names = _read_stream_csv(args.input, args.target)
    n, p = X.shape
    if n <= args.warmup:
        raise DataError(
            f"need more than {args.warmup} rows to warm up and stream, found {n}")
    cfg = _config(args, args.d, learning_rate=args.gamma, gravity=args.gravity,
                  threshold=args.theta)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = OnlineSparseSIR.warmup(X[: args.warmup], y[: args.warmup], cfg)
    checkpoints = []

    def record(info):
        checkpoints.append({
            "t": info["t"],
            "nonzeros": info["nonzeros"],
            "coef_norm": f"{max(info['coef_norms']):.10g}",
            "top_eigenvalue": f"{info['eigenvalues'][0]:.10g}",
            "reinits": info["reinit_count"],
            "degenerate_responses": info["degenerate_responses"],
        })

    # rows at the warmup, at every multiple of the cadence, and at the end
    record(model.diagnostics())
    fit_stream(model, X[args.warmup:], y[args.warmup:], progress=record,
               progress_every=args.checkpoint_every)
    if n % args.checkpoint_every:
        record(model.diagnostics())

    betas = model.directions()
    with open(out_dir / "directions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature"] + [f"dir{j + 1}" for j in range(betas.shape[1])])
        for name, coefs in zip(names, betas):
            writer.writerow([name] + [f"{v:.10g}" for v in coefs])
    _write_csv(out_dir / "checkpoints.csv",
               ("t", "nonzeros", "coef_norm", "top_eigenvalue", "reinits",
                "degenerate_responses"),
               checkpoints)
    if args.save_model:
        model.save(out_dir / "model.npz")
    nnz = model.coef.nonzero_count()
    print(f"streamed {n - args.warmup} observations after warmup {args.warmup}; "
          f"{nnz}/{p} features active; wrote {out_dir / 'directions.csv'}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _config(args, n_directions, **truncation):
    """The ``SIRConfig`` of ``fit`` and ``sweep``: --H, --tracker and --period
    from ``args``, plus ``n_directions`` and the given ``truncation`` fields."""
    return SIRConfig(n_slices=args.H, n_directions=n_directions, tracker=args.tracker,
                     period=args.period, **truncation)


def _parse_grid(text, flag, kind=float):
    """The comma list ``text`` of ``flag`` as ``kind`` values; a token that
    ``kind`` cannot read, or no token at all, raises ``ConfigurationError``
    naming the flag."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from None
    if not values:
        raise ConfigurationError(f"{flag}: grid is empty")
    return values


def cmd_sweep(args):
    _at_least_one(warmup=args.warmup)
    spec = SimModelSpec(args.model, args.p)
    base = _config(args, args.d if args.d is not None else spec.n_directions)
    if args.gamma_grid is None:  # the one rate rule, as ``fit`` applies it
        gammas = [base.resolve_rate(args.p)]
    else:
        gammas = _parse_grid(args.gamma_grid, "--gamma-grid")
    gravities = _parse_grid(args.gravity_grid, "--gravity-grid")
    thetas = _parse_grid(args.theta_grid, "--theta-grid")
    if any(g <= 0 for g in gammas):
        raise ConfigurationError("--gamma-grid: learning rates must be positive")
    # every cell's config, so an invalid grid value fails before any sampling
    cells = [replace(base, learning_rate=gamma, gravity=gravity, threshold=theta)
             for gamma in gammas for gravity in gravities for theta in thetas]

    rng = np.random.default_rng(args.seed)
    X, y = sample(spec, args.n, rng)
    truth = true_betas(spec)

    method = _METHOD_LOOKUP[f"sparse-{args.tracker}"]
    rows = []
    for cell in cells:
        start = time.perf_counter()
        betas, nonzeros = _fit_one(method, X, y, cell, args.warmup)
        rows.append({
            "gamma": f"{cell.learning_rate:g}", "gravity": f"{cell.gravity:g}",
            "theta": f"{cell.threshold:g}",
            "distance": f"{subspace_distance(truth, betas):.10f}",
            "nonzeros": nonzeros,
            "seconds": f"{time.perf_counter() - start:.6f}",
            "best": "",
        })
    best = min(rows, key=lambda r: float(r["distance"]))
    best["best"] = "*"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ("gamma", "gravity", "theta", "distance", "nonzeros",
                     "seconds", "best"), rows)
    print(f"swept {len(rows)} settings; best distance {best['distance']} at "
          f"gamma={best['gamma']} gravity={best['gravity']} theta={best['theta']}; "
          f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors also emit a machine-readable line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(json.dumps({"error": "argument-error", "message": message}),
              file=sys.stderr)
        raise SystemExit(2)


def build_parser():
    parser = _Parser(prog="streamsir",
                     description="Streaming sparse sufficient dimension reduction.")
    subs = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: each flag that fit, benchmark and sweep share is declared
    # once, with its default from SIRConfig or DEFAULT_WARMUP.
    stream = argparse.ArgumentParser(add_help=False)  # fit, benchmark, sweep
    stream.add_argument("--H", type=int, default=SIRConfig.n_slices, help="slice count")
    stream.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                        help="leading rows to warm up on")
    stream.add_argument("--period", type=int, default=SIRConfig.period,
                        help="steps between truncation passes")
    tracker = argparse.ArgumentParser(add_help=False)  # fit, sweep
    tracker.add_argument("--tracker", choices=STRATEGIES, default=SIRConfig.tracker)
    truncation = argparse.ArgumentParser(add_help=False)  # fit, benchmark
    truncation.add_argument("--gamma", type=float, default=SIRConfig.learning_rate,
                            help="coefficient learning rate (default: min(1e-3, 0.3/p))")
    truncation.add_argument("--gravity", type=float, default=SIRConfig.gravity,
                            help="truncation strength per step")
    truncation.add_argument("--theta", type=float, default=SIRConfig.threshold,
                            help="truncation magnitude ceiling")
    simulation = argparse.ArgumentParser(add_help=False)  # benchmark, sweep
    simulation.add_argument("--n", type=int, default=1000)
    simulation.add_argument("--d", type=int, default=None,
                            help="directions (default: the model's own count)")
    simulation.add_argument("--seed", type=int, default=0)

    sim = subs.add_parser("simulate", help="write a synthetic stream as CSV")
    sim.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--rho", type=float, default=SimModelSpec.rho)
    sim.add_argument("--noise-sd", type=float, default=SimModelSpec.noise_sd)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = subs.add_parser("fit", help="stream a CSV file through the estimator",
                          parents=[stream, tracker, truncation])
    fit.add_argument("--input", required=True)
    fit.add_argument("--target", default="y", help="response column name")
    fit.add_argument("--d", type=int, default=SIRConfig.n_directions,
                     help="directions to estimate")
    fit.add_argument("--checkpoint-every", type=int, default=200)
    fit.add_argument("--save-model", action="store_true")
    fit.add_argument("--out", required=True, help="output directory")
    fit.set_defaults(func=cmd_fit)

    bench = subs.add_parser("benchmark", help="replicate the simulation comparison",
                            parents=[stream, truncation, simulation])
    bench.add_argument("--model", default="1", help="model id or comma list, e.g. 1,2")
    bench.add_argument("--p", default="20", help="dimension or comma list, e.g. 20,100")
    bench.add_argument("--methods", default=",".join(m.name for m in METHODS),
                       help="comma list of method names or codes (M1..M8)")
    bench.add_argument("--reps", type=int, default=100)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", required=True, help="output directory")
    bench.set_defaults(func=cmd_benchmark)

    sweep = subs.add_parser("sweep", help="grid-search truncation hyperparameters",
                            parents=[stream, tracker, simulation])
    sweep.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    sweep.add_argument("--p", type=int, required=True)
    sweep.add_argument("--gamma-grid", default=None,
                       help="learning rates (default: min(1e-3, 0.3/p))")
    sweep.add_argument("--gravity-grid", default=str(SIRConfig.gravity))
    sweep.add_argument("--theta-grid", default=str(SIRConfig.threshold))
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StreamsirError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io-error", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
