"""Command line interface, driven in-process through main(argv).

Exit codes, the JSON error lines on stderr, and the files each
subcommand writes are all part of the contract, so the tests assert
them together. One subprocess test covers the console script: it runs
the `streamsir` entry point that pyproject.toml declares in a fresh
interpreter that imports this checkout, and also the installed
executable when one is on PATH. Everything else stays in-process to
keep the suite fast.
"""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import numpy as np
import pytest

from streamsir import (
    OnlineSparseSIR,
    SIRConfig,
    SimModelSpec,
    fit_online,
    sample,
    subspace_distance,
    true_betas,
)
from streamsir import pipeline
from streamsir.cli import build_parser, main, resolve_methods
from streamsir.pipeline import DEFAULT_WARMUP
from streamsir.errors import ConfigurationError


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_dicts(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _stderr_json(capsys):
    """Parse the machine-readable error line every failure path emits."""
    err = capsys.readouterr().err
    return json.loads(err.strip().splitlines()[-1])


def _simulate(tmp_path, name="stream.csv", model=1, p=20, n=1000, seed=3):
    out = tmp_path / name
    code = main([
        "simulate", "--model", str(model), "--p", str(p), "--n", str(n),
        "--seed", str(seed), "--out", str(out),
    ])
    assert code == 0
    return out


# -- simulate -----------------------------------------------------------------


def test_simulate_header_and_rows(tmp_path, capsys):
    out = _simulate(tmp_path, model=1, p=6, n=40, seed=7)
    header, rows = _read_csv(out)
    assert header == ["y", "x1", "x2", "x3", "x4", "x5", "x6"]
    assert len(rows) == 40
    values = np.array([[float(c) for c in row] for row in rows])
    assert np.all(np.isfinite(values))
    assert "wrote 40 rows, 6 covariates" in capsys.readouterr().out


def test_simulate_seed_controls_output(tmp_path):
    a = _simulate(tmp_path, "a.csv", p=4, n=30, seed=1)
    b = _simulate(tmp_path, "b.csv", p=4, n=30, seed=1)
    c = _simulate(tmp_path, "c.csv", p=4, n=30, seed=2)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_rejects_a_nan_noise_sd(tmp_path, capsys):
    # a NaN noise level used to pass the sign check and write NaN responses
    out = tmp_path / "stream.csv"
    argv = ["simulate", "--model", "1", "--p", "4", "--n", "5", "--noise-sd", "nan",
            "--out", str(out)]
    assert main(argv) == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "noise_sd must be non-negative, got nan" in payload["message"]
    assert not out.exists()


# -- fit ----------------------------------------------------------------------


def test_fit_recovers_model_one_direction(tmp_path, capsys):
    stream = _simulate(tmp_path)
    out_dir = tmp_path / "fitted"
    code = main([
        "fit", "--input", str(stream), "--out", str(out_dir),
        "--checkpoint-every", "300", "--save-model",
    ])
    assert code == 0
    assert "streamed 900 observations after warmup 100" in capsys.readouterr().out

    header, rows = _read_csv(out_dir / "directions.csv")
    assert header == ["feature", "dir1"]
    assert [r[0] for r in rows] == [f"x{j + 1}" for j in range(20)]
    betas = np.array([[float(r[1])] for r in rows])
    truth = true_betas(SimModelSpec(1, 20))
    assert subspace_distance(truth, betas) < 0.05

    # checkpoints land on the warmup row, the cadence, and the final row
    checkpoints = _read_dicts(out_dir / "checkpoints.csv")
    assert [int(c["t"]) for c in checkpoints] == [100, 300, 600, 900, 1000]
    for c in checkpoints:
        assert 0 <= int(c["nonzeros"]) <= 20
        assert float(c["coef_norm"]) >= 0.0
        assert float(c["top_eigenvalue"]) > 0.0

    loaded = OnlineSparseSIR.load(out_dir / "model.npz")
    assert np.allclose(loaded.directions(), betas, atol=1e-8)
    # the rows are the model's diagnostics record, formatted
    info = loaded.diagnostics()
    assert checkpoints[-1] == {
        "t": str(info["t"]),
        "nonzeros": str(info["nonzeros"]),
        "coef_norm": f"{max(info['coef_norms']):.10g}",
        "top_eigenvalue": f"{info['eigenvalues'][0]:.10g}",
        "reinits": str(info["reinit_count"]),
        "degenerate_responses": str(info["degenerate_responses"]),
    }


def test_fit_counts_active_features_not_coefficients(tmp_path, capsys):
    # at d = 2 a feature used by both directions is one active feature, so
    # the count never exceeds p, and the message, every checkpoints.csv row
    # and the written directions agree on it
    stream = _simulate(tmp_path, model=3, p=30, n=600)
    out_dir = tmp_path / "fitted"
    assert main(["fit", "--input", str(stream), "--out", str(out_dir), "--d", "2",
                 "--checkpoint-every", "250"]) == 0
    active = int(re.search(r"; (\d+)/30 features active;", capsys.readouterr().out)[1])
    _, rows = _read_csv(out_dir / "directions.csv")
    betas = np.array([[float(v) for v in r[1:]] for r in rows])
    assert betas.shape == (30, 2)
    assert active == np.count_nonzero(np.any(betas != 0.0, axis=1)) <= 30
    checkpoints = _read_dicts(out_dir / "checkpoints.csv")
    assert all(0 <= int(c["nonzeros"]) <= 30 for c in checkpoints)
    assert int(checkpoints[-1]["nonzeros"]) == active


def test_fit_reads_named_target_column(tmp_path):
    path = tmp_path / "named.csv"
    rng = np.random.default_rng(0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "resp", "x2"])
        for _ in range(80):
            x = rng.standard_normal(2)
            writer.writerow([x[0], x[0] + 0.1 * rng.standard_normal(), x[1]])
    out_dir = tmp_path / "named-fit"
    code = main([
        "fit", "--input", str(path), "--target", "resp", "--out", str(out_dir),
        "--H", "5", "--warmup", "30",
    ])
    assert code == 0
    header, rows = _read_csv(out_dir / "directions.csv")
    assert [r[0] for r in rows] == ["x1", "x2"]


def test_fit_missing_input_is_io_error(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert _stderr_json(capsys)["error"] == "io-error"


_BAD_STREAMS = [
    ("", "empty file, expected a header row"),
    ("y,x1,x2\n", "0 data rows after the header"),
    ("a,b\n1.0,2.0\n", "no column named 'y'"),
    ("y,x1,x2\n1.0,2.0\n", ":2: expected 3 cells, found 2"),
    ("y,x1\n1.0,abc\n", ":2: non-numeric cell"),
    # blank lines are skipped but still counted toward the line number
    ("y,x1\n1.0,2.0\n\n1.0,bad\n", ":4: non-numeric cell"),
    ("y,x1\n1.0,2.0\n1.0, nan\n", ":3: non-finite cell 'nan' in column 'x1'"),
    ("y,x1\n-inf,2.0\n", ":2: non-finite cell '-inf' in column 'y'"),
]


@pytest.mark.parametrize("content,fragment", _BAD_STREAMS)
def test_fit_rejects_malformed_csv(tmp_path, capsys, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    code = main(["fit", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "DataError"
    assert fragment in payload["message"]
    if fragment.startswith(":"):
        assert str(path) + fragment.split(" ")[0].rstrip(":") in payload["message"]


def test_fit_names_the_line_of_a_non_finite_cell_past_the_warmup(tmp_path, capsys):
    # line 251 is streamed row 149 after a warmup of 100; the report names
    # the file and line, as for every other malformed cell
    header, rows = _read_csv(_simulate(tmp_path, p=5, n=400))
    rows[249][3] = "nan"
    stream = tmp_path / "holed.csv"
    with open(stream, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    code = main(["fit", "--input", str(stream), "--out", str(tmp_path / "o")])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "DataError"
    assert payload["message"] == f"{stream}:251: non-finite cell 'nan' in column 'x3'"
    assert not (tmp_path / "o").exists()


def test_fit_needs_rows_beyond_warmup(tmp_path, capsys):
    stream = _simulate(tmp_path, n=50, p=4)
    code = main(["fit", "--input", str(stream), "--out", str(tmp_path / "o")])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "DataError"
    assert "need more than 100 rows" in payload["message"]
    assert "found 50" in payload["message"]


def test_fit_that_diverges_writes_only_the_json_error_line(tmp_path, capsys):
    # covariates shifted by 1e4 make the default rate diverge; the
    # ConvergenceError line is the whole report, with no overflow warning
    # from the prediction that detected it
    header, rows = _read_csv(_simulate(tmp_path, p=10, n=400))
    shifted = tmp_path / "shifted.csv"
    with open(shifted, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([r[0]] + [repr(float(v) + 1e4) for v in r[1:]] for r in rows)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--input", str(shifted), "--out", str(tmp_path / "o")])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConvergenceError"


def test_fit_whose_last_row_overflows_the_coefficients_exits_1(tmp_path, capsys):
    # no later prediction catches coefficients that overflow on the last
    # row; fit reports them as a ConvergenceError and writes no directions
    header, rows = _read_csv(_simulate(tmp_path, p=10, n=400, seed=2))
    rows = [[r[0]] + [repr(float(v) + 1e4) for v in r[1:]] for r in rows]
    data = np.array(rows, dtype=float)
    y, X = data[:, 0], data[:, 1:]
    model = OnlineSparseSIR.warmup(X[:DEFAULT_WARMUP], y[:DEFAULT_WARMUP], SIRConfig())
    with np.errstate(over="ignore"):
        for last in range(DEFAULT_WARMUP, y.size):
            model.observe(X[last], y[last])
            if not np.isfinite(model.coef.betas).all():
                break
    assert not np.isfinite(model.coef.betas).all()
    truncated = tmp_path / "truncated.csv"
    with open(truncated, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows[: last + 1])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--input", str(truncated), "--out", str(tmp_path / "o")])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConvergenceError"
    assert f"t = {last + 1}" in payload["message"]
    assert not (tmp_path / "o" / "directions.csv").exists()


@pytest.mark.parametrize("every", ["0", "-5"])
def test_fit_rejects_checkpoint_every_below_one(tmp_path, capsys, every):
    # rejected before warmup, as --period 0 is: one JSON error line and no
    # output directory, not a ZeroDivisionError after the whole stream
    stream = _simulate(tmp_path, n=300, p=4)
    out_dir = tmp_path / "o"
    code = main(["fit", "--input", str(stream), "--out", str(out_dir),
                 "--checkpoint-every", every])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "--checkpoint-every must be at least 1" in payload["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, field", [("--gravity", "gravity"), ("--theta", "threshold")])
def test_fit_rejects_nan_truncation_bounds(tmp_path, capsys, flag, field):
    # a NaN bound used to pass the sign checks and switch truncation off
    stream = _simulate(tmp_path, n=300, p=4)
    out_dir = tmp_path / "o"
    assert main(["fit", "--input", str(stream), "--out", str(out_dir), flag, "nan"]) == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert f"{field} must be non-negative, got nan" in payload["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["fit", "benchmark", "sweep"])
@pytest.mark.parametrize("warmup", ["0", "-5"])
def test_warmup_below_one_is_rejected_before_any_work(tmp_path, capsys, command, warmup):
    # a negative warmup used to slice X[:-5] for the warmup and then stream
    # rows from index -5 on, so the last rows were seen twice
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--input", str(_simulate(tmp_path, n=300, p=4))],
        "benchmark": ["benchmark", "--p", "10", "--n", "300", "--reps", "1",
                      "--methods", "M3,M5"],
        "sweep": ["sweep", "--model", "1", "--p", "10", "--n", "300"],
    }[command]
    assert main(argv + ["--warmup", warmup, "--out", str(out)]) == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert f"--warmup must be at least 1, got {warmup}" in payload["message"]
    assert not out.exists()


# -- benchmark ----------------------------------------------------------------


def test_benchmark_learning_rate_policy():
    assert SIRConfig().resolve_rate(20) == 1e-3
    assert SIRConfig().resolve_rate(1000) == 0.3 / 1000


def test_resolve_methods_accepts_names_and_codes():
    specs = resolve_methods(["m3", "M7"])
    assert [s.name for s in specs] == ["sparse-ccipca", "batch-sir"]
    # duplicates collapse regardless of spelling
    assert len(resolve_methods(["sparse-ccipca", "M3"])) == 1
    with pytest.raises(ConfigurationError, match="M8/batch-lasso"):
        resolve_methods(["super-sir"])


def test_benchmark_writes_results_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code = main([
        "benchmark", "--model", "1", "--p", "20", "--n", "600", "--reps", "5",
        "--methods", "sparse-ccipca,batch-sir", "--seed", "11",
        "--out", str(out_dir),
    ])
    assert code == 0
    assert "10 replication rows" in capsys.readouterr().out

    rows = _read_dicts(out_dir / "results.csv")
    assert len(rows) == 10
    assert [(r["code"], int(r["rep"])) for r in rows] == (
        [("M3", i) for i in range(5)] + [("M7", i) for i in range(5)]
    )
    for r in rows:
        assert r["error"] == ""
        assert 0.0 <= float(r["distance"]) <= 1.0
        assert float(r["seconds"]) >= 0.0

    summaries = _read_dicts(out_dir / "summary.csv")
    assert [s["code"] for s in summaries] == ["M3", "M7"]
    ccipca, batch = summaries
    assert ccipca["ok"] == "5" and ccipca["failed"] == "0"
    assert float(ccipca["mean_distance"]) < 0.05
    assert ccipca["sd_distance"] != ""
    assert float(batch["mean_distance"]) < 0.1

    text = (out_dir / "summary.txt").read_text()
    assert "mean subspace distance" in text
    assert "mean seconds per replication" in text
    assert "sparse-ccipca" in text and "model 1" in text


def test_benchmark_single_rep_has_blank_sd(tmp_path):
    out_dir = tmp_path / "bench1"
    code = main([
        "benchmark", "--p", "10", "--n", "300", "--reps", "1",
        "--methods", "M3", "--out", str(out_dir),
    ])
    assert code == 0
    summary, = _read_dicts(out_dir / "summary.csv")
    assert summary["ok"] == "1"
    assert summary["sd_distance"] == ""


def test_benchmark_failed_cells_become_na_rows(tmp_path):
    # 25 slices need a 125-row warmup: the streaming methods, sparse and
    # dense, cannot run, the batch method can, and the command still
    # succeeds with NA rows
    out_dir = tmp_path / "bench-na"
    code = main([
        "benchmark", "--p", "10", "--n", "300", "--H", "25", "--reps", "2",
        "--methods", "sparse-ccipca,osir-perturbation,osir-sgd,batch-sir",
        "--out", str(out_dir),
    ])
    assert code == 0
    rows = _read_dicts(out_dir / "results.csv")
    streamed = [r for r in rows if r["code"] in ("M3", "M5", "M6")]
    assert len(streamed) == 6
    batch = [r for r in rows if r["code"] == "M7"]
    for r in streamed:
        assert r["distance"] == "NA"
        assert r["error"].startswith("ConfigurationError:")
        assert r["seconds"] != ""
    for r in batch:
        assert r["error"] == ""
        assert float(r["distance"]) <= 1.0

    summaries = {s["code"]: s for s in _read_dicts(out_dir / "summary.csv")}
    for code in ("M3", "M5", "M6"):
        assert summaries[code]["mean_distance"] == "NA"
        assert summaries[code]["failed"] == "2"
    assert summaries["M7"]["ok"] == "2"


@pytest.mark.parametrize("n", ["80", "100"])
def test_benchmark_refuses_a_warmup_that_leaves_nothing_to_stream(tmp_path, capsys, n):
    # every streaming cell would fail the same way, so the command refuses
    # before any work, naming both flags
    out_dir = tmp_path / "b"
    code = main(["benchmark", "--p", "10", "--n", n, "--reps", "1",
                 "--methods", "M3,M7", "--out", str(out_dir)])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert payload["message"] == (
        f"--warmup 100 leaves no observations to stream out of --n {n}")
    assert not out_dir.exists()


def test_benchmark_of_batch_methods_alone_ignores_the_warmup(tmp_path):
    # no batch method streams, so a warmup above --n leaves them nothing to refuse
    out_dir = tmp_path / "b"
    assert main(["benchmark", "--p", "10", "--n", "80", "--reps", "1",
                 "--methods", "M7,M8", "--out", str(out_dir)]) == 0
    rows = _read_dicts(out_dir / "results.csv")
    assert [r["code"] for r in rows] == ["M7", "M8"]
    assert all(r["error"] == "" for r in rows)


def test_benchmark_nan_gravity_fails_every_cell(tmp_path):
    out_dir = tmp_path / "bench-nan"
    assert main(["benchmark", "--p", "10", "--n", "300", "--reps", "1",
                 "--methods", "M3,M6,M7", "--gravity", "nan", "--out", str(out_dir)]) == 0
    rows = _read_dicts(out_dir / "results.csv")
    assert len(rows) == 3
    for r in rows:
        assert r["distance"] == "NA"
        assert r["error"] == "ConfigurationError: gravity must be non-negative, got nan"


def test_benchmark_has_no_tracker_flag(tmp_path, capsys):
    # each method names its own tracker, so a --tracker flag would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--p", "10", "--n", "300", "--reps", "1", "--methods", "M3",
              "--tracker", "sgd", "--out", str(tmp_path / "b")])
    assert exc.value.code == 2
    assert _stderr_json(capsys)["error"] == "argument-error"
    assert not (tmp_path / "b").exists()


def test_benchmark_unknown_method_errors(tmp_path, capsys):
    code = main(["benchmark", "--methods", "super-sir",
                 "--out", str(tmp_path / "b")])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "unknown method 'super-sir'" in payload["message"]
    assert "M1/sparse-perturbation" in payload["message"]


def test_benchmark_invalid_model_dimension_fails_fast(tmp_path, capsys):
    # model 2 places coefficients on indices up to 9, so p=8 is rejected
    # before any replication runs
    code = main(["benchmark", "--model", "2", "--p", "8", "--reps", "1",
                 "--methods", "M3", "--out", str(tmp_path / "b")])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "model 2" in payload["message"]


@pytest.mark.parametrize("flag, value", [("--p", "20,abc"), ("--model", "1,x")])
def test_benchmark_rejects_unparseable_lists(tmp_path, capsys, flag, value):
    # a JSON error line naming the flag, not a ValueError traceback
    out_dir = tmp_path / "b"
    code = main(["benchmark", "--n", "300", "--reps", "1", "--methods", "M3",
                 flag, value, "--out", str(out_dir)])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert payload["message"].startswith(f"{flag}:")
    assert not out_dir.exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_benchmark_rejects_jobs_below_one(tmp_path, capsys, jobs):
    # rejected before any cell runs, not silently run serially
    out_dir = tmp_path / "b"
    code = main(["benchmark", "--p", "10", "--n", "300", "--reps", "1",
                 "--methods", "M3", "--jobs", jobs, "--out", str(out_dir)])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "--jobs must be at least 1" in payload["message"]
    assert not (out_dir / "results.csv").exists()


def _rows_without_seconds(out_dir):
    rows = _read_dicts(out_dir / "results.csv")
    for r in rows:
        del r["seconds"]
    return rows


def test_benchmark_deterministic_and_parallel_consistent(tmp_path):
    argv = ["benchmark", "--p", "10", "--n", "300", "--reps", "2",
            "--methods", "sparse-ccipca", "--seed", "5"]
    for name, jobs in (("serial-a", 1), ("serial-b", 1), ("parallel", 2)):
        assert main(argv + ["--jobs", str(jobs),
                            "--out", str(tmp_path / name)]) == 0
    first = _rows_without_seconds(tmp_path / "serial-a")
    assert _rows_without_seconds(tmp_path / "serial-b") == first
    assert _rows_without_seconds(tmp_path / "parallel") == first


# -- sweep --------------------------------------------------------------------


def test_sweep_single_point(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--model", "1", "--p", "20", "--n", "800",
                 "--out", str(out)])
    assert code == 0
    assert "swept 1 settings" in capsys.readouterr().out
    row, = _read_dicts(out)
    assert row["best"] == "*"
    assert float(row["distance"]) < 0.05
    assert 0 <= int(row["nonzeros"]) <= 20


def test_sweep_gravity_grid_flags_best_setting(tmp_path):
    # exact-zero counts at stream end do not separate the settings (the
    # gradient step after the last truncation repopulates every
    # coordinate), but a clamp that outweighs the signal wrecks the
    # estimate, and the best flag must land on the gentle setting
    out = tmp_path / "grid.csv"
    code = main(["sweep", "--model", "1", "--p", "20", "--n", "600",
                 "--gravity-grid", "0.0003,0.03,1.0", "--out", str(out)])
    assert code == 0
    rows = _read_dicts(out)
    assert [r["gravity"] for r in rows] == ["0.0003", "0.03", "1"]
    distances = [float(r["distance"]) for r in rows]
    assert distances[1] > 10 * distances[0]
    assert distances[2] > 10 * distances[0]
    stars = [r for r in rows if r["best"] == "*"]
    assert len(stars) == 1
    assert stars[0]["gravity"] == "0.0003"
    assert float(stars[0]["distance"]) == min(distances)


def _sweep_fit_distance(model_id, p, n, seed, config, warmup=DEFAULT_WARMUP):
    """The distance string a sweep cell reports, computed from ``fit_online``
    on the stream the sweep draws."""
    spec = SimModelSpec(model_id, p)
    X, y = sample(spec, n, np.random.default_rng(seed))
    model = fit_online(X, y, config, warmup_size=warmup)
    return f"{subspace_distance(true_betas(spec), model.directions()):.10f}"


@pytest.mark.parametrize("p, gamma", [(20, "0.001"), (500, "0.0006")])
def test_sweep_default_rate_is_the_rate_rule(tmp_path, p, gamma):
    # the default grid is min(1e-3, 0.3/p), the rate fit applies: 1e-3
    # below p = 300, 0.3/p above
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "1", "--p", str(p), "--n", "300",
                 "--out", str(out)]) == 0
    row, = _read_dicts(out)
    assert row["gamma"] == gamma
    assert float(gamma) == SIRConfig().resolve_rate(p)
    assert row["distance"] == _sweep_fit_distance(1, p, 300, 0, SIRConfig())


def test_sweep_cell_equals_fit_online_under_the_same_config(tmp_path):
    # every shared flag reaches the cell's config: --H, --d, --period,
    # --tracker and --warmup, plus the cell's own grid values; on this
    # stream changing any one of them moves the distance
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "2", "--p", "12", "--n", "400", "--seed", "4",
                 "--H", "6", "--d", "1", "--period", "5", "--tracker", "sgd",
                 "--warmup", "63", "--gamma-grid", "0.0005,0.002",
                 "--gravity-grid", "0,0.00003", "--theta-grid", "0.000002",
                 "--out", str(out)]) == 0
    rows = _read_dicts(out)
    assert len(rows) == 4
    cell = rows[3]
    assert (cell["gamma"], cell["gravity"], cell["theta"]) == ("0.002", "3e-05", "2e-06")
    config = SIRConfig(n_slices=6, n_directions=1, tracker="sgd", learning_rate=0.002,
                       gravity=3e-5, threshold=2e-6, period=5)
    assert cell["distance"] == _sweep_fit_distance(2, 12, 400, 4, config, warmup=63)


def test_sweep_rejects_nonpositive_learning_rate(tmp_path, capsys):
    code = main(["sweep", "--model", "1", "--p", "10",
                 "--gamma-grid", "0.001,0", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "learning rates must be positive" in payload["message"]


@pytest.mark.parametrize("flag, value, field", [
    ("--gravity-grid", "0.0003,-1", "gravity"),
    ("--theta-grid", "-1", "threshold"),
    ("--gravity-grid", "nan", "gravity"),
    ("--theta-grid", "1,nan", "threshold"),
    ("--period", "0", "period"),
])
def test_sweep_builds_every_cell_config_before_sampling(tmp_path, capsys, monkeypatch,
                                                        flag, value, field):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sweep sampled data before checking its grid")

    monkeypatch.setattr("streamsir.cli.sample", no_sampling)
    code = main(["sweep", "--model", "1", "--p", "10", flag, value,
                 "--out", str(tmp_path / "s.csv")])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert field in payload["message"]
    assert not (tmp_path / "s.csv").exists()


def test_sweep_rejects_unparseable_grid(tmp_path, capsys):
    code = main(["sweep", "--model", "1", "--p", "10",
                 "--theta-grid", "1,abc", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    payload = _stderr_json(capsys)
    assert payload["error"] == "ConfigurationError"
    assert payload["message"].startswith("--theta-grid:")


# -- parser plumbing ----------------------------------------------------------


def test_shared_flags_take_one_set_of_defaults():
    parser = build_parser()
    common = {"H": SIRConfig.n_slices, "warmup": DEFAULT_WARMUP, "period": SIRConfig.period}
    argvs = {
        "fit": ["fit", "--input", "x.csv", "--out", "o"],
        "benchmark": ["benchmark", "--out", "o"],
        "sweep": ["sweep", "--model", "1", "--p", "5", "--out", "o"],
    }
    for command, argv in argvs.items():
        args = vars(parser.parse_args(argv))
        assert {k: args[k] for k in common} == common, command
    for command in ("fit", "benchmark"):
        args = parser.parse_args(argvs[command])
        assert (args.gamma, args.gravity, args.theta) == (
            SIRConfig.learning_rate, SIRConfig.gravity, SIRConfig.threshold)
    sweep = parser.parse_args(argvs["sweep"])
    assert sweep.gamma_grid is None
    assert float(sweep.gravity_grid) == SIRConfig.gravity
    assert float(sweep.theta_grid) == SIRConfig.threshold


def test_every_config_field_is_set_by_a_flag(tmp_path, monkeypatch):
    # a SIRConfig field that no fit, benchmark or sweep flag sets would be
    # an option that only code can reach; each command here passes every
    # flag it has a value other than SIRConfig's default, and every field
    # must move off its default in the config the command warms up with
    seen = []
    original = pipeline.warmup_stages

    def recording(X, y, config):
        seen.append(config)
        return original(X, y, config)

    monkeypatch.setattr(pipeline, "warmup_stages", recording)
    shared = ["--H", "4", "--d", "2", "--period", "3", "--warmup", "60"]
    truncation = ["--gamma", "0.002", "--gravity", "1e-5", "--theta", "5"]
    data = ["--model", "3", "--p", "8", "--n", "200"]
    stream = _simulate(tmp_path, model=3, p=8, n=200)
    assert main(["fit", "--input", str(stream), "--tracker", "sgd", *shared, *truncation,
                 "--out", str(tmp_path / "fit")]) == 0
    assert main(["benchmark", "--methods", "M2", "--reps", "1", *data, *shared, *truncation,
                 "--out", str(tmp_path / "bench")]) == 0
    assert _read_dicts(tmp_path / "bench" / "results.csv")[0]["error"] == ""
    assert main(["sweep", "--tracker", "sgd", *data, *shared, "--gamma-grid", "0.002",
                 "--gravity-grid", "1e-5", "--theta-grid", "5",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    expected = SIRConfig(n_slices=4, n_directions=2, tracker="sgd", learning_rate=0.002,
                         gravity=1e-5, threshold=5.0, period=3)
    assert seen == [expected] * 3
    default = SIRConfig()
    unset = [f.name for f in fields(SIRConfig)
             if getattr(expected, f.name) == getattr(default, f.name)]
    assert unset == []


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "1", "--p", "4", "--out", "x.csv", "--nope"])
    assert exc.value.code == 2
    assert _stderr_json(capsys)["error"] == "argument-error"

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert _stderr_json(capsys)["error"] == "argument-error"


def test_console_script_is_installed(tmp_path):
    # Run the entry point through the same wrapper an installer writes, so
    # the check needs no install; an installed executable is run as well.
    repo = Path(__file__).resolve().parent.parent
    toml = tomllib or pytest.importorskip("tomli")
    with open(repo / "pyproject.toml", "rb") as fh:
        entry = toml.load(fh)["project"]["scripts"]["streamsir"]
    module, attr = entry.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    runs = [([sys.executable, "-c", wrapper], {"cwd": tmp_path, "env": env})]
    installed = shutil.which("streamsir")
    if installed:
        # Unchanged cwd and environment: the check an installed copy passes.
        runs.append(([installed], {}))
    for i, (command, where) in enumerate(runs):
        out = tmp_path / f"smoke{i}.csv"
        proc = subprocess.run(
            command + ["simulate", "--model", "1", "--p", "3", "--n", "5",
                       "--out", str(out)],
            capture_output=True, text=True, **where,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
