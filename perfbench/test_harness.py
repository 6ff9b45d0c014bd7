"""Self-test of the benchmark harness: every workload at tiny size, the
correctness checks, the trace, the compare mode and BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import NullTracer  # noqa: E402
from streamsir import OnlineSparseSIR  # noqa: E402


def bench(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def tiny(tmp_path, workload, trace, seed=5):
    out = tmp_path / f"{workload}-{trace}.json"
    proc, result = bench(tmp_path, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace), "--scale", "tiny", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return result, out


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.NAMES)
def test_every_workload_runs_clean_at_tiny_size(tmp_path, workload):
    result, out = tiny(tmp_path, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads(out.read_text())
    env = report["environment"]
    assert env["seed"] == 5 and env["blas_pin"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"commit", "nproc", "python", "numpy", "blas"} <= set(env)
    assert "directions" in report["fingerprint"]


@pytest.mark.parametrize("workload", ["monitored", "study"])
def test_trace_reports_every_layer_and_keeps_the_outputs(tmp_path, workload):
    untraced, plain = tiny(tmp_path, workload, 0)
    traced, spans = tiny(tmp_path, workload, 1)
    assert traced["correct"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == run.PER_LAYER
    metrics = {k: m["value"] for k, m in traced["metrics"].items()}
    assert metrics["kernel.slice_of_calls_per_obs"] > 0
    assert metrics["pipeline.observe_self_us"] > 0
    assert 0 < sum(metrics[f"{layer}.share_pct"] for layer in run.LAYERS) <= 100
    if workload == "study":
        assert metrics["kernel.dense_builds"] > 0 and metrics["cli.sweep_cell_s"] > 0
    assert json.loads(spans.read_text())["spans"]
    # the traced run reproduces the untraced run's outputs bit for bit
    assert run.compare(str(plain), str(spans), 0.0) == 0


def test_compare_flags_differences_beyond_the_tolerance(tmp_path):
    _, out = tiny(tmp_path, "narrow", 0)
    report = json.loads(out.read_text())
    assert run.compare(str(out), str(out)) == 0
    for shift, expected in ((1e-14, 0), (1e-9, 1)):
        changed = json.loads(json.dumps(report))
        changed["fingerprint"]["directions"][0][0] += shift
        other = tmp_path / f"shifted-{shift}.json"
        other.write_text(json.dumps(changed))
        assert run.compare(str(out), str(other)) == expected
        proc, _ = bench(tmp_path, "--compare", str(out), str(other))
        assert proc.returncode == expected


def samples_for(spec):
    return wl.Samples(wl.Calibration(spec.p, spec.cal_reps))


def small_model(tmp_path):
    spec = wl.TINY["narrow"]
    data = wl.stream_data("narrow", spec, 0, 0)
    samples, tally = samples_for(spec), wl.Tally()
    model = wl.stream_episode(spec.config(), data(), spec, str(tmp_path), samples, tally)
    assert tally.failed == 0
    return model, data, samples


def test_checks_catch_a_wrong_kernel_and_a_lossy_checkpoint(tmp_path, monkeypatch):
    model, data, samples = small_model(tmp_path)
    assert wl.two_pass_gap(model, data) < wl.TWO_PASS_BOUND
    model.kernel.cross_sum[0, 0] += 1e-6
    assert wl.two_pass_gap(model, data) > wl.TWO_PASS_BOUND

    original = OnlineSparseSIR.load.__func__

    def lossy(cls, path):
        loaded = original(cls, path)
        loaded.coef.betas[0, 0] = np.nextafter(loaded.coef.betas[0, 0], np.inf)
        return loaded

    monkeypatch.setattr(OnlineSparseSIR, "load", classmethod(lossy))
    tally = wl.Tally()
    wl._checkpoint(model, str(tmp_path), samples, samples.slot(), tally, NullTracer())
    assert tally.failed == 1


@pytest.mark.parametrize("drop", ["new_field", "unsaved_value"])
def test_checkpoint_check_sees_state_that_save_leaves_out(tmp_path, drop):
    model, _, samples = small_model(tmp_path)
    if drop == "new_field":
        model.eigen.cached = np.ones(3)
    else:
        model.kernel.dense_builds += 1
    tally = wl.Tally()
    wl._checkpoint(model, str(tmp_path), samples, samples.slot(), tally, NullTracer())
    assert tally.failed == 1 and "first difference: model." in tally.failures[0]


def test_state_diff_walks_containers_of_arrays():
    a = {"cache": [np.ones(2), (1, float("nan"))]}
    assert wl.state_diff(a, {"cache": [np.ones(2), (1, float("nan"))]}) is None
    assert wl.state_diff(a, {"cache": [np.ones(2), (2, float("nan"))]}) == "model.cache[1][0]"
    assert wl.state_diff(a, {"cache": [np.ones(2)]}) == "model.cache"


def test_counter_drift_fails_the_stream(tmp_path, monkeypatch):
    spec = wl.TINY["narrow"]
    tally = wl.Tally()
    original = OnlineSparseSIR.observe

    def drifting(self, x, y):
        original(self, x, y)
        if self.t == 200:
            self.coef.step += 1
        return self

    monkeypatch.setattr(OnlineSparseSIR, "observe", drifting)
    wl.stream_episode(spec.config(), wl.stream_data("narrow", spec, 0, 0)(), spec,
                      str(tmp_path), samples_for(spec), tally)
    assert tally.failed >= 1 and any("check_counters" in f for f in tally.failures)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
