"""Import graph: streamsir loads numpy alone.

No module of the package imports scipy, batch SIR included, and the CLI
loads its process pool only for ``benchmark --jobs`` above 1.  Each check
runs in a fresh interpreter that imports this checkout's ``src``, because
``sys.modules`` of the test process already holds everything the rest of
the suite imported.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# A finder ahead of every other one that refuses scipy and its submodules,
# as an interpreter without scipy installed would.
REFUSE_SCIPY = """
import sys
from importlib.abc import MetaPathFinder

class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def _run(script, tmp_path, prelude=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(script), str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_package_cli_and_batch_sir_never_load_scipy(tmp_path):
    _run("""
        import sys
        import numpy as np
        import streamsir, streamsir.cli
        assert "scipy" not in sys.modules, "importing streamsir loaded scipy"
        X = np.random.default_rng(0).standard_normal((200, 5))
        streamsir.batch_sir(X, X[:, 0], 5, 1)
        streamsir.batch_lasso_sir(X, X[:, 0], 5, 1)
        assert "scipy" not in sys.modules, "batch SIR loaded scipy"
    """, tmp_path)


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path):
    _run("""
        import sys
        import streamsir.cli
        loaded = {"multiprocessing", "concurrent.futures.process"} & set(sys.modules)
        assert not loaded, f"importing streamsir.cli loaded {sorted(loaded)}"
    """, tmp_path)


def test_every_estimator_and_command_runs_with_scipy_refused(tmp_path):
    _run("""
        import csv
        from pathlib import Path
        import numpy as np
        from streamsir import (
            STRATEGIES, DenseOnlineSIR, OnlineSparseSIR, SIRConfig, SimModelSpec,
            batch_sir, sample,
        )
        from streamsir.cli import main

        tmp = Path(sys.argv[1])
        X, y = sample(SimModelSpec(1, 10), 260, rng=1)
        for tracker in STRATEGIES:
            model = OnlineSparseSIR.warmup(X[:60], y[:60], SIRConfig(n_slices=5, tracker=tracker))
            for x_t, y_t in zip(X[60:], y[60:]):
                model.observe(x_t, y_t)
            model.save(tmp / f"{tracker}.npz")
            loaded = OnlineSparseSIR.load(tmp / f"{tracker}.npz")
            assert loaded.directions().tobytes() == model.directions().tobytes(), tracker
        for tracker in ("perturbation", "sgd"):
            dense = DenseOnlineSIR.warmup(X[:60], y[:60], n_slices=5, tracker=tracker)
            for x_t, y_t in zip(X[60:], y[60:]):
                dense.observe(x_t, y_t)
            assert np.isfinite(dense.directions()).all(), tracker

        stream = tmp / "stream.csv"
        assert main(["simulate", "--model", "1", "--p", "10", "--n", "400",
                     "--out", str(stream)]) == 0
        assert main(["fit", "--input", str(stream), "--out", str(tmp / "fit")]) == 0
        assert (tmp / "fit" / "directions.csv").exists()
        assert main(["sweep", "--model", "1", "--p", "10", "--n", "400",
                     "--out", str(tmp / "sweep.csv")]) == 0
        assert np.isfinite(batch_sir(X, y, 5, 1)).all()
        assert main(["benchmark", "--p", "10", "--n", "400", "--reps", "1",
                     "--methods", "M1,M2,M3,M4,M5,M6,M7,M8",
                     "--out", str(tmp / "bench")]) == 0
        with open(tmp / "bench" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(r["code"] for r in rows) == [f"M{i}" for i in range(1, 9)]
        assert not [r["error"] for r in rows if r["error"]]
        assert "scipy" not in sys.modules
    """, tmp_path, prelude=REFUSE_SCIPY)
