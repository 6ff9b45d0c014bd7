"""Span tracer for the benchmark's traced runs.

The tracer patches timing wrappers onto the package's public methods and
module functions from outside; no package file is edited.  Each wrapped call
is a span with a name, start, end and parent.  Spans are aggregated as they
close, so memory stays flat over long streams, and only the first
``KEEP_SPANS`` spans are stored verbatim for the result file.

A span's self time is its duration minus the time its direct children
cover.  Statistics are keyed by (anchor, name), where the anchor is the
nearest enclosing span of the ``pipeline`` or ``baselines`` layer, so that
for example slice lookups made inside ``observe`` can be told apart from
those made during warmup.
"""

from __future__ import annotations

import contextlib
import time

ANCHOR_LAYERS = ("pipeline", "baselines")
KEEP_SPANS = 5000
LAYERS = ("kernel", "eigen", "truncated", "pipeline", "simulate", "baselines", "batch", "cli")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Patches:
    """Attribute replacements on classes and modules, undone in reverse."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    timed = False

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self.busy_ns = dict.fromkeys(LAYERS, 0)  # self time inside timed segments
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent
        self.timed = False  # set by the harness around the calls it times
        self._stack: list[list] = []  # [id, name, anchor, start_ns, child_ns]
        self._next_id = 0
        self.patches = Patches()

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        if layer_of(name) in ANCHOR_LAYERS:
            anchor = name
        else:
            anchor = parent[2] if parent else ""
        self._next_id += 1
        frame = [self._next_id, name, anchor, 0, 0]
        self._stack.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        span_id, name, anchor, start, child_ns = frame
        self._stack.pop()
        duration = end - start
        own = duration - child_ns
        entry = self.stats.setdefault((anchor, name), [0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        parent_id = 0
        if self._stack:
            self._stack[-1][4] += duration
            parent_id = self._stack[-1][0]
        if self.timed:
            layer = layer_of(name)
            if layer in self.busy_ns:
                self.busy_ns[layer] += own
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end, parent_id))

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the harness makes itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, fn, name):
        """Traced version of ``fn``; ``name`` is a string or a function of the
        call's positional arguments, evaluated when the span opens."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name if isinstance(name, str) else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def patch_method(self, cls, attr: str, name) -> None:
        """Wrap a method, classmethod or property getter defined on ``cls``.
        Attributes the class does not define are skipped."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, property):
            new = property(self.wrap(raw.fget, name), raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name))
        else:
            new = self.wrap(raw, name)
        self.patches.set(cls, attr, new)

    def patch_function(self, module, attr: str, name) -> None:
        """Wrap a function where ``module`` looks it up; skipped if absent."""
        fn = module.__dict__.get(attr)
        if fn is not None:
            self.patches.set(module, attr, self.wrap(fn, name))

    # -- queries ----------------------------------------------------------------

    def parent_name(self) -> str:
        """Name of the innermost open span, or "" outside any span."""
        return self._stack[-1][1] if self._stack else ""

    def calls(self, name: str, anchor: str | None = None) -> int:
        return sum(
            v[0] for (a, n), v in self.stats.items()
            if n == name and (anchor is None or a == anchor)
        )

    def mean_ns(self, *names: str, self_time: bool = False) -> float:
        """Mean duration (or self time) per call of the named spans over every
        anchor; 0 when none of them ran."""
        calls = total = 0
        for (_, n), v in self.stats.items():
            if n in names:
                calls += v[0]
                total += v[2] if self_time else v[1]
        return total / calls if calls else 0.0


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every package layer."""
    from streamsir import baselines, batch, cli, eigen, kernel, pipeline, simulate, truncated

    for attr in ("slice_of", "indicator", "from_warmup"):
        tracer.patch_method(kernel.SliceGrid, attr, f"kernel.{attr}")
    for attr in ("update", "replay", "slice_cov", "mean", "kernel_matrix",
                 "state_arrays", "from_state_arrays"):
        tracer.patch_method(kernel.KernelTracker, attr, f"kernel.{attr}")

    for attr in ("from_kernel", "ccipca_step", "perturbation_step", "sgd_step",
                 "ipca_step", "align_signs", "state_arrays", "from_state_arrays"):
        tracer.patch_method(eigen.EigenTracker, attr, f"eigen.{attr}")

    def coef_update_name(args):
        coef = args[0]
        gravity = getattr(coef, "gravity", 0.0)
        period = getattr(coef, "period", 0)
        step = getattr(coef, "step", -1) + 1
        truncating = gravity > 0 and period > 0 and step % period == 0
        return "truncated.update_truncating" if truncating else "truncated.update"

    tracer.patch_method(truncated.TruncatedGradient, "update", coef_update_name)
    for attr in ("nonzero_count", "state_arrays", "from_state_arrays"):
        tracer.patch_method(truncated.TruncatedGradient, attr, f"truncated.{attr}")
    tracer.patch_function(truncated, "truncate", "truncated.truncate")

    for attr in ("warmup", "observe", "directions", "artificial_response",
                 "check_counters", "save", "load"):
        tracer.patch_method(pipeline.OnlineSparseSIR, attr, f"pipeline.{attr}")
    tracer.patch_function(pipeline, "fit_stream", "pipeline.fit_stream")

    def dense_observe_name(args):
        strategy = getattr(getattr(getattr(args[0], "eigen", None), "config", None),
                           "strategy", "unknown")
        return f"baselines.observe.{strategy}"

    tracer.patch_method(baselines.DenseOnlineSIR, "warmup", "baselines.warmup")
    tracer.patch_method(baselines.DenseOnlineSIR, "observe", dense_observe_name)
    tracer.patch_method(baselines.DenseOnlineSIR, "directions", "baselines.directions")

    # Module functions are wrapped in every namespace that calls them.
    for module in (simulate, cli):
        tracer.patch_function(module, "sample", "simulate.sample")
        tracer.patch_function(module, "true_betas", "simulate.true_betas")
    for module in (simulate, pipeline, cli):
        tracer.patch_function(module, "subspace_distance", "simulate.subspace_distance")
    for module in (batch, cli):
        tracer.patch_function(module, "batch_sir", "batch.batch_sir")
        tracer.patch_function(module, "batch_lasso_sir", "batch.batch_lasso_sir")
    # ``cmd_sweep`` fits each grid cell through ``fit_online``; the comparison
    # cells call it too, so the harness's own span around the sweep decides.
    tracer.patch_function(
        cli, "fit_online",
        lambda args: "cli.sweep_cell" if tracer.parent_name() == "cli.sweep" else "cli.fit_online",
    )
