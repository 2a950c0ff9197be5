"""Span tracing of risfed from outside the program.

The tracer replaces selected risfed functions with timing wrappers for the
length of a traced phase and puts the originals back afterwards.  A function
is patched under every name that refers to it, because several modules import
functions by name (``labeling`` imports ``gen_channel_pair`` and
``array_response``, ``harness`` imports ``gen_dataset`` and ``split``) and
``harness`` resolves runners through ``fed.RUNNERS``.

Spans (name, start, end, parent, run id) are appended to flat arrays in
memory and written out once, by :meth:`Tracer.save`.  Run id 0 is the set-up;
run id i > 0 is the i-th timed operation.  A span's self time is its duration
minus the durations of its direct children; the program is single threaded,
so children nest inside their parent.
"""

from __future__ import annotations

import array
import contextlib
import functools
import json
from time import perf_counter

import numpy as np

import risfed
from risfed import channel, diagnostics, fed, harness, labeling, metrics, mlp

MODULES = ("channel", "labeling", "mlp", "fed", "metrics", "harness", "diagnostics")
BENCH_MODULE = "perfbench"


def _batch_rows(args, kwargs) -> float:
    return float(len(args[1].labels))  # mlp.grad(params, batch)


def _rounds(args, kwargs) -> float:
    return float(args[0].K)  # fed.run_<algorithm>(config, ...)


# (module, function name, extractor of the span's work units or None)
TARGETS = (
    (channel, "gen_channel_pair", None),
    (channel, "array_response", None),
    (labeling, "build_codebook", None),
    (labeling, "label", None),
    (labeling, "rate", None),
    (labeling, "gen_dataset", None),
    (labeling, "split", None),
    (mlp, "grad", _batch_rows),
    (mlp, "add_scaled", None),
    (mlp, "loss", None),
    (mlp, "predict", None),
    (mlp, "average", None),
    (mlp, "init", None),
    (mlp, "to_vector", None),
    (mlp, "from_vector", None),
    (fed, "sample_workers", None),
    (fed, "local_sgd", None),
    (fed, "ps_aggregate", None),
    (fed, "normalize", None),
    (fed, "run_fgdra", _rounds),
    (fed, "run_drfa", _rounds),
    (fed, "run_fedavg", _rounds),
    (metrics, "per_worker_accuracy", None),
    (harness, "build_profiles", None),
    (harness, "generate_data", None),
    (harness, "run_experiment", None),
    (diagnostics, "estimate_constants", None),
    (diagnostics, "full_batch_grad", None),
    (diagnostics, "weighted_grad_norm_sq", None),
    (diagnostics, "grad_norm_trace", None),
)


def _namespaces() -> list[dict]:
    """Every mapping through which risfed code or the benchmark looks up a
    traced function."""
    mods = [risfed, channel, labeling, mlp, fed, metrics, harness, diagnostics]
    return [vars(m) for m in mods] + [fed.RUNNERS]


def function_bindings() -> dict[tuple[int, str], object]:
    """Snapshot of every callable binding in the patched namespaces, keyed
    by (namespace index, name); used to prove a traced run left risfed as
    it found it."""
    return {(i, k): v for i, ns in enumerate(_namespaces()) for k, v in ns.items() if callable(v)}


def grad_flops_per_row() -> int:
    """Floating-point operations of one row of :func:`mlp.grad`: the forward
    GEMMs, the weight-gradient GEMMs and the back-propagated deltas (none
    into the input layer)."""
    pairs = list(zip(mlp.LAYER_SIZES[:-1], mlp.LAYER_SIZES[1:]))
    weights = sum(a * b for a, b in pairs)
    return 2 * weights + 2 * weights + 2 * sum(a * b for a, b in pairs[1:])


class Tracer:
    """Records spans around risfed calls while installed and active.

    Per span it stores the name id, the parent's span index and the start
    and end times; work units are kept only for spans whose target has an
    extractor, and run ids as the span index at which each run began.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.times = array.array("d")  # start, end of span i at 2i, 2i+1
        self.units: dict[int, float] = {}
        self.run_starts = array.array("i")
        self.run_ids = array.array("i")
        self.active = True
        self._stack = [-1]
        self._patched: list[tuple[dict, str, object]] = []

    def begin_run(self, run_id: int) -> None:
        """Spans recorded from now on belong to run ``run_id``."""
        self.run_starts.append(len(self.name_id))
        self.run_ids.append(run_id)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, units=None):
        nid = self._intern(name)
        name_append, parent_append = self.name_id.append, self.parent.append
        times, times_append, stack, span_units = self.times, self.times.append, self._stack, self.units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.name_id)
            name_append(nid)
            parent_append(stack[-1])
            times_append(0.0)
            times_append(0.0)
            if units is not None:
                span_units[idx] = units(args, kwargs)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                times[2 * idx] = t0
                times[2 * idx + 1] = t1

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = _namespaces()
        for module, fname, units in TARGETS:
            orig = getattr(module, fname)
            traced = self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{fname}", orig, units)
            for ns in namespaces:
                for key in [k for k, v in ns.items() if v is orig]:
                    ns[key] = traced
                    self._patched.append((ns, key, orig))

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._patched):
            ns[key] = orig
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def span_arrays(self) -> dict[str, np.ndarray]:
        n = len(self.name_id)
        times = np.frombuffer(self.times).reshape(n, 2) if n else np.zeros((0, 2))
        starts = np.frombuffer(self.run_starts, dtype=np.int32)
        pos = np.searchsorted(starts, np.arange(n), side="right") - 1
        run = np.where(pos >= 0, np.frombuffer(self.run_ids, dtype=np.int32)[np.maximum(pos, 0)], -1)
        units = np.zeros(n)
        units[list(self.units)] = list(self.units.values())
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": run.astype(np.int32),
            "start": times[:, 0].copy(),
            "end": times[:, 1].copy(),
            "units": units,
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.span_arrays())


class SpanTable:
    """Per-function and per-module aggregates of a tracer's spans.

    Per-call figures of a function come from the timed phase when the
    function ran there, otherwise from the set-up; ``calls`` is per timed
    operation, or per set-up.  Self shares are over the timed phase.
    ``run_scale`` maps run ids to the speed correction of their durations.
    """

    def __init__(self, tracer: Tracer, run_scale: dict[int, float] | None = None) -> None:
        self.names = list(tracer.names)
        spans = tracer.span_arrays()
        self.name_id, self.parent = spans["name_id"], spans["parent"]
        self.run, self.units = spans["run"], spans["units"]
        self.dur = spans["end"] - spans["start"]
        if run_scale:
            lut = np.ones(max(max(run_scale), int(self.run.max(initial=0))) + 2)
            lut[np.array(list(run_scale)) + 1] = list(run_scale.values())
            self.dur = self.dur * lut[self.run + 1]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child
        self.timed = self.run > 0
        self.n_ops = len(np.unique(self.run[self.timed]))
        roots = self.timed & (self.parent < 0)
        self.wall = float(self.dur[roots].sum())

    def _mask(self, name: str) -> tuple[np.ndarray, int]:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool), 1
        is_name = self.name_id == self.names.index(name)
        if np.any(is_name & self.timed):
            return is_name & self.timed, self.n_ops
        return is_name & ~self.timed, 1  # a traced run sets up once

    def calls(self, name: str) -> float:
        mask, per = self._mask(name)
        return float(mask.sum()) / per

    def per_call(self, name: str, scale: float, self_only: bool = False) -> float:
        mask, _ = self._mask(name)
        if not mask.any():
            return 0.0
        values = self.self_time if self_only else self.dur
        return float(values[mask].mean()) * scale

    def per_unit(self, names: list[str], scale: float, self_only: bool = False) -> float:
        """Summed (self) time over summed work units, across ``names``."""
        time_sum = units = 0.0
        for name in names:
            mask, _ = self._mask(name)
            time_sum += float((self.self_time if self_only else self.dur)[mask].sum())
            units += float(self.units[mask].sum())
        return time_sum / units * scale if units else 0.0

    def module_self_share(self, module: str) -> float:
        if self.wall <= 0.0:
            return 0.0
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == module]
        mask = self.timed & np.isin(self.name_id, ids)
        return float(self.self_time[mask].sum()) / self.wall


RUNNERS = ["fed.run_fgdra", "fed.run_drfa", "fed.run_fedavg"]


def _gflop_per_s(t: SpanTable) -> float:
    ns_per_row = t.per_unit(["mlp.grad"], 1e9)
    return grad_flops_per_row() / ns_per_row if ns_per_row else 0.0


def _rows_per_call(t: SpanTable) -> float:
    mask, _ = t._mask("mlp.grad")
    return float(t.units[mask].mean()) if mask.any() else 0.0


# Per-call statistics, by metric suffix: unit, scale from seconds (None for
# a call count), and whether only self time counts.
_STATS = {
    "calls": ("count", None, False),
    "s": ("s", 1.0, False),
    "self_s": ("s", 1.0, True),
    "ms_per_call": ("ms", 1e3, False),
    "us_per_call": ("us", 1e6, False),
    "self_us_per_call": ("us", 1e6, True),
}
_FUNCTION_METRICS = (
    "channel.gen_channel_pair.calls", "channel.gen_channel_pair.us_per_call",
    "channel.array_response.calls", "channel.array_response.us_per_call",
    "labeling.build_codebook.us_per_call", "labeling.label.us_per_call",
    "labeling.rate.calls", "labeling.rate.us_per_call",
    "labeling.gen_dataset.self_s", "labeling.split.s", "harness.build_profiles.s", "harness.generate_data.s",
    "mlp.grad.calls", "mlp.grad.us_per_call", "mlp.add_scaled.calls", "mlp.add_scaled.us_per_call",
    "fed.local_sgd.calls", "fed.local_sgd.self_us_per_call", "mlp.loss.calls", "mlp.loss.us_per_call",
    "mlp.predict.calls", "mlp.predict.us_per_call",
    "metrics.per_worker_accuracy.calls", "metrics.per_worker_accuracy.ms_per_call",
    "fed.sample_workers.us_per_call", "fed.ps_aggregate.us_per_call", "mlp.average.us_per_call",
    "fed.normalize.us_per_call", "harness.run_experiment.self_s",
    "diagnostics.estimate_constants.s", "diagnostics.full_batch_grad.calls",
    "diagnostics.full_batch_grad.ms_per_call", "diagnostics.weighted_grad_norm_sq.ms_per_call",
    "diagnostics.grad_norm_trace.s",
    "mlp.init.us_per_call", "mlp.to_vector.us_per_call", "mlp.from_vector.us_per_call",
)


def _function_metric(metric: str):
    function, stat = metric.rsplit(".", 1)
    unit, scale, self_only = _STATS[stat]
    if scale is None:
        return unit, "lower", lambda t: t.calls(function)
    return unit, "lower", lambda t: t.per_call(function, scale, self_only)


# Per-layer metrics of a traced run: name -> (unit, better, how to compute).
LAYER_METRICS = {
    **{m: _function_metric(m) for m in _FUNCTION_METRICS},
    "mlp.grad.rows_per_call": ("rows", "higher", _rows_per_call),
    "mlp.grad.gflop_per_s": ("GFLOP/s", "higher", _gflop_per_s),
    "fed.run.self_ms_per_round": ("ms", "lower", lambda t: t.per_unit(RUNNERS, 1e3, True)),
    **{f"{r}.ms_per_round": ("ms", "lower", functools.partial(lambda r, t: t.per_unit([r], 1e3), r))
       for r in RUNNERS},
    **{f"{m}.self_share": ("frac", "lower", functools.partial(lambda m, t: t.module_self_share(m), m))
       for m in (*MODULES, BENCH_MODULE)},
    "trace.spans_per_op": ("count", "lower", lambda t: float(np.sum(t.timed)) / max(t.n_ops, 1)),
}
OVERHEAD_METRIC = ("trace.overhead_frac", "frac", "lower")


def layer_metrics(tracer: Tracer, overhead_frac: float,
                  run_scale: dict[int, float] | None = None) -> dict[str, dict]:
    """Every per-layer metric, 0 where the workload does not exercise it."""
    table = SpanTable(tracer, run_scale)
    out = {name: {"value": float(fn(table)), "unit": unit} for name, (unit, _, fn) in LAYER_METRICS.items()}
    out[OVERHEAD_METRIC[0]] = {"value": float(overhead_frac), "unit": OVERHEAD_METRIC[1]}
    return out
