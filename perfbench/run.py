#!/usr/bin/env python3
"""Run one benchmark workload against the risfed sources of this checkout.

    python3 perfbench/run.py --workload train --seed 3 --seconds 10 --trace 0

Single process, closed loop: after set-up, the workload's operation runs
back to back until ``--seconds`` have passed, and every operation's output
goes through the correctness gate.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run (see tracing.py).  The line before
it is a JSON detail record: environment, digests, raw wall-clock figures and
workload figures.

Timed spans are corrected for the machine's current speed with a probe that
does not touch risfed (see Calibrator).  BLAS and OpenMP are pinned to one
thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import glob
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 2
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "risfed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no risfed sources under {src}")
    sys.path.insert(0, str(src))
    import risfed

    if Path(risfed.__file__).resolve().parent != src / "risfed":
        raise SystemExit(f"perfbench: imported risfed from {risfed.__file__}, not from {src}")


def _cpu_seconds() -> float:
    """CPU time of this process (high resolution) plus its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas_runtime() -> dict:
    """OpenBLAS core type and thread count, read from numpy's bundled library."""
    import ctypes

    info = {}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return info
    try:
        lib = ctypes.CDLL(libs[0])
    except OSError:
        return info
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
        try:
            corename = getattr(lib, f"{prefix}_get_corename{suffix}")
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
        except AttributeError:
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        info = {"blas_core": corename().decode(), "blas_threads": threads()}
        break
    return info


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **_blas_runtime(),
        **{var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Tally:
    """Operations attempted and failed; every failure counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, what: str, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages += [f"{what}: {m}" for m in fails]


def _check(tally: Tally, what: str, fn, *args) -> None:
    """Run one gate; a check that raises is a failure too."""
    try:
        fails = fn(*args)
    except Exception:
        fails = [traceback.format_exc()]
    tally.add(what, fails)


class Calibrator:
    """Machine-speed probe that does not touch risfed.

    Other tenants of a shared machine slow everything on it by up to half,
    in phases from under a second to tens of seconds.  Each timed span is
    bracketed by probes, and its time is scaled by the probe's reference
    time REF_S over the mean of the two.  Corrected times are therefore
    probe-relative: the time the span would take under a load at which the
    probe takes REF_S.  Each REF_S is the median probe time over 20 (steering)
    or 60 (numeric) seed-code runs on a shared 2-core Xeon, so corrected
    figures read as at that machine's typical load, not as on a quiet
    machine.  The raw times and each operation's probe time are kept in the
    detail record, and compare.py reports verdicts on both and the slope of
    operation time against probe time.  A probe must slow down as much as
    the workload does: the
    "numeric" probe (small and large GEMMs, a 16 MB streaming pass, small
    complex elementwise numpy, an interpreted loop) tracks the training and
    diagnostics workloads; the "steering" probe (100-element complex phase
    grids and inner products, the shape of channel synthesis) tracks synth.
    """

    REF_S = {"numeric": 0.098, "steering": 0.143}

    def __init__(self, kind: str = "numeric") -> None:
        self.ref_s = self.REF_S[kind]
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((50, 400))
        self._x_large = rng.standard_normal((2000, 400))
        self._w = rng.standard_normal((400, 64))
        self._stream = rng.standard_normal(2_000_000)
        self._z = rng.standard_normal(100)
        self._body = {"numeric": self._numeric, "steering": self._steering}[kind]
        self.probes: list[float] = []

    def _numeric(self) -> None:
        for _ in range(200):
            np.maximum(self._x @ self._w, 0.0)
        for _ in range(8):
            self._x_large @ self._w
        for _ in range(6):
            (self._stream * 1.0001).sum()
        for _ in range(1500):
            np.exp(1j * self._z).sum()
        acc = 0
        for i in range(100_000):
            acc += i * i

    def _steering(self) -> None:
        rows, cols = np.arange(10)[:, None], np.arange(10)[None, :]
        for k in range(7500):
            phase = 2.0 * (rows * math.sin(1e-3 * k) + cols * math.sin(0.2) * math.cos(1e-3 * k))
            v = np.exp(1j * phase).ravel()
            abs(np.vdot(v, v * self._z)) ** 2

    def probe(self) -> float:
        t0 = perf_counter()
        self._body()
        seconds = perf_counter() - t0
        self.probes.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        return self.ref_s / ((before + after) / 2.0)


class Op(NamedTuple):
    """One completed operation: work items, wall and CPU seconds, the speed
    scale from the probes around it, and its run id (number + 1)."""

    items: int
    wall: float
    cpu: float
    scale: float
    run: int


def timed_loop(wl, seconds: float, tally: Tally, first: int, cal: Calibrator, tracer=None):
    """Run operations back to back for ``seconds``, numbered from ``first``.

    Returns an :class:`Op` per completed operation and the next operation
    number.  Checks run after the closing probe, with
    tracing paused; an operation that raises counts as failed.
    """
    op = tracer.wrap("perfbench.op", wl.op) if tracer else wl.op
    paused = tracer.paused if tracer else contextlib.nullcontext
    samples = []
    i = first
    deadline = perf_counter() + seconds
    before = cal.probe()
    while True:
        if tracer:
            tracer.begin_run(i + 1)
        c0, t0 = _cpu_seconds(), perf_counter()
        try:
            items, output = op(i)
        except Exception:
            wl.end_op(None)
            tally.add(f"op {i}", [traceback.format_exc()])
        else:
            dt, dc = perf_counter() - t0, _cpu_seconds() - c0
            with paused():
                after = cal.probe()
                samples.append(Op(items, dt, dc, cal.scale(before, after), i + 1))
                wl.end_op(samples[-1].scale)
                before = after
                _check(tally, f"op {i}", wl.check, i, output)
        i += 1
        if perf_counter() >= deadline:
            return samples, i


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_plain(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, speed-corrected, plus the raw wall-clock figures."""
    cal = Calibrator(wl.probe)
    setups = []
    for r in range(SETUP_REPEATS):
        before = cal.probe()
        t0 = perf_counter()
        wl.setup()
        dt = perf_counter() - t0
        setups.append((dt, cal.scale(before, cal.probe())))
        _check(tally, f"setup {r}", wl.check_setup)
    samples, _ = timed_loop(wl, seconds, tally, 0, cal)
    values = {
        "setup_s": statistics.median(dt * k for dt, k in setups),
        "items_per_s": _median_or_zero(op.items / (op.wall * op.scale) for op in samples),
        "cpu_ms_per_item": _median_or_zero(op.cpu * op.scale / op.items * 1e3 for op in samples),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    raw = {
        "setup_s": statistics.median(dt for dt, _ in setups),
        "items_per_s": _median_or_zero(op.items / op.wall for op in samples),
        "cpu_ms_per_item": _median_or_zero(op.cpu / op.items * 1e3 for op in samples),
        "probe_s": statistics.median(cal.probes),
        "ops": len(samples),
        "op_s_per_item": [op.wall / op.items for op in samples],
        "op_probe_s": [cal.ref_s / op.scale for op in samples],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, raw


def run_traced(wl, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Traced set-up, then half the time untraced and half traced; the
    ratio of their speed-corrected seconds per item gives the tracing
    overhead.  Span times are speed-corrected per operation too."""
    import tracing

    cal = Calibrator(wl.probe)
    tracer = tracing.Tracer()
    before = cal.probe()
    with tracer.installed():
        tracer.begin_run(0)
        tracer.wrap("perfbench.setup", wl.setup)()
        with tracer.paused():
            scales = {0: cal.scale(before, cal.probe())}
            _check(tally, "setup", wl.check_setup)
    plain, n = timed_loop(wl, seconds / 2, tally, 0, cal)
    with tracer.installed():
        traced, _ = timed_loop(wl, seconds / 2, tally, n, cal, tracer)
    scales.update({op.run: op.scale for op in traced})
    s_per_item = lambda samples: _median_or_zero(op.wall * op.scale / op.items for op in samples)
    overhead = s_per_item(traced) / s_per_item(plain) - 1.0 if plain and traced else 0.0
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(str(spans_path))
    raw = {"probe_s": statistics.median(cal.probes), "ops": len(plain) + len(traced)}
    return tracing.layer_metrics(tracer, overhead, scales), raw


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="default", help="workload size: default or tiny (for tests)")
    p.add_argument("--record", help="append the detail and result as one JSON line to this file")
    p.add_argument("--scratch", default=str(ROOT / ".perfbench"),
                   help="directory for the runs' CSV output and the span files")
    return p.parse_args(argv)


def main(argv=None) -> dict:
    args = parse_args(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.size not in workloads.SIZES:
        raise SystemExit(f"perfbench: unknown size {args.size!r}")
    expected = None
    if args.seed == workloads.DEFAULT_SEED and args.size == "default":
        expected = json.loads((HERE / "expected_digests.json").read_text())
    scratch = Path(args.scratch)
    tag = f"{args.workload}-seed{args.seed}-{args.size}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], str(scratch / "out" / tag),
                                            expected)
    tally = Tally()
    if args.trace:
        metrics, raw = run_traced(wl, args.seconds, tally, scratch / f"spans-{tag}.npz")
    else:
        metrics, raw = run_plain(wl, args.seconds, tally)
    for message in tally.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "item": wl.item, "env": environment(), "digests": wl.digests,
              "raw": raw, "extra": wl.extra()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"detail": detail, "result": result}) + "\n")
    return result


if __name__ == "__main__":
    main()
