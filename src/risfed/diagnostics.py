"""The convergence check: the measured side of the rate guarantee.

Estimates the smoothness / gradient-bound / gradient-variance constants from
probe gradients, evaluates the closed-form rate bound they imply, and traces
the squared norm of the weighted full-batch gradient along a run's
round-boundary checkpoints so that the predicted O(1/sqrt(T)) decay can be
checked against measurements.  :func:`rate_matched_runs` is the one
rate-matched run behind ``risfed diagnose`` and :func:`theory_check` (C09,
``risfed theory``); :func:`running_mean` is the one running average,
:func:`fit_loglog_slope` the one slope fit, and each :func:`theory_check`
record carries the one "bound held" test.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, replace

import numpy as np

from . import fed, harness, mlp
from .labeling import Dataset

# Fewest probes estimate_constants accepts.
MIN_PROBES = 100
# Fewest round_checkpoints risfed diagnose accepts; it refuses a K that gives fewer.
MIN_CHECKPOINTS = 5
# Relative size of the displacement behind each L_hat probe of estimate_constants.
PAIR_SCALE = 1e-2


def _helper_count(cpus: int, environ: Mapping[str, str]) -> int:
    """Threads that may join the caller on independent full-batch work:
    ``cpus // blas - 1``, where ``blas`` is the BLAS thread count that
    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, sets at load (a value
    that is not a positive integer counts as unset), else ``cpus``.  So a
    multi-threaded BLAS keeps the work serial, and each thread with its
    single-threaded BLAS gets a core of its own."""
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(0, cpus // blas - 1)


# Helper threads of _ordered_map, from the CPUs this process may run on
# (all of them where the platform has no affinity mask).
HELPERS = _helper_count(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
                        os.environ)


def _ordered_map(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``, computed by the caller and :data:`HELPERS`
    helper threads.

    Each thread takes the next item under one lock, so a generator of items
    runs in its serial order, and the results come back in input order.
    The first exception on any thread, from ``items`` or ``fn``, stops the
    others at their next item and is re-raised here once all have ended.
    """
    numbered = enumerate(items)
    lock = threading.Lock()
    results: dict[int, object] = {}
    failures: list[BaseException] = []

    def work() -> None:
        try:
            while not failures:
                with lock:
                    item = next(numbered, None)
                if item is None:
                    return
                results[item[0]] = fn(item[1])
        except BaseException as exc:
            failures.append(exc)

    helpers = [threading.Thread(target=work, daemon=True) for _ in range(HELPERS)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if failures:
        raise failures[0]
    return [results[i] for i in range(len(results))]


@dataclass(frozen=True)
class TheoryEstimates:
    """Empirical constants: max stochastic gradient norm (sigma_hat), max
    stochastic-vs-full gradient deviation (nu_hat), max local gradient
    Lipschitz ratio (L_hat), and the initial weighted objective (F0)."""

    sigma_hat: float
    nu_hat: float
    L_hat: float
    F0: float

    def __post_init__(self) -> None:
        for name in ("sigma_hat", "nu_hat", "L_hat", "F0"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Iteration indices and the squared weighted gradient norm at each."""

    t: np.ndarray
    grad_norm_sq: np.ndarray

    def __post_init__(self) -> None:
        if self.t.shape != self.grad_norm_sq.shape:
            raise ValueError("t and grad_norm_sq must have matching shapes")
        if np.any(self.grad_norm_sq < 0.0):
            raise ValueError("grad_norm_sq entries must be nonnegative")


def full_batch_grad(theta: np.ndarray, ds: Dataset) -> np.ndarray:
    """Gradient of a worker's loss over its entire training split."""
    return mlp.grad(theta, mlp.MiniBatch(inputs=ds.features, labels=ds.labels))


def weighted_grad_norm_sq(theta: np.ndarray, lam: np.ndarray, train_sets: list[Dataset]) -> float:
    """|| sum_n lambda_n grad l_n(theta) ||^2, full batch per worker.

    The workers' gradients are computed by :func:`_ordered_map` (in parallel
    only when BLAS runs one thread per core) and summed in worker order, so
    the value does not depend on the thread count.
    """
    def scaled_grad(n: int) -> np.ndarray:
        g = full_batch_grad(theta, train_sets[n])
        g *= lam[n]
        return g

    acc = np.zeros(mlp.PARAM_COUNT)
    for g in _ordered_map(scaled_grad, [n for n in range(len(train_sets)) if lam[n] != 0.0]):
        acc += g
    return float(acc @ acc)


def grad_norm_trace(result: fed.RunResult, train_sets: list[Dataset], checkpoints: list[int]) -> ConvergenceTrace:
    """Evaluate the weighted gradient norm at the requested round boundaries.

    Round k maps to iteration t = k * tau, where the averaged iterate equals
    the broadcast model exactly.  Raises if a requested checkpoint was not
    retained by the run.
    """
    missing = [k for k in checkpoints if k not in result.theta_checkpoints]
    if missing:
        raise ValueError(f"rounds {missing} were not checkpointed by the run")
    ks = sorted(checkpoints)
    values = np.empty(len(ks))
    for i, k in enumerate(ks):
        values[i] = weighted_grad_norm_sq(result.theta_checkpoints[k], result.lambda_history[k], train_sets)
    return ConvergenceTrace(t=np.array([k * result.config.tau for k in ks]), grad_norm_sq=values)


def estimate_constants(train_sets: list[Dataset], n_probes: int, rng: np.random.Generator,
                       batch_size: int) -> TheoryEstimates:
    """Estimate the assumption constants as maxima over probe gradients.

    Each probe draws a fresh He-initialized parameter set (random theta at
    init scale), a worker, and a batch of ``batch_size`` indices without
    replacement, then records the stochastic gradient norm (for sigma_hat)
    and its deviation from the worker's full-batch gradient (for nu_hat).
    Every fifth probe also perturbs theta by a Gaussian displacement of
    relative size :data:`PAIR_SCALE` and records the full-batch gradient
    difference ratio (for L_hat).  Maxima over probe supersets are
    monotone, so enlarging n_probes never shrinks the estimates.

    F0's per-worker losses and the probes run through :func:`_ordered_map`:
    in parallel only when BLAS runs one thread per core, with ``rng`` drawn
    in probe order and the results reduced in that order, so the estimates
    and ``rng``'s end state do not depend on the thread count.
    """
    if n_probes < MIN_PROBES:
        raise ValueError(f"n_probes must be >= {MIN_PROBES}")
    N = len(train_sets)

    theta_f0 = mlp.init(rng)
    F0 = sum(_ordered_map(lambda ds: mlp.loss(theta_f0, mlp.MiniBatch(inputs=ds.features, labels=ds.labels)),
                          train_sets)) / N

    def draws() -> Iterator[tuple]:
        for i in range(n_probes):
            theta = mlp.init(rng)
            ds = train_sets[int(rng.integers(0, N))]
            idx = rng.choice(len(ds), size=min(batch_size, len(ds)), replace=False)
            delta = rng.standard_normal(theta.size) if i % 5 == 0 else None
            yield theta, ds, idx, delta

    def probe(draw: tuple) -> tuple[float, float, float]:
        theta, ds, idx, delta = draw
        g_stoch = mlp.grad(theta, mlp.MiniBatch(inputs=ds.features[idx], labels=ds.labels[idx]))
        g_full = full_batch_grad(theta, ds)
        sigma = float(np.linalg.norm(g_stoch))
        g_stoch -= g_full
        nu = float(np.linalg.norm(g_stoch))
        if delta is None:
            return sigma, nu, 0.0
        delta *= PAIR_SCALE * np.linalg.norm(theta) / np.linalg.norm(delta)
        g_full2 = full_batch_grad(theta + delta, ds)
        g_full2 -= g_full
        return sigma, nu, float(np.linalg.norm(g_full2) / np.linalg.norm(delta))

    sigma_hat = 0.0
    nu_hat = 0.0
    L_hat = 0.0
    for sigma, nu, L in _ordered_map(probe, draws()):
        sigma_hat = max(sigma_hat, sigma)
        nu_hat = max(nu_hat, nu)
        L_hat = max(L_hat, L)
    return TheoryEstimates(sigma_hat=sigma_hat, nu_hat=nu_hat, L_hat=L_hat, F0=F0)


def theorem_bound(est: TheoryEstimates, m: int, T: int) -> float:
    """(2 F0 + (17/2 + 8/m) sigma^2 + 17 nu^2) / sqrt(T)."""
    if m < 1 or T < 1:
        raise ValueError("m and T must be >= 1")
    return (2.0 * est.F0 + (17.0 / 2.0 + 8.0 / m) * est.sigma_hat ** 2 + 17.0 * est.nu_hat ** 2) / math.sqrt(T)


def running_mean(trace: ConvergenceTrace) -> np.ndarray:
    """Iteration-weighted running mean of the trace values.

    Checkpoints subsample the trajectory, so each value stands in for the
    iterations between its predecessor and itself (the t = 0 entry counts
    once).  Weighting by segment length makes the cumulative mean a
    quadrature estimate of the uniform-over-iterations average; an
    unweighted mean would grossly overweight the early transient whenever
    checkpoints are sparse.
    """
    t = trace.t.astype(float)
    weights = np.empty_like(t)
    weights[0] = 1.0 if t[0] == 0 else t[0]
    weights[1:] = np.diff(t)
    if np.any(weights <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    return np.cumsum(trace.grad_norm_sq * weights) / np.cumsum(weights)


def round_checkpoints(K: int, n: int = 24) -> list[int]:
    """Round indices {0} + a geometric ladder up to K, deduplicated.

    Geometric spacing resolves the fast early transient; the segment
    weighting in :func:`running_mean` keeps the average unbiased.
    """
    ladder = np.unique(np.geomspace(1, K, num=max(2, n - 1)).astype(int))
    return sorted({0, *ladder.tolist(), K})


def fit_loglog_slope(t: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) against log(t).

    Entries with nonpositive t or value are skipped with a warning; at least
    two usable points are required.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (t > 0.0) & (values > 0.0)
    if not np.all(keep):
        warnings.warn(f"skipping {int(np.sum(~keep))} nonpositive entries in log-log fit")
    t, values = t[keep], values[keep]
    if t.size < 2:
        raise ValueError("need at least two positive points to fit a slope")
    slope = np.polyfit(np.log(t), np.log(values), 1)[0]
    return float(slope)


def prescribed_schedule(base: harness.ExperimentConfig, K: int, est: TheoryEstimates) -> harness.ExperimentConfig:
    """Step sizes and local-iteration count matched to the rate guarantee.

    tau = T^(1/4) with T = K * tau, i.e. tau = round(K^(1/3)); then
    alpha = 1 / (L_hat sqrt(T)) and gamma = 1 / (sqrt(N) T), N being the
    number of ``base.spacings``.  Every other field (spacings, m, B, ...) is
    kept from ``base``.
    """
    tau = max(1, int(round(K ** (1.0 / 3.0))))
    T = K * tau
    if est.L_hat <= 0.0:
        raise ValueError("L_hat must be positive to set the primal step")
    return replace(base, K=K, tau=tau, alpha=1.0 / (est.L_hat * math.sqrt(T)), gamma=1.0 / (math.sqrt(base.N) * T))


def rate_matched_runs(config: harness.ExperimentConfig, n_probes: int, Ks: tuple[int, ...]) -> Iterator[dict]:
    """Rate-matched fgdra runs of ``config``'s fleet, one record per seed s of
    ``config.seeds`` and K of ``Ks``, each yielded as its run ends.

    Seed s trains on its :class:`harness.SeedDataCache` draw, as ``risfed
    train`` does; its constants come from ``n_probes`` probes of the stream
    ``default_rng(1000 + s)``.  A record holds seed, K, est, T (the iteration
    count of the :func:`prescribed_schedule`), trace (at the
    :func:`round_checkpoints` of K) and bound (:func:`theorem_bound` at T).
    """
    data = harness.SeedDataCache(config)
    for s in config.seeds:
        train_sets, test_sets = data.for_seed(s)
        est = estimate_constants(train_sets, n_probes, np.random.default_rng(1000 + s), config.B)
        for K in Ks:
            sched = prescribed_schedule(config, K, est)
            ckpts = round_checkpoints(K)
            result = fed.RUNNERS["fgdra"](sched, train_sets, test_sets, seed=s, eval_every=K,
                                          checkpoint_rounds=set(ckpts))
            T = sched.K * sched.tau
            yield {"seed": s, "K": K, "est": est, "T": T, "trace": grad_norm_trace(result, train_sets, ckpts),
                   "bound": theorem_bound(est, sched.m, T)}


THEORY_KS = (50, 100, 200, 400, 800)


def theory_check(config: harness.ExperimentConfig, n_probes: int) -> Iterator[dict]:
    """The :func:`rate_matched_runs` of the fleet's one-wavelength design
    (``spacings = 1.0``, so N = m = 1) over ``THEORY_KS``, each record mapped
    to seed, K, T, the final iteration-weighted running mean of the squared
    gradient norm, the bound, and ``held``: whether that mean is at most the
    bound.  Of ``config``, only algorithms and eval_every go unused.
    """
    for r in rate_matched_runs(replace(config, spacings=(1.0,), m=1), n_probes, THEORY_KS):
        final = float(running_mean(r["trace"])[-1])
        yield {"seed": r["seed"], "K": r["K"], "T": r["T"], "running_mean": final, "bound": r["bound"],
               "held": final <= r["bound"]}


def theory_decay_slope(records: list[dict]) -> float:
    """Log-log slope of the seed-mean final running average against T."""
    by_T: dict[int, list[float]] = {}
    for r in records:
        by_T.setdefault(r["T"], []).append(r["running_mean"])
    Ts = np.array(sorted(by_T))
    return fit_loglog_slope(Ts, np.array([np.mean(by_T[T]) for T in Ts]))
