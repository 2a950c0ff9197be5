"""Federated min-max training: FGDRA and the DRFA / FedAvg baselines.

All three algorithms run one round loop, ``run``: sample m workers
proportionally to the simplex weights lambda, run local SGD, take each
sampled worker's dual loss on a fresh batch, average the models with
``ps_aggregate``, and lift the sampled weights and renormalize lambda with
``dual_step``.  ``RUNNERS`` binds ``run`` to each algorithm.
The table ``DUAL_LOSS_AT`` holds the one fact that tells them apart, the
iterate at which the dual loss is taken; the rest follows from it:

* ``fgdra``  - the final local iterate.  Workers lift their own weight and
  piggyback it on the model upload: one exchange per round.
* ``drfa``   - a uniformly random local iterate snapshot (one index per
  round, drawn by the server).  The loss is importance weighted by N/m and
  the server-side dual step needs a second exchange: two per round.
* ``fedavg`` - nowhere.  No dual step, so lambda stays uniform, sampling is
  uniform and local SGD is unweighted.  One exchange per round.

At each evaluated round a run records only what it measured, the exchanges
made so far and each worker's test accuracy (``RoundLog``); the average,
worst-case and sd over workers are computed from those by ``harness.run_rows``.

Randomness is organized as per-(seed, purpose, worker, round) substreams, so
results are independent of worker execution order and identical batch
sequences can be replayed across algorithms for equivalence checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import metrics, mlp
from .labeling import Dataset

if TYPE_CHECKING:
    from .harness import ExperimentConfig

# Where each algorithm takes the loss of its dual step: "final" local
# iterate, random "snapshot" iterate, or None (no dual variable).
DUAL_LOSS_AT = {"fgdra": "final", "drfa": "snapshot", "fedavg": None}
ALGORITHMS = tuple(DUAL_LOSS_AT)

# Largest exponent of the dual step taken without a shift: math.exp overflows
# just above 709.78, and the margin keeps the lifted vector's sum finite.
_EXP_MAX = 700.0

# Substream purpose tags; part of the reproducibility contract.
_INIT, _SERVER, _PRIMAL, _DUAL, _SNAPSHOT = range(5)


@dataclass(frozen=True)
class RoundLog:
    """What one evaluated round measured: the exchanges made so far and each
    worker's test accuracy."""

    round: int
    communication_rounds_consumed: int
    per_worker_acc: np.ndarray


@dataclass
class RunResult:
    """Everything a run leaves behind: per-round logs plus the artifacts the
    diagnostics module needs (round-boundary model checkpoints and the full
    dual-weight history)."""

    algorithm: str
    seed: int
    config: ExperimentConfig
    round_logs: list[RoundLog]
    final_theta: np.ndarray
    lambda_history: np.ndarray
    theta_checkpoints: dict[int, np.ndarray]
    dual_loss_history: list[dict[int, float]]


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator of substream ``key`` of ``seed``; its draws depend on nothing else."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _draw_batch(ds: Dataset, B: int, rng: np.random.Generator) -> mlp.MiniBatch:
    idx = rng.integers(0, len(ds), size=B)
    return mlp.MiniBatch(inputs=ds.features[idx], labels=ds.labels[idx])


def sample_workers(lam: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m distinct workers by sequential proportional sampling.

    Each draw is proportional to the remaining weights, which are
    renormalized after every pick.  If fewer than m positive entries exist,
    the open slots are filled uniformly from the unchosen workers.  m = N
    returns the full set without consuming randomness.  The result is sorted
    ascending (the canonical processing order).
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= len(lam), got m={m}")
    if m == n:
        return np.arange(n)
    remaining = lam.copy()
    chosen: list[int] = []
    for _ in range(m):
        total = remaining.sum()
        if total <= 0.0:
            break
        idx = int(rng.choice(n, p=remaining / total))
        chosen.append(idx)
        remaining[idx] = 0.0
    if len(chosen) < m:
        pool = np.setdiff1d(np.arange(n), np.array(chosen, dtype=int))
        extra = rng.choice(pool, size=m - len(chosen), replace=False)
        chosen.extend(int(i) for i in np.atleast_1d(extra))
    return np.sort(np.asarray(chosen, dtype=int))


def local_sgd(
    dataset: Dataset,
    theta0: np.ndarray,
    lambda_n: float,
    tau: int,
    alpha: float,
    B: int,
    rng: np.random.Generator,
    snapshot_at: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run tau SGD steps theta <- theta - alpha * lambda_n * grad(theta; batch).

    Batches are uniform with replacement from the worker's training split.
    When ``snapshot_at`` = j is given, the iterate right before step j (the
    j-th local iterate) is also returned.  Each step writes its iterate into
    the fresh vector that ``mlp.grad`` returned, which no one else holds, so
    theta0 and the snapshot are never overwritten.
    """
    step = alpha * lambda_n
    theta = theta0
    snapshot = None
    for t in range(tau):
        if snapshot_at is not None and t == snapshot_at:
            snapshot = theta
        batch = _draw_batch(dataset, B, rng)
        g = mlp.grad(theta, batch)
        theta = mlp.add_scaled(theta, g, -step, out=g)
    return theta, snapshot


def dual_step(lam: np.ndarray, losses: dict[int, float], gamma: float) -> np.ndarray:
    """One round's dual step, exponentiated ascent: lift each sampled entry n
    to lambda_n * exp(gamma * L_n - s) on its loss L_n, then ``normalize``.

    All entries share one shift s, the largest exponent gamma * L_n of a
    sampled entry with positive weight when ``math.exp`` of it would
    overflow, and 0 otherwise; the unsampled entries are scaled by exp(-s) to
    match.  The shift cancels in the normalization, and s = 0 at ordinary
    step sizes leaves every bit as in the unshifted update.  A zero weight
    is absorbing: its exponent is not evaluated, so it cannot overflow, and
    it does not set the shift.
    The lifted vector keeps a positive sum: at s = 0 no factor is below 1,
    and at s > 0 the entry that set s keeps its positive weight.
    """
    top = max((gamma * loss for n, loss in losses.items() if lam[n] > 0.0), default=0.0)
    shift = top if top > _EXP_MAX else 0.0
    new_lam = lam * math.exp(-shift)
    for n, loss in losses.items():
        if lam[n] > 0.0:
            new_lam[n] = lam[n] * math.exp(gamma * loss - shift)
    return normalize(new_lam)


def ps_aggregate(theta_list: list[np.ndarray]) -> np.ndarray:
    """Unweighted mean of the sampled workers' models."""
    return mlp.average(theta_list)


def normalize(lam: np.ndarray) -> np.ndarray:
    """Project nonnegative weights with a positive sum back onto the simplex
    by rescaling."""
    return lam / lam.sum()


def _should_eval(k: int, K: int, eval_every: int) -> bool:
    return (k + 1) % eval_every == 0 or k == K - 1


# a diverging step overflows inside a round; run reports it once, at the round's end
@np.errstate(over="ignore", invalid="ignore")
def run(
    config: ExperimentConfig,
    train_sets: list[Dataset],
    test_sets: list[Dataset],
    *,
    seed: int,
    eval_every: int,
    checkpoint_rounds: set[int] | None = None,
    algorithm: str,
) -> RunResult:
    """Train ``algorithm`` for ``config.K`` rounds on one dataset per worker.

    ``seed`` keys every substream of the run.  The model is evaluated
    on the test sets every ``eval_every`` rounds and at the last round; the
    model before each round in ``checkpoint_rounds`` (K for the final one)
    is kept.  A round that leaves the model or lambda non-finite (a step
    size alpha, or gamma, too large for the data) raises
    ``FloatingPointError``.
    """
    if len(train_sets) != config.N or len(test_sets) != config.N:
        raise ValueError(f"expected {config.N} train and test sets")
    dual_at = DUAL_LOSS_AT[algorithm]
    at_snapshot = dual_at == "snapshot"
    comm_cost = 2 if at_snapshot else 1
    # importance weighting: the m sampled snapshot losses stand in for all N
    dual_gamma = config.gamma * (config.N / config.m if at_snapshot else 1.0)
    checkpoint_rounds = set(checkpoint_rounds or ())

    theta = mlp.init(substream(seed, _INIT))
    lam = np.full(config.N, 1.0 / config.N)
    lambda_history = np.empty((config.K + 1, config.N))
    lambda_history[0] = lam
    theta_checkpoints: dict[int, np.ndarray] = {}
    dual_loss_history: list[dict[int, float]] = []
    round_logs: list[RoundLog] = []
    comm = 0

    for k in range(config.K):
        if k in checkpoint_rounds:
            theta_checkpoints[k] = theta

        sampled = sample_workers(lam, config.m, substream(seed, _SERVER, k))
        snapshot_at = int(substream(seed, _SNAPSHOT, k).integers(0, config.tau)) if at_snapshot else None

        thetas: list[np.ndarray] = []
        dual_losses: dict[int, float] = {}
        for n in sampled:  # ascending order; each worker owns its substreams
            n = int(n)
            lam_n = float(lam[n]) if dual_at else 1.0
            theta_n, snapshot = local_sgd(
                train_sets[n], theta, lam_n, config.tau, config.alpha, config.B,
                substream(seed, _PRIMAL, n, k), snapshot_at=snapshot_at,
            )
            thetas.append(theta_n)
            if dual_at:
                batch = _draw_batch(train_sets[n], config.B, substream(seed, _DUAL, n, k))
                dual_losses[n] = mlp.loss(snapshot if at_snapshot else theta_n, batch)

        theta = ps_aggregate(thetas)
        if dual_at:
            lam = dual_step(lam, dual_losses, dual_gamma)
        if not (np.isfinite(theta).all() and np.isfinite(lam).all()):
            steps = f"alpha={config.alpha:g}" + (f" or gamma={config.gamma:g}" if dual_at else "")
            raise FloatingPointError(f"{algorithm} seed {seed}: round {k + 1} left the model or lambda "
                                     f"non-finite; {steps} is too large a step")
        lambda_history[k + 1] = lam
        dual_loss_history.append(dual_losses)
        comm += comm_cost

        if _should_eval(k, config.K, eval_every):
            round_logs.append(RoundLog(k + 1, comm, metrics.per_worker_accuracy(theta, test_sets)))

    if config.K in checkpoint_rounds:
        theta_checkpoints[config.K] = theta

    return RunResult(
        algorithm=algorithm,
        seed=seed,
        config=config,
        round_logs=round_logs,
        final_theta=theta,
        lambda_history=lambda_history,
        theta_checkpoints=theta_checkpoints,
        dual_loss_history=dual_loss_history,
    )


RUNNERS = {alg: functools.partial(run, algorithm=alg) for alg in ALGORITHMS}
# the names perfbench's tracer binds
run_fgdra, run_drfa, run_fedavg = RUNNERS["fgdra"], RUNNERS["drfa"], RUNNERS["fedavg"]
