"""The benchmark's four workloads, each a closed loop of one operation.

* ``synth``: ``harness.generate_data`` on the default four-worker geometry
  for consecutive dataset seeds; only ``channel`` and ``labeling`` work.
  An operation draws 500 samples per worker rather than 2500: the cost per
  sample is the same, and shorter operations let the speed probe in run.py
  follow the machine's load more closely.
* ``train``: ``harness.run_experiment`` at the default hyperparameters
  (B=50, tau=10, m=3, eval_every=10) for each algorithm over two run seeds,
  with K reduced; local SGD dominates.
* ``sync_heavy``: the same with tau=1 and eval_every=1, so the per-round
  server work and the 4 x 500-row evaluation dominate.
* ``diagnose``: ``diagnostics.estimate_constants`` and then
  ``diagnostics.grad_norm_trace`` over the checkpoints of a short fgdra run
  built during set-up; full-batch (2000-row) gradients dominate.

Workload seed s selects dataset seed 20240 + 1000 s and run seeds (s, s+1),
so seed 0 reproduces the library defaults.  Every call goes through a module
attribute (``harness.generate_data``, ``fed.RUNNERS``), so the tracer's
patches see it.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import gate
from risfed import diagnostics, fed, harness

DEFAULT_SEED = 0
BASE_DATASET_SEED = harness.ExperimentConfig().dataset_seed
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Size:
    J: int            # samples per worker in train, sync_heavy and diagnose
    synth_J: int      # samples per worker of one synth operation
    warm_J: int       # samples per worker of the synth warm-up draw
    train_K: int      # rounds per run in train
    sync_K: int       # rounds per run in sync_heavy
    diag_K: int       # rounds of the checkpointed run in diagnose
    probes: int       # estimate_constants probes per diagnose operation
    checkpoints: int  # requested round checkpoints in diagnose
    spot_checks: int  # synth samples per worker checked against the oracle


SIZES = {
    "default": Size(J=2500, synth_J=500, warm_J=100, train_K=10, sync_K=20, diag_K=30, probes=100,
                    checkpoints=12, spot_checks=16),
    "tiny": Size(J=120, synth_J=120, warm_J=40, train_K=2, sync_K=2, diag_K=3, probes=100, checkpoints=4,
                 spot_checks=4),
}


class Workload:
    """Set-up, one repeatable operation, and the checks on both.

    ``op(i)`` returns (work items, output); ``check(i, output)`` returns the
    failure messages of the correctness gate.  ``digests`` collects the
    digests computed on the way; ``expected`` holds the recorded ones, or is
    None when this run has none to compare against.  ``record`` collects the
    workload-specific figures reported in the detail record.
    """

    name = ""
    item = ""
    probe = "numeric"  # the Calibrator probe that slows down as this workload does

    def __init__(self, seed: int, size: Size, out_dir: str, expected: dict | None):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.expected = expected
        self.digests: dict[str, str] = {}
        self._samples: dict[str, list[float]] = {}
        self._pending: list[tuple[str, float, float]] = []
        self.config = harness.ExperimentConfig(
            J=size.J, dataset_seed=BASE_DATASET_SEED + SEED_STRIDE * seed, seeds=(seed, seed + 1),
            out_dir=out_dir,
        )

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> list[str]:
        return []

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError

    def record(self, name: str, value: float, seconds: float | None = None) -> None:
        """A figure of the current operation.  With ``seconds`` it is a rate,
        ``value`` items in that time, speed-corrected by :meth:`end_op`; the
        uncorrected rate is kept as ``raw_<name>``."""
        if seconds is None:
            self._samples.setdefault(name, []).append(float(value))
        else:
            self._pending.append((name, value, seconds))

    def end_op(self, scale: float | None) -> None:
        """Close the operation's rates with its speed scale; None drops them."""
        for name, value, seconds in self._pending if scale is not None else ():
            self._samples.setdefault(name, []).append(value / (seconds * scale))
            self._samples.setdefault(f"raw_{name}", []).append(value / seconds)
        self._pending.clear()

    def extra(self) -> dict[str, float]:
        """Medians of the workload-specific figures recorded by the ops."""
        return {k: statistics.median(v) for k, v in self._samples.items()}

    def check_digest(self, key: str, value: str) -> list[str]:
        """First sighting: compare with the recorded digest.  Later ones:
        the output must repeat the first byte for byte."""
        if key not in self.digests:
            self.digests[key] = value
            return gate.check_digest(key, value, (self.expected or {}).get(key))
        if value != self.digests[key]:
            return [f"{key} differs between repetitions of the same operation"]
        return []


class Synth(Workload):
    name = "synth"
    item = "synthesized sample"
    probe = "steering"

    def __init__(self, seed: int, size: Size, out_dir: str, expected: dict | None):
        super().__init__(seed, size, out_dir, expected)
        self.config = replace(self.config, J=size.synth_J)

    def setup(self) -> None:
        warm = replace(self.config, J=self.size.warm_J)  # builds the profiles and first-call state
        harness.generate_data(warm, dataset_seed=self.config.dataset_seed - 1)

    def op(self, i: int):
        t0 = perf_counter()
        train, test, profiles = harness.generate_data(self.config, dataset_seed=self.config.dataset_seed + i)
        samples = self.config.N * self.config.J
        self.record("synth_samples_per_s", samples, perf_counter() - t0)
        return samples, (train, test, profiles)

    def check(self, i: int, output) -> list[str]:
        train, test, profiles = output
        fails = gate.check_datasets(train, test, self.config.N, self.config.J)
        rng = np.random.default_rng([self.seed, i])
        picks = [rng.choice(len(ds), size=min(self.size.spot_checks, len(ds)), replace=False) for ds in train]
        fails += gate.check_oracle_labels(profiles, train, picks)
        if i == 0:
            fails += self.check_digest("synth_dataset", gate.dataset_digest(train, test))
        return fails


class Train(Workload):
    name = "train"
    item = "algorithmic round"
    tau = 10
    eval_every = 10

    def __init__(self, seed: int, size: Size, out_dir: str, expected: dict | None):
        super().__init__(seed, size, out_dir, expected)
        self.config = replace(self.config, K=self.rounds(), tau=self.tau, eval_every=self.eval_every)
        self.cache = None

    def rounds(self) -> int:
        return self.size.train_K

    def setup(self) -> None:
        self.cache = None  # release the previous set-up's data before drawing again
        cache = harness.SeedDataCache(self.config)
        for s in self.config.seeds:
            cache.for_seed(s)
        self.cache = cache

    def check_setup(self) -> list[str]:
        fails = []
        for s in self.config.seeds:
            fails += gate.check_datasets(*self.cache.for_seed(s), self.config.N, self.config.J)
        first = self.cache.for_seed(self.config.seeds[0])
        return fails + self.check_digest("dataset", gate.dataset_digest(*first))

    def op(self, i: int):
        cfg = self.config
        results = {}
        for alg in fed.ALGORITHMS:
            t0 = perf_counter()
            results[alg] = harness.run_experiment(
                replace(cfg, algorithms=(alg,), out_dir=os.path.join(self.out_dir, alg)), self.cache)
            self.record(f"{alg}_rounds_per_s", cfg.K * len(cfg.seeds), perf_counter() - t0)
        return len(fed.ALGORITHMS) * len(cfg.seeds) * cfg.K, results

    def check(self, i: int, output) -> list[str]:
        cfg = self.config
        evals = sum(1 for k in range(cfg.K) if (k + 1) % cfg.eval_every == 0 or k == cfg.K - 1)
        fails, csv = [], b""
        for alg, res in output.items():
            with open(res.csv_path, "rb") as f:
                text = f.read()
            csv += text
            fails += gate.check_runs_csv(text, cfg.N, evals * len(cfg.seeds))
            for run in res.runs.values():
                fails += gate.check_run_result(run)
        self.record("worst_acc", output["fgdra"].summary.per_algorithm["fgdra"].worst_acc_mean)
        return fails + self.check_digest(f"{self.name}_runs_csv", gate.digest(csv))


class SyncHeavy(Train):
    name = "sync_heavy"
    tau = 1
    eval_every = 1

    def rounds(self) -> int:
        return self.size.sync_K


class Diagnose(Workload):
    name = "diagnose"
    item = "probe or trace point"

    def setup(self) -> None:
        self.state = None
        cfg = self.config
        train, test, _ = harness.generate_data(cfg)
        K = self.size.diag_K
        ckpts = diagnostics.round_checkpoints(K, self.size.checkpoints)
        run = fed.RUNNERS["fgdra"](replace(cfg, K=K).train_config("fgdra"), train, test, seed=self.seed,
                                   eval_every=K, checkpoint_rounds=set(ckpts))
        self.state = (train, test, ckpts, run)

    def check_setup(self) -> list[str]:
        train, test, _, run = self.state
        fails = gate.check_datasets(train, test, self.config.N, self.config.J) + gate.check_run_result(run)
        return fails + self.check_digest("dataset", gate.dataset_digest(train, test))

    def op(self, i: int):
        train, _, ckpts, run = self.state
        t0 = perf_counter()
        est = diagnostics.estimate_constants(train, n_probes=self.size.probes,
                                             rng=np.random.default_rng(self.seed), batch_size=self.config.B)
        t1 = perf_counter()
        trace = diagnostics.grad_norm_trace(run, train, ckpts)
        t2 = perf_counter()
        self.record("diag_probes_per_s", self.size.probes, t1 - t0)
        self.record("trace_points_per_s", len(ckpts), t2 - t1)
        return self.size.probes + len(ckpts), (est, trace)

    def check(self, i: int, output) -> list[str]:
        est, trace = output
        fails = gate.check_diagnostics(est, trace)
        values = np.array([est.sigma_hat, est.nu_hat, est.L_hat, est.F0])
        return fails + self.check_digest("diagnose_values", gate.digest(values, trace.t, trace.grad_norm_sq))


WORKLOADS = {w.name: w for w in (Synth, Train, SyncHeavy, Diagnose)}
