"""Experiment orchestration: configs, data generation, multi-seed runs,
hyperparameter sweeps and plot-ready CSV emission.

The config file is a flat ``key = value`` text format ('#' starts a
comment).  Every key is optional; omitted keys fall back to the default
experiment: four heterogeneous workers whose RIS designs differ in element
spacing (1/8 to 1 wavelength), trained with alpha=2e-3, gamma=5e-3, B=50,
tau=10, m=3 for K=800 rounds over five seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import diagnostics, fed
from .channel import Placement, make_worker_geometry
from .fed import RunResult, TrainConfig
from .labeling import Dataset, RateParams, WorkerProfile, gen_dataset, save_dataset, split

SWEEP_AXES = ("none", "tau", "B", "m")

# Anchor geometry of the default heterogeneity profile.  Worker 0 is the
# minority design: its RX sits past broadside (azimuth > 90 deg), which
# reverses the sweep direction of its codebook fan.  The other workers'
# azimuths are chosen so that spacing * sin(angle) lands a fixed offset
# above worker 0's value (their standardized features occupy the same
# phase-ramp band) while their wider fans make them fast majority learners.
# Uniform loss weighting then drives the shared model toward the majority
# mapping at worker 0's expense, which is the regime the robust algorithms
# are meant to fix.  Strengthen or weaken the effect by moving
# ANCHOR_RX_AZIMUTH_DEG toward or away from 90 degrees (see README).
ANCHOR_RX_AZIMUTH_DEG = 110.0
ANCHOR_TX_AZIMUTH_DEG = -20.0
ANCHOR_RX_ELEVATION_DEG = 4.0
ALIAS_RAMP_OFFSET = 0.02  # cycles per element column
TX_DISTANCE_M = 30.0
RX_DISTANCE_M = 20.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; field names double as config-file keys."""

    algorithms: tuple[str, ...] = ("fgdra", "drfa", "fedavg")
    alpha: float = 2e-3
    gamma: float = 5e-3
    B: int = 50
    N: int = 4
    tau: int = 10
    m: int = 3
    K: int = 800
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    eval_every: int = 10
    J: int = 2500
    train_fraction: float = 0.8
    dataset_seed: int = 20240
    profile_seed: int = 7
    wavelength: float = 0.0107
    ris_rows: int = 10
    ris_cols: int = 10
    spacings: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0)  # in wavelengths
    n_scatterers: int = 4
    scatter_cone_deg: float = 15.0
    scatter_extra_lo: float = 0.05
    scatter_extra_hi: float = 0.30
    bandwidth: float = 1e7
    tx_power: float = 0.5
    noise_psd: float = 4e-21
    sweep_axis: str = "none"
    sweep_values: tuple[float, ...] = ()
    out_dir: str = "out"

    def __post_init__(self) -> None:
        _check_numbers(self)
        self.train_config()  # reuse its hyperparameter validation
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.J < 1:
            raise ValueError("J must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if any(v <= 0 for v in self.sweep_values):
            raise ValueError("sweep values must be positive")
        if not self.spacings or any(s <= 0 for s in self.spacings):
            raise ValueError("spacings must be a nonempty list of positive values")
        _worker_angles(self)  # the alias geometry must be feasible
        for alg in self.algorithms:
            if alg not in fed.ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        if self.sweep_axis != "none":
            for value in self.sweep_values:
                sweep_config(self, self.sweep_axis, value)

    def train_config(self, algorithm: str = "fgdra") -> TrainConfig:
        return TrainConfig(
            N=self.N, m=self.m, K=self.K, tau=self.tau, alpha=self.alpha,
            gamma=self.gamma, B=self.B, seeds=self.seeds, algorithm=algorithm,
        )


_LIST_FIELDS = {"algorithms": str, "seeds": int, "spacings": float, "sweep_values": float}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _check_numbers(config: ExperimentConfig) -> None:
    """Reject non-finite values of float keys and non-integers in int keys."""
    for key, ftype in _FIELD_TYPES.items():
        kind = _LIST_FIELDS.get(key) or {"int": int, "float": float}.get(ftype)
        values = getattr(config, key) if key in _LIST_FIELDS else (getattr(config, key),)
        for v in values:
            if kind is float and not math.isfinite(v):
                raise ValueError(f"{key} must be finite, got {v!r}")
            if kind is int and not isinstance(v, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {v!r}")


def _parse_value(key: str, text: str):
    if key in _LIST_FIELDS:
        conv = _LIST_FIELDS[key]
        items = [s.strip() for s in text.split(",") if s.strip()]
        return tuple(conv(s) for s in items)
    ftype = _FIELD_TYPES[key]
    if ftype == "int":
        return int(text)
    if ftype == "float":
        return float(text)
    return text


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key=value file; unknown keys and bad values are fatal."""
    overrides = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                overrides[key] = _parse_value(key, text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: invalid value for {key!r}: {exc}") from exc
    return ExperimentConfig(**overrides)


def apply_overrides(config: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Apply 'key=value' style overrides (CLI flags) on top of a config."""
    parsed = {}
    for key, text in overrides.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        parsed[key] = _parse_value(key, text)
    return replace(config, **parsed)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form: every key, declaration order, one per line."""
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}" for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def _worker_angles(config: ExperimentConfig) -> list[tuple[float, float, float]]:
    """(RX azimuth, TX azimuth, RX elevation) of every worker, in radians.

    Worker 0 sits at the anchor angles.  Every other worker's RX azimuth is
    phase-ramp matched to the anchor at its own spacing
    (sin(a_w) * spacing_w = sin(anchor) * spacing_0 + ALIAS_RAMP_OFFSET),
    its TX azimuth matched without offset, and its elevation is zero.  A
    spacing too small for the RX match (sin > 1) is rejected; the TX match
    then holds too, as |sin(ANCHOR_TX)| < sin(ANCHOR_RX).
    """
    rx0 = math.radians(ANCHOR_RX_AZIMUTH_DEG)
    tx0 = math.radians(ANCHOR_TX_AZIMUTH_DEG)
    s_rx = math.sin(rx0) * config.spacings[0]
    s_tx = math.sin(tx0) * config.spacings[0]
    angles = [(rx0, tx0, math.radians(ANCHOR_RX_ELEVATION_DEG))]
    for w in range(1, config.N):
        spacing = config.spacings[w % len(config.spacings)]
        sin_rx = (s_rx + ALIAS_RAMP_OFFSET) / spacing
        if sin_rx > 1.0:
            raise ValueError(
                f"spacings {config.spacings} with N={config.N}: worker {w} (spacing {spacing!r}) cannot "
                f"be phase-ramp matched to worker 0 (sin of its RX azimuth would be {sin_rx:.4f})")
        angles.append((math.asin(sin_rx), math.asin(s_tx / spacing), 0.0))
    return angles


def build_profiles(config: ExperimentConfig) -> list[WorkerProfile]:
    """Construct the N worker scenarios deterministically from profile_seed.

    Worker w gets element spacing spacings[w mod len(spacings)] (in
    wavelengths) and the placement angles of :func:`_worker_angles`.
    Scatterer constellations are drawn once per worker from profile_seed
    and stay fixed.
    """
    rate = RateParams(bandwidth=config.bandwidth, tx_power=config.tx_power, noise_psd=config.noise_psd)
    profiles = []
    for w, (rx_az, tx_az, rx_el) in enumerate(_worker_angles(config)):
        spacing = config.spacings[w % len(config.spacings)]
        rng = np.random.default_rng(np.random.SeedSequence(config.profile_seed, spawn_key=(w,)))
        tx = Placement(distance=TX_DISTANCE_M, azimuth=tx_az, elevation=0.0)
        rx = Placement(distance=RX_DISTANCE_M, azimuth=rx_az, elevation=rx_el)
        geom = make_worker_geometry(
            ris_rows=config.ris_rows,
            ris_cols=config.ris_cols,
            element_spacing=spacing * config.wavelength,
            carrier_wavelength=config.wavelength,
            tx=tx,
            rx=rx,
            n_scatterers=config.n_scatterers,
            rng=rng,
            cone_halfwidth=math.radians(config.scatter_cone_deg),
            extra_travel_lo=config.scatter_extra_lo,
            extra_travel_hi=config.scatter_extra_hi,
        )
        profiles.append(WorkerProfile(worker_id=w, geometry=geom, rate=rate))
    return profiles


def generate_data(config: ExperimentConfig,
                  dataset_seed: int | None = None) -> tuple[list[Dataset], list[Dataset], list[WorkerProfile]]:
    """Synthesize and split every worker's dataset for one data draw."""
    profiles = build_profiles(config)
    seed = config.dataset_seed if dataset_seed is None else dataset_seed
    train_sets, test_sets = [], []
    for profile in profiles:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(profile.worker_id,)))
        ds = gen_dataset(profile, config.J, rng)
        train, test = split(ds, config.train_fraction, rng)
        train_sets.append(train)
        test_sets.append(test)
    return train_sets, test_sets, profiles


class SeedDataCache:
    """Per-run-seed data draws: run seed s uses dataset_seed + s.

    Each of the five runs behind a reported mean sees a fresh draw of every
    worker's dataset, so run-to-run spread reflects data variability as well
    as training stochasticity.  Draws are cached for reuse across
    algorithms and sweep cells.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._cache: dict[int, tuple[list[Dataset], list[Dataset]]] = {}

    def for_seed(self, seed: int) -> tuple[list[Dataset], list[Dataset]]:
        if seed not in self._cache:
            train, test, _ = generate_data(self.config, dataset_seed=self.config.dataset_seed + seed)
            self._cache[seed] = (train, test)
        return self._cache[seed]


@dataclass(frozen=True)
class AlgorithmSummary:
    """Final-round statistics over seeds (mean and standard error)."""

    algorithm: str
    avg_acc_mean: float
    avg_acc_se: float
    worst_acc_mean: float
    worst_acc_se: float
    acc_sd_mean: float
    communication_rounds_consumed: int


@dataclass
class RunSummary:
    per_algorithm: dict[str, AlgorithmSummary]


@dataclass
class ExperimentResult:
    runs: dict[tuple[str, int], RunResult]
    summary: RunSummary
    csv_path: str


def _standard_error(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _run_one(config: ExperimentConfig, algorithm: str, seed: int,
             train_sets: list[Dataset], test_sets: list[Dataset]) -> RunResult:
    runner = fed.RUNNERS[algorithm]
    return runner(config.train_config(algorithm), train_sets, test_sets, seed=seed,
                  eval_every=config.eval_every)


def _csv_header(N: int) -> str:
    cols = ["algorithm", "seed", "round", "comm_rounds", "avg_acc", "worst_acc", "acc_sd"]
    cols += [f"acc_w{i}" for i in range(N)]
    cols += [f"lambda_{i}" for i in range(N)]
    return ",".join(cols)


def _csv_rows(result: RunResult) -> list[str]:
    rows = []
    for log in result.round_logs:
        parts = [result.algorithm, str(result.seed), str(log.round),
                 str(log.communication_rounds_consumed),
                 repr(log.avg_acc), repr(log.worst_acc), repr(log.acc_sd)]
        parts += [repr(float(a)) for a in log.per_worker_acc]
        parts += [repr(float(l)) for l in log.lam]
        rows.append(",".join(parts))
    return rows


def summarize_runs(runs: dict[tuple[str, int], RunResult], algorithms, seeds) -> RunSummary:
    per_algorithm = {}
    for alg in algorithms:
        finals = [runs[(alg, s)].round_logs[-1] for s in seeds]
        avg = np.array([f.avg_acc for f in finals])
        worst = np.array([f.worst_acc for f in finals])
        sds = np.array([f.acc_sd for f in finals])
        per_algorithm[alg] = AlgorithmSummary(
            algorithm=alg,
            avg_acc_mean=float(avg.mean()),
            avg_acc_se=_standard_error(avg),
            worst_acc_mean=float(worst.mean()),
            worst_acc_se=_standard_error(worst),
            acc_sd_mean=float(sds.mean()),
            communication_rounds_consumed=finals[0].communication_rounds_consumed,
        )
    return RunSummary(per_algorithm=per_algorithm)


def run_experiment(config: ExperimentConfig,
                   data: SeedDataCache | None = None) -> ExperimentResult:
    """Run every (algorithm, seed) pair and stream per-round rows to CSV.

    Run seed s trains on data draw dataset_seed + s (shared across the
    algorithms, so per-seed comparisons stay paired).  Rows are written in
    canonical (algorithm, seed, round) order and flushed after every run,
    so partial results survive an interruption.  The x-axis column
    ``comm_rounds`` counts communication exchanges (DRFA advances by two
    per round).
    """
    cache = data if data is not None else SeedDataCache(config)
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, "runs.csv")
    runs: dict[tuple[str, int], RunResult] = {}
    with open(csv_path, "w") as f:
        f.write(_csv_header(config.N) + "\n")
        for alg in config.algorithms:
            for seed in config.seeds:
                train_sets, test_sets = cache.for_seed(seed)
                result = _run_one(config, alg, seed, train_sets, test_sets)
                runs[(alg, seed)] = result
                for row in _csv_rows(result):
                    f.write(row + "\n")
                f.flush()
    summary = summarize_runs(runs, config.algorithms, config.seeds)
    summary_path = os.path.join(config.out_dir, "summary.csv")
    with open(summary_path, "w") as f:
        f.write("algorithm,avg_acc_mean,avg_acc_se,worst_acc_mean,worst_acc_se,acc_sd_mean,comm_rounds\n")
        for alg in config.algorithms:
            s = summary.per_algorithm[alg]
            f.write(f"{alg},{s.avg_acc_mean!r},{s.avg_acc_se!r},{s.worst_acc_mean!r},"
                    f"{s.worst_acc_se!r},{s.acc_sd_mean!r},{s.communication_rounds_consumed}\n")
    return ExperimentResult(runs=runs, summary=summary, csv_path=csv_path)


@dataclass(frozen=True)
class SweepCell:
    """One sweep-table entry: 5-run mean accuracies at the final round."""

    axis: str
    value: float
    algorithm: str
    avg_acc_mean: float
    avg_acc_se: float
    worst_acc_mean: float
    worst_acc_se: float

    @property
    def cell(self) -> str:
        return f"{self.avg_acc_mean:.2f}/{self.worst_acc_mean:.2f}"


def sweep_config(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """The plain (non-sweep) config of one sweep cell: ``axis`` set to
    ``value``, which must be integral."""
    if axis not in SWEEP_AXES[1:]:
        raise ValueError(f"unsupported sweep axis {axis!r}")
    if value != int(value):
        raise ValueError(f"sweep_values: {axis} takes integral values, got {value!r}")
    try:
        return replace(config, sweep_axis="none", sweep_values=(), **{axis: int(value)})
    except ValueError as exc:
        raise ValueError(f"sweep_values: {axis}={value!r} is invalid: {exc}") from exc


def run_sweep(config: ExperimentConfig,
              data: SeedDataCache | None = None) -> list[SweepCell]:
    """Evaluate every (sweep value, algorithm) cell at the configured K.

    Reports a two-decimal "average/worst" percent pair per cell and writes
    one CSV row per cell to ``sweep.csv``.
    """
    if config.sweep_axis == "none" or not config.sweep_values:
        raise ValueError("config must set sweep_axis and sweep_values")
    cache = data if data is not None else SeedDataCache(config)
    cells = []
    for value in config.sweep_values:
        cfg_v = sweep_config(config, config.sweep_axis, value)
        runs = {(alg, seed): _run_one(cfg_v, alg, seed, *cache.for_seed(seed))
                for alg in cfg_v.algorithms for seed in cfg_v.seeds}
        for s in summarize_runs(runs, cfg_v.algorithms, cfg_v.seeds).per_algorithm.values():
            cells.append(SweepCell(
                axis=config.sweep_axis,
                value=value,
                algorithm=s.algorithm,
                avg_acc_mean=s.avg_acc_mean,
                avg_acc_se=s.avg_acc_se,
                worst_acc_mean=s.worst_acc_mean,
                worst_acc_se=s.worst_acc_se,
            ))
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "sweep.csv"), "w") as f:
        f.write("axis,value,algorithm,avg_acc_mean,avg_acc_se,worst_acc_mean,worst_acc_se,cell\n")
        for c in cells:
            f.write(f"{c.axis},{_format_value(c.value)},{c.algorithm},{c.avg_acc_mean!r},"
                    f"{c.avg_acc_se!r},{c.worst_acc_mean!r},{c.worst_acc_se!r},{c.cell}\n")
    return cells


def emit_plot_data(run_csv: str, out_dir: str) -> list[str]:
    """Collapse a runs.csv into three plot-ready series files.

    For each of the three figure metrics (average accuracy, worst
    distribution accuracy, accuracy sd) one CSV is written with a row per
    (algorithm, round): the seed mean and the one-standard-error band
    half-width, against both round and communication-round axes.
    """
    with open(run_csv) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    col = {name: i for i, name in enumerate(header)}
    paths = []
    os.makedirs(out_dir, exist_ok=True)
    for metric, fname in (("avg_acc", "fig_avg.csv"), ("worst_acc", "fig_worst.csv"), ("acc_sd", "fig_sd.csv")):
        series: dict[tuple[str, int], list[float]] = {}
        comm: dict[tuple[str, int], int] = {}
        for r in rows:
            key = (r[col["algorithm"]], int(r[col["round"]]))
            series.setdefault(key, []).append(float(r[col[metric]]))
            comm[key] = int(r[col["comm_rounds"]])
        path = os.path.join(out_dir, fname)
        with open(path, "w") as f:
            f.write("algorithm,round,comm_rounds,mean,se\n")
            for (alg, rnd) in sorted(series, key=lambda k: (k[0], k[1])):
                vals = np.array(series[(alg, rnd)])
                f.write(f"{alg},{rnd},{comm[(alg, rnd)]},{float(vals.mean())!r},{_standard_error(vals)!r}\n")
        paths.append(path)
    return paths


def export_datasets(config: ExperimentConfig, out_dir: str) -> list[str]:
    """Write every worker's train/test split via the dataset file format."""
    train_sets, test_sets, profiles = generate_data(config)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for profile, train, test in zip(profiles, train_sets, test_sets):
        meta = {
            "dataset_seed": str(config.dataset_seed),
            "profile_seed": str(config.profile_seed),
            "element_spacing_m": repr(profile.geometry.element_spacing),
            "carrier_wavelength_m": repr(profile.geometry.carrier_wavelength),
        }
        for name, ds in (("train", train), ("test", test)):
            stem = os.path.join(out_dir, f"worker{profile.worker_id}_{name}")
            save_dataset(ds, stem, extra_meta=meta)
            written.append(stem + ".csv")
    return written


THEORY_KS = (50, 100, 200, 400, 800)


def theory_worker_data(config: ExperimentConfig, dataset_seed: int) -> tuple[list[Dataset], list[Dataset]]:
    """Single well-conditioned worker for the convergence-rate check: a
    full-wavelength array at a small azimuth with distant scatterers, which
    trains to interpolation under the rate-matched schedule."""
    rate = RateParams(bandwidth=config.bandwidth, tx_power=config.tx_power, noise_psd=config.noise_psd)
    rng = np.random.default_rng(np.random.SeedSequence(config.profile_seed, spawn_key=(3,)))
    geom = make_worker_geometry(
        config.ris_rows, config.ris_cols, config.wavelength, config.wavelength,
        tx=Placement(TX_DISTANCE_M, math.radians(-25.0), 0.0),
        rx=Placement(RX_DISTANCE_M, math.radians(14.0), math.radians(2.0)),
        n_scatterers=config.n_scatterers, rng=rng,
        extra_travel_lo=0.25, extra_travel_hi=0.5,
    )
    rng = np.random.default_rng(np.random.SeedSequence(dataset_seed, spawn_key=(3,)))
    ds = gen_dataset(WorkerProfile(0, geom, rate), config.J, rng)
    train, test = split(ds, config.train_fraction, rng)
    return [train], [test]


def theory_check(config: ExperimentConfig, seeds, n_probes: int) -> list[dict]:
    """Rate-matched single-worker runs over the K-sweep ``THEORY_KS``.

    Seed s trains on :func:`theory_worker_data` drawn from dataset_seed + s,
    under :func:`diagnostics.prescribed_schedule` with constants estimated
    from ``n_probes`` probes.  One record per (seed, K) holds seed, K, T (the
    iteration count), the final iteration-weighted running mean of the
    squared gradient norm and the theorem bound.
    """
    records = []
    for s in seeds:
        train_sets, test_sets = theory_worker_data(config, config.dataset_seed + s)
        est = diagnostics.estimate_constants(
            train_sets, n_probes=n_probes, rng=np.random.default_rng(1000 + s),
            batch_size=config.B, pair_scale=1e-3,
        )
        for K in THEORY_KS:
            sched = diagnostics.prescribed_schedule(K, 1, est)
            T = sched.K * sched.tau
            ckpts = diagnostics.round_checkpoints(K)
            result = fed.run_fgdra(sched, train_sets, test_sets, seed=s, eval_every=K,
                                   checkpoint_rounds=set(ckpts))
            trace = diagnostics.grad_norm_trace(result, train_sets, ckpts)
            records.append({
                "seed": s, "K": K, "T": T,
                "running_mean": float(diagnostics.running_mean_trace(trace).grad_norm_sq[-1]),
                "bound": diagnostics.theorem_bound(est, sched.m, T),
            })
    return records


def theory_decay_slope(records: list[dict]) -> float:
    """Log-log slope of the seed-mean final running average against T."""
    by_T: dict[int, list[float]] = {}
    for r in records:
        by_T.setdefault(r["T"], []).append(r["running_mean"])
    Ts = np.array(sorted(by_T))
    return diagnostics.fit_loglog_slope(Ts, np.array([np.mean(by_T[T]) for T in Ts]))
