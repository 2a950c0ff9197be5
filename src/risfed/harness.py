"""Experiment orchestration: configs, data generation, multi-seed runs,
hyperparameter sweeps, and every text format risfed reads or writes.

Config files, ``--set`` items and dataset ``.meta`` files are flat
``key = value`` text ('#' starts a comment), read by :func:`read_settings`
and written by :func:`format_settings`; every table, datasets included, is
written by :func:`write_csv`.  Every config key is optional; omitted keys
fall back to the default experiment: four heterogeneous workers whose RIS
designs differ in element spacing (1/8 to 1 wavelength), trained with
alpha=2e-3, gamma=5e-3, B=50, tau=10, m=3 for K=800 rounds over five seeds.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import diagnostics, fed
from .channel import Placement, make_worker_geometry
from .fed import RunResult
from .labeling import (FEATURE_DIM, Dataset, FeatureScaler, RateParams, WorkerProfile, gen_dataset, split,
                       train_count)

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
    """Full experiment description, read directly by the fed runners; field
    names double as config-file keys.  Each setting is defaulted here and
    checked in ``__post_init__``, nowhere else."""

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
        if not 1 <= self.m <= self.N:
            raise ValueError(f"need 1 <= m <= N, got m={self.m}, N={self.N}")
        for key in _POSITIVE_KEYS:
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)!r}")
        # gamma = 0 freezes lambda; the FedAvg-reduction checks rely on it
        for key in ("gamma", "scatter_cone_deg", "profile_seed", "dataset_seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)!r}")
        if not self.seeds or any(s < 0 for s in self.seeds) or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be a nonempty list of distinct nonnegative ints, got {self.seeds!r}")
        if (not self.algorithms or len(set(self.algorithms)) < len(self.algorithms)
                or not set(self.algorithms) <= set(fed.ALGORITHMS)):
            raise ValueError(f"algorithms must be a nonempty list of distinct names from {fed.ALGORITHMS}, "
                             f"got {self.algorithms!r}")
        if self.ris_rows * self.ris_cols != FEATURE_DIM // 4:
            raise ValueError(f"ris_rows x ris_cols must be {FEATURE_DIM // 4} (the {FEATURE_DIM} features are "
                             f"h and g), got {self.ris_rows}x{self.ris_cols}")
        if not -1.0 < self.scatter_extra_lo <= self.scatter_extra_hi:
            raise ValueError(f"need -1 < scatter_extra_lo <= scatter_extra_hi, got "
                             f"{self.scatter_extra_lo!r} and {self.scatter_extra_hi!r}")
        train_count(self.J, self.train_fraction)  # raises unless both splits are nonempty
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if any(v <= 0 for v in self.sweep_values) or len(set(self.sweep_values)) < len(self.sweep_values):
            raise ValueError(f"sweep_values must be distinct positive values, got {self.sweep_values!r}")
        if not self.spacings or any(s <= 0 for s in self.spacings):
            raise ValueError("spacings must be a nonempty list of positive values")
        _worker_angles(self)  # the alias geometry must be feasible
        if self.sweep_axis != "none":
            if not self.sweep_values:
                raise ValueError(f"sweep_values must list the values of sweep_axis={self.sweep_axis!r}, got none")
            for value in self.sweep_values:
                sweep_config(self, self.sweep_axis, value)

    def train_config(self, algorithm: str) -> ExperimentConfig:
        """This config narrowed to one algorithm; only perfbench/workloads.py calls it."""
        return replace(self, algorithms=(algorithm,))


_POSITIVE_KEYS = ("alpha", "B", "tau", "K", "eval_every", "J", "ris_rows", "ris_cols", "n_scatterers",
                  "wavelength", "bandwidth", "tx_power", "noise_psd")
_LIST_KEYS = {"algorithms": str, "seeds": int, "spacings": float, "sweep_values": float}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _check_numbers(config: ExperimentConfig) -> None:
    """Reject non-finite values of float keys and non-integers in int keys."""
    for key, ftype in _FIELD_TYPES.items():
        kind = _LIST_KEYS.get(key) or {"int": int, "float": float}.get(ftype)
        values = getattr(config, key) if key in _LIST_KEYS else (getattr(config, key),)
        for v in values:
            if kind is float and not math.isfinite(v):
                raise ValueError(f"{key} must be finite, got {v!r}")
            if kind is int and not isinstance(v, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {v!r}")


def _parse_value(key: str, text: str):
    if key in _LIST_KEYS:
        conv = _LIST_KEYS[key]
        items = [s.strip() for s in text.split(",") if s.strip()]
        return tuple(conv(s) for s in items)
    ftype = _FIELD_TYPES[key]
    if ftype == "int":
        return int(text)
    if ftype == "float":
        return float(text)
    return text


def _format_value(value) -> str:
    """Text of a setting or CSV cell.  A float is written as the repr of a
    Python float, which round-trips exactly; numpy's own scalar repr
    carries a type prefix.  A tuple or list is comma-joined."""
    if type(value) is float:  # most cells of a dataset file
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(map(_format_value, value))
    if isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows``, every cell through :func:`_format_value`.

    The file is line buffered: each row reaches it as soon as it is written,
    so the rows of a long computation survive an interruption.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", buffering=1) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(_format_value, row)) + "\n")


def split_setting(text: str, where: str) -> tuple[str, str]:
    """Key and value of one ``key = value`` item, both stripped; an item
    without '=' is refused, named by ``where``."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"{where}: expected 'key = value', got {text!r}")
    return key.strip(), value.strip()


def read_settings(path: str) -> dict[str, str]:
    """The ``key = value`` lines of a text file, in file order.  '#' starts a
    comment and blank lines are skipped; a line without '=' is refused with
    ``path:lineno``."""
    settings = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = split_setting(line, f"{path}:{lineno}")
                settings[key] = value
    return settings


def format_settings(settings: dict) -> str:
    """One ``key = value`` line per item, every value through :func:`_format_value`."""
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in settings.items())


def apply_overrides(config: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Parse ``key = value`` settings and apply them on top of a config."""
    parsed = {}
    for key, text in overrides.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        try:
            parsed[key] = _parse_value(key, text)
        except ValueError as exc:
            raise ValueError(f"invalid value for {key!r}: {exc}") from exc
    return replace(config, **parsed)


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
    rate = _rate_params(config)
    profiles = []
    for w, (rx_az, tx_az, rx_el) in enumerate(_worker_angles(config)):
        spacing = config.spacings[w % len(config.spacings)]
        rng = fed.substream(config.profile_seed, w)
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


def _rate_params(config: ExperimentConfig) -> RateParams:
    return RateParams(bandwidth=config.bandwidth, tx_power=config.tx_power, noise_psd=config.noise_psd)


def _draw_split(config: ExperimentConfig, profile: WorkerProfile, dataset_seed: int,
                key: int) -> tuple[Dataset, Dataset]:
    """One worker's J samples from substream (dataset_seed, key), split into
    train and test by the same generator."""
    rng = fed.substream(dataset_seed, key)
    return split(gen_dataset(profile, config.J, rng), config.train_fraction, rng)


def generate_data(config: ExperimentConfig,
                  dataset_seed: int | None = None) -> tuple[list[Dataset], list[Dataset], list[WorkerProfile]]:
    """Synthesize and split every worker's dataset for one data draw."""
    profiles = build_profiles(config)
    seed = config.dataset_seed if dataset_seed is None else dataset_seed
    train_sets, test_sets = zip(*(_draw_split(config, p, seed, p.worker_id) for p in profiles))
    return list(train_sets), list(test_sets), profiles


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


def run_grid(config: ExperimentConfig,
             data: SeedDataCache | None = None) -> Iterator[tuple[tuple[str, int], RunResult]]:
    """Run every (algorithm, seed) pair of ``config`` and yield
    ``((algorithm, seed), result)`` in canonical order: algorithm, then seed.

    Run seed s trains on data draw dataset_seed + s (shared across the
    algorithms, so per-seed comparisons stay paired).  Every run of
    :func:`run_experiment` and :func:`run_sweep` is made here.  A run draws
    only from its own (seed, purpose, worker, round) substreams, so the
    order in which runs execute does not change them.
    """
    cache = data if data is not None else SeedDataCache(config)
    for alg in config.algorithms:
        for seed in config.seeds:
            yield (alg, seed), fed.RUNNERS[alg](config, *cache.for_seed(seed), seed=seed, eval_every=config.eval_every)


# the leading columns of runs.csv; per-worker accuracy and lambda columns follow
RUNS_COLUMNS = ("algorithm", "seed", "round", "comm_rounds", "avg_acc", "worst_acc", "acc_sd")


def run_experiment(config: ExperimentConfig,
                   data: SeedDataCache | None = None) -> ExperimentResult:
    """Run the :func:`run_grid` of ``config`` and write ``runs.csv`` and
    ``summary.csv``.

    Each run's per-round rows are written as the run finishes, in canonical
    (algorithm, seed, round) order, so the rows of finished runs survive an
    interruption.  The x-axis column ``comm_rounds`` counts communication
    exchanges (DRFA advances by two per round).
    """
    runs: dict[tuple[str, int], RunResult] = {}

    def rows():
        for key, result in run_grid(config, data):
            runs[key] = result
            for log in result.round_logs:
                yield (result.algorithm, result.seed, log.round, log.communication_rounds_consumed, log.avg_acc,
                       log.worst_acc, log.acc_sd, *log.per_worker_acc, *log.lam)

    csv_path = os.path.join(config.out_dir, "runs.csv")
    write_csv(csv_path, [*RUNS_COLUMNS, *[f"acc_w{i}" for i in range(config.N)],
                         *[f"lambda_{i}" for i in range(config.N)]], rows())
    summary = summarize_runs(runs, config.algorithms, config.seeds)
    write_csv(os.path.join(config.out_dir, "summary.csv"),
              ["algorithm", "avg_acc_mean", "avg_acc_se", "worst_acc_mean", "worst_acc_se", "acc_sd_mean",
               "comm_rounds"],
              [astuple(s) for s in summary.per_algorithm.values()])
    return ExperimentResult(runs=runs, summary=summary, csv_path=csv_path)


@dataclass(frozen=True)
class SweepCell:
    """One sweep-table entry: an algorithm's final-round summary with the
    swept key set to ``value``."""

    axis: str
    value: float
    summary: AlgorithmSummary

    @property
    def cell(self) -> str:
        return f"{self.summary.avg_acc_mean:.2f}/{self.summary.worst_acc_mean:.2f}"


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
    if config.sweep_axis == "none":
        raise ValueError("sweep_axis must name the key to sweep, got 'none'")
    cache = data if data is not None else SeedDataCache(config)
    cells = []
    for value in config.sweep_values:
        cfg_v = sweep_config(config, config.sweep_axis, value)
        summary = summarize_runs(dict(run_grid(cfg_v, cache)), cfg_v.algorithms, cfg_v.seeds)
        cells += [SweepCell(config.sweep_axis, value, s) for s in summary.per_algorithm.values()]
    write_csv(os.path.join(config.out_dir, "sweep.csv"),
              ["axis", "value", "algorithm", "avg_acc_mean", "avg_acc_se", "worst_acc_mean", "worst_acc_se", "cell"],
              # the summary's first five fields: algorithm and the four accuracy statistics
              [(c.axis, c.value, *astuple(c.summary)[:5], c.cell) for c in cells])
    return cells


def emit_plot_data(run_csv: str, out_dir: str) -> list[str]:
    """Collapse a runs.csv into three plot-ready series files.

    For each of the three figure metrics (average accuracy, worst
    distribution accuracy, accuracy sd) one CSV is written with a row per
    (algorithm, round): the seed mean and the one-standard-error band
    half-width, against both round and communication-round axes.  A file
    whose header lacks a :data:`RUNS_COLUMNS` column is refused, naming the
    file and the column.
    """
    with open(run_csv) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    col = {name: i for i, name in enumerate(header)}
    missing = [name for name in RUNS_COLUMNS if name not in col]
    if missing:
        raise ValueError(f"{run_csv}: not a runs file: its header has no {missing[0]!r} column")
    paths = []
    for metric, fname in (("avg_acc", "fig_avg.csv"), ("worst_acc", "fig_worst.csv"), ("acc_sd", "fig_sd.csv")):
        series: dict[tuple[str, int], list[float]] = {}
        comm: dict[tuple[str, int], int] = {}
        for r in rows:
            key = (r[col["algorithm"]], int(r[col["round"]]))
            series.setdefault(key, []).append(float(r[col[metric]]))
            comm[key] = int(r[col["comm_rounds"]])
        path = os.path.join(out_dir, fname)
        write_csv(path, ["algorithm", "round", "comm_rounds", "mean", "se"],
                  [(*key, comm[key], np.mean(series[key]), _standard_error(np.array(series[key])))
                   for key in sorted(series)])
        paths.append(path)
    return paths


DATASET_FORMAT_VERSION = "risfed-dataset-v1"
_DATASET_COLUMNS = [f"f{i:03d}" for i in range(FEATURE_DIM)] + ["label", "rate"]
_DATASET_META_KEYS = ("worker_id", "num_samples", "scaler_mean", "scaler_sd")


def save_dataset(ds: Dataset, stem: str, extra_meta: dict | None = None) -> tuple[str, str]:
    """Write ``<stem>.csv`` plus a ``<stem>.meta`` header file.

    CSV: header row, then one row per sample: f000..f399 (floats, shortest
    round-trip decimal), label (int), rate (float, diagnostic).  Meta file:
    ``key = value`` lines with the format version, worker id, sample count
    and the standardization vectors (empty when the dataset is unscaled),
    then ``extra_meta``.
    """
    csv_path, meta_path = stem + ".csv", stem + ".meta"
    write_csv(csv_path, _DATASET_COLUMNS,
              ([*f, label, r] for f, label, r in zip(ds.features.tolist(), ds.labels.tolist(), ds.rates.tolist())))
    meta = {
        "format": DATASET_FORMAT_VERSION,
        "worker_id": ds.worker_id,
        "num_samples": len(ds),
        "scaler_mean": ds.scaler.mean.tolist() if ds.scaler else (),
        "scaler_sd": ds.scaler.sd.tolist() if ds.scaler else (),
        **(extra_meta or {}),
    }
    with open(meta_path, "w") as f:
        f.write(format_settings(meta))
    return csv_path, meta_path


def load_dataset(stem: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    A wrong format version, a missing meta key, a header other than
    f000..f399,label,rate, a row count other than ``num_samples`` or a
    scaler vector of other than 400 values is refused, naming the file.
    """
    csv_path, meta_path = stem + ".csv", stem + ".meta"
    meta = read_settings(meta_path)
    if meta.get("format") != DATASET_FORMAT_VERSION:
        raise ValueError(f"{meta_path}: unsupported dataset format: {meta.get('format')!r}")
    missing = [key for key in _DATASET_META_KEYS if key not in meta]
    if missing:
        raise ValueError(f"{meta_path}: missing {', '.join(missing)}")
    try:
        worker_id, n = int(meta["worker_id"]), int(meta["num_samples"])
        mean, sd = ([float(x) for x in meta[key].split(",") if x] for key in ("scaler_mean", "scaler_sd"))
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from exc
    if (mean or sd) and not len(mean) == len(sd) == FEATURE_DIM:
        raise ValueError(f"{meta_path}: scaler_mean and scaler_sd need {FEATURE_DIM} values each, "
                         f"got {len(mean)} and {len(sd)}")
    with open(csv_path) as f:
        header, *rows = f.read().splitlines() or [""]
    if header.split(",") != _DATASET_COLUMNS:
        raise ValueError(f"{csv_path}: header is not f000..f{FEATURE_DIM - 1},label,rate")
    if len(rows) != n:
        raise ValueError(f"{csv_path}: {len(rows)} rows, but num_samples = {n}")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from exc
    return Dataset(
        worker_id=worker_id,
        features=data[:, :FEATURE_DIM],
        labels=data[:, FEATURE_DIM].astype(np.int64),
        rates=data[:, FEATURE_DIM + 1],
        scaler=FeatureScaler(mean=np.array(mean), sd=np.array(sd)) if mean else None,
    )


def export_datasets(config: ExperimentConfig, out_dir: str) -> list[str]:
    """Write every worker's train/test split with :func:`save_dataset`."""
    train_sets, test_sets, profiles = generate_data(config)
    written = []
    for profile, train, test in zip(profiles, train_sets, test_sets):
        meta = {
            "dataset_seed": config.dataset_seed,
            "profile_seed": config.profile_seed,
            "element_spacing_m": profile.geometry.element_spacing,
            "carrier_wavelength_m": profile.geometry.carrier_wavelength,
        }
        for name, ds in (("train", train), ("test", test)):
            stem = os.path.join(out_dir, f"worker{profile.worker_id}_{name}")
            save_dataset(ds, stem, extra_meta=meta)
            written.append(stem + ".csv")
    return written


def write_diagnostics_csv(trace: diagnostics.ConvergenceTrace, bound: float, path: str) -> None:
    """Emit (t, grad_norm_sq, running_mean, bound) rows with a header."""
    rm = diagnostics.running_mean_trace(trace)
    write_csv(path, ["t", "grad_norm_sq", "running_mean", "bound"],
              [(int(t), g, r, bound) for t, g, r in zip(trace.t, trace.grad_norm_sq, rm.grad_norm_sq)])


def schedule_matched_trace(base: ExperimentConfig, est: diagnostics.TheoryEstimates, train_sets: list[Dataset],
                           test_sets: list[Dataset], K: int,
                           seed: int) -> tuple[int, diagnostics.ConvergenceTrace, float]:
    """An fgdra run of K rounds under :func:`diagnostics.prescribed_schedule`
    for ``est`` (every other setting from ``base``), evaluated at its last
    round only.

    Returns T (the iteration count), the weighted gradient-norm trace at the
    :func:`diagnostics.round_checkpoints` of K, and the theorem bound at T.
    """
    sched = diagnostics.prescribed_schedule(base, K, est)
    ckpts = diagnostics.round_checkpoints(K)
    result = fed.RUNNERS["fgdra"](sched, train_sets, test_sets, seed=seed, eval_every=K,
                                  checkpoint_rounds=set(ckpts))
    T = sched.K * sched.tau
    return T, diagnostics.grad_norm_trace(result, train_sets, ckpts), diagnostics.theorem_bound(est, sched.m, T)


THEORY_KS = (50, 100, 200, 400, 800)
THEORY_STREAM = 3  # substream key of the convergence-check worker's scatterers and data


def theory_worker_data(config: ExperimentConfig, dataset_seed: int) -> tuple[list[Dataset], list[Dataset]]:
    """Single well-conditioned worker for the convergence-rate check: a
    full-wavelength array at a small azimuth with distant scatterers, which
    trains to interpolation under the rate-matched schedule."""
    rng = fed.substream(config.profile_seed, THEORY_STREAM)
    geom = make_worker_geometry(
        config.ris_rows, config.ris_cols, config.wavelength, config.wavelength,
        tx=Placement(TX_DISTANCE_M, math.radians(-25.0), 0.0),
        rx=Placement(RX_DISTANCE_M, math.radians(14.0), math.radians(2.0)),
        n_scatterers=config.n_scatterers, rng=rng,
        extra_travel_lo=0.25, extra_travel_hi=0.5,
    )
    train, test = _draw_split(config, WorkerProfile(0, geom, _rate_params(config)), dataset_seed, THEORY_STREAM)
    return [train], [test]


def theory_check(config: ExperimentConfig, n_probes: int) -> list[dict]:
    """Rate-matched single-worker runs over the K-sweep ``THEORY_KS``, one
    per seed of ``config.seeds`` and K.

    Seed s trains on :func:`theory_worker_data` drawn from dataset_seed + s,
    through :func:`schedule_matched_trace` with constants estimated from
    ``n_probes`` probes.  One record per (seed, K) holds seed, K, T (the
    iteration count), the final iteration-weighted running mean of the
    squared gradient norm and the theorem bound.

    The check overrides N and m (the one worker, N = m = 1) and K, tau,
    alpha and gamma (the rate-matched schedule).  It ignores algorithms,
    eval_every and the sweep keys.  Every other setting (B, J,
    train_fraction, the two seeds, the geometry) comes from ``config``.
    """
    base = replace(config, N=1, m=1, sweep_axis="none", sweep_values=())
    records = []
    for s in config.seeds:
        train_sets, test_sets = theory_worker_data(config, config.dataset_seed + s)
        est = diagnostics.estimate_constants(
            train_sets, n_probes=n_probes, rng=np.random.default_rng(1000 + s),
            batch_size=config.B, pair_scale=1e-3,
        )
        for K in THEORY_KS:
            T, trace, bound = schedule_matched_trace(base, est, train_sets, test_sets, K, s)
            records.append({
                "seed": s, "K": K, "T": T,
                "running_mean": float(diagnostics.running_mean_trace(trace).grad_norm_sq[-1]),
                "bound": bound,
            })
    return records


def theory_decay_slope(records: list[dict]) -> float:
    """Log-log slope of the seed-mean final running average against T."""
    by_T: dict[int, list[float]] = {}
    for r in records:
        by_T.setdefault(r["T"], []).append(r["running_mean"])
    Ts = np.array(sorted(by_T))
    return diagnostics.fit_loglog_slope(Ts, np.array([np.mean(by_T[T]) for T in Ts]))
