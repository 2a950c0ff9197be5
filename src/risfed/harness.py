"""Experiment orchestration: configs, data generation, multi-seed runs,
hyperparameter sweeps, and every text format risfed reads or writes.

Config files, ``--set`` items and dataset ``.meta`` files are flat
``key = value`` text, read by :func:`read_settings` ('#' at the start of a
line or after whitespace starts a comment) and written by
:func:`format_settings`; every table, datasets included, is written through
:func:`csv_writer`.  :func:`run_rows` is the one runs.csv row
layout, where each round's statistics over workers are computed from the
accuracies a run logged, and :func:`seed_series` the one mean over seeds:
summary.csv, sweep.csv and the fig_*.csv series all read it, and
:func:`run_experiment` writes the fig_*.csv series next to summary.csv.

Every config key is optional; omitted keys fall back to the default
experiment: four heterogeneous workers, one per RIS design of ``spacings``
(element spacings of 1/8 to 1 wavelength), trained with alpha=2e-3,
gamma=5e-3, B=50, tau=10, m=3 for K=800 rounds over five seeds.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import fed, metrics
from .channel import CARRIER_WAVELENGTH_M, RIS_COLS, RIS_ROWS, Placement, make_worker_geometry
from .fed import RunResult
from .labeling import (FEATURE_DIM, NUM_CLASSES, Dataset, FeatureScaler, RateParams, WorkerProfile, gen_dataset,
                       split, train_count)

# Anchor geometry of the default heterogeneity profile.  Worker 0's RX sits
# past broadside (azimuth > 90 deg), which reverses the sweep direction of
# its codebook fan.  The other workers' azimuths are chosen so that
# spacing * sin(angle) lands a fixed offset above worker 0's value, so their
# standardized features occupy the same phase-ramp band.  Trained alone, the
# workers' models transfer in two clusters, {0, 3} and {1, 2}, and worker
# 0's is anti-aligned with worker 2's.  Uniform loss weighting leaves worker
# 0 the worst worker (fedavg's, at every seed 0-9), which is the regime the
# robust algorithms are meant to fix.
ANCHOR_RX_AZIMUTH_DEG = 110.0
ANCHOR_TX_AZIMUTH_DEG = -20.0
ANCHOR_RX_ELEVATION_DEG = 4.0
ALIAS_RAMP_OFFSET = 0.02  # cycles per element column
TX_DISTANCE_M = 30.0
RX_DISTANCE_M = 20.0
# The array, the carrier and the scatterers' cone and travel are channel's constants.
# The link budget is fixed.  It cannot change a label, the argmax over
# codewords of a rate that grows with |cascade|^2, nor a standardized
# feature; it sets only the diagnostic rate column.
LINK = RateParams(bandwidth=1e7, tx_power=0.5, noise_psd=4e-21)
# The workers' scatterer constellations are drawn once from this seed and stay fixed.
PROFILE_SEED = 7


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description, read directly by the fed runners; field
    names double as config-file keys.  Each setting is defaulted here and
    checked in ``__post_init__``, nowhere else."""

    algorithms: tuple[str, ...] = ("fgdra", "drfa", "fedavg")
    alpha: float = 2e-3
    gamma: float = 5e-3
    B: int = 50
    tau: int = 10
    m: int = 3
    K: int = 800
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    eval_every: int = 10
    J: int = 2500
    dataset_seed: int = 20240
    spacings: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0)  # one worker per RIS design, in wavelengths
    out_dir: str = "out"

    @property
    def N(self) -> int:
        """The number of workers: one per entry of ``spacings``."""
        return len(self.spacings)

    def __post_init__(self) -> None:
        _check_numbers(self)
        # the fleet first: N, which bounds m, is its size
        if not self.spacings or not all(s * CARRIER_WAVELENGTH_M > 0
                                        and math.isfinite(2 * math.pi * s * (RIS_ROWS + RIS_COLS))
                                        for s in self.spacings):
            raise ValueError(f"spacings must be a nonempty list of values that stay > 0 in meters (times the "
                             f"{CARRIER_WAVELENGTH_M} m carrier wavelength) and keep every steering phase, at "
                             f"most 2 pi x spacing x {RIS_ROWS + RIS_COLS}, finite; got {self.spacings!r}")
        _worker_angles(self)  # the alias geometry must be feasible
        if not 1 <= self.m <= self.N:
            raise ValueError(f"need 1 <= m <= N = len(spacings) = {self.N}, got m={self.m}")
        for key in _POSITIVE_KEYS:
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)!r}")
        # gamma = 0 freezes lambda; the FedAvg-reduction checks rely on it
        for key in ("gamma", "dataset_seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)!r}")
        if not self.seeds or any(s < 0 for s in self.seeds) or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be a nonempty list of distinct nonnegative ints, got {self.seeds!r}")
        if (not self.algorithms or len(set(self.algorithms)) < len(self.algorithms)
                or not set(self.algorithms) <= set(fed.ALGORITHMS)):
            raise ValueError(f"algorithms must be a nonempty list of distinct names from {fed.ALGORITHMS}, "
                             f"got {self.algorithms!r}")
        train_count(self.J)  # raises unless both splits are nonempty
        if not self.out_dir:
            raise ValueError(f"out_dir must be a nonempty path, got {self.out_dir!r}")

    def train_config(self, algorithm: str) -> ExperimentConfig:
        """This config narrowed to one algorithm; only perfbench/workloads.py calls it."""
        return replace(self, algorithms=(algorithm,))


_POSITIVE_KEYS = ("alpha", "B", "tau", "K", "eval_every", "J")
_LIST_KEYS = {"algorithms": str, "seeds": int, "spacings": float}
_KINDS = {f.name: _LIST_KEYS.get(f.name) or {"int": int, "float": float, "str": str}[f.type]
          for f in fields(ExperimentConfig)}
_COMMENT = re.compile(r"(?:^|\s)#")  # '#' at the start of a text or after whitespace starts a comment


def _check_numbers(config: ExperimentConfig) -> None:
    """Reject non-finite values of float keys and non-integers in int keys."""
    for key, kind in _KINDS.items():
        values = getattr(config, key) if key in _LIST_KEYS else (getattr(config, key),)
        for v in values:
            if kind is float and not math.isfinite(v):
                raise ValueError(f"{key} must be finite, got {v!r}")
            if kind is int and not isinstance(v, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {v!r}")


def _parse_value(key: str, text: str):
    if key in _LIST_KEYS:  # blank text is the empty list, which the config refuses by name
        items = [s.strip() for s in text.split(",")] if text.strip() else []
        if "" in items:
            raise ValueError(f"empty item in {text!r}")
        return tuple(map(_KINDS[key], items))
    return _KINDS[key](text)


def _format_value(value) -> str:
    """Text of a setting or CSV row: a tuple or list is the comma-joined
    ``str`` of its items, and anything else is its ``str``.  The ``str`` of a
    Python or numpy float is its shortest decimal that round-trips exactly."""
    if isinstance(value, (tuple, list)):
        return ",".join(map(str, value))
    return str(value)


@contextlib.contextmanager
def csv_writer(path: str, header: Sequence[str]) -> Iterator[Callable[[Iterable[Sequence]], None]]:
    """Make the directory of ``path``, open it, write ``header``, and yield a
    function that writes rows, each a tuple or list through :func:`_format_value`.

    The file is line buffered: each row reaches it as soon as it is written,
    so the rows of a long computation survive an interruption.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", buffering=1) as f:
        f.write(",".join(header) + "\n")
        yield lambda rows: f.writelines(_format_value(row) + "\n" for row in rows)


def split_setting(text: str, where: str) -> tuple[str, str]:
    """Key and value of one ``key = value`` item, both stripped; an item
    without '=' is refused, named by ``where``."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"{where}: expected 'key = value', got {text!r}")
    return key.strip(), value.strip()


def read_settings(path: str) -> dict[str, str]:
    """The ``key = value`` lines of a text file, in file order.  '#' at the
    start of a line or after whitespace starts a comment, so a value such as
    ``runs#1`` reads as ``--set`` gives it; blank lines are skipped.  A line
    without '=', or one that repeats an earlier line's key, is refused with
    ``path:lineno``."""
    settings = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = _COMMENT.split(line, maxsplit=1)[0].strip()
            if line:
                key, value = split_setting(line, f"{path}:{lineno}")
                if key in settings:
                    raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
                settings[key] = value
    return settings


def format_settings(settings: dict) -> str:
    """One ``key = value`` line per item, every value through :func:`_format_value`.
    A value that :func:`read_settings` would read back otherwise is refused,
    naming its key: one whose text holds a line break or a comment, or has
    leading or trailing whitespace."""
    lines = []
    for key, value in settings.items():
        text = _format_value(value)
        if "\n" in text or "\r" in text or _COMMENT.search(text) or text != text.strip():
            raise ValueError(f"{key}: the value {text!r} would not read back as written")
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def apply_overrides(config: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Parse ``key = value`` settings and apply them on top of a config."""
    parsed = {}
    for key, text in overrides.items():
        if key not in _KINDS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            parsed[key] = _parse_value(key, text)
        except ValueError as exc:
            raise ValueError(f"invalid value for {key!r}: {exc}") from exc
    return replace(config, **parsed)


def _worker_angles(config: ExperimentConfig) -> list[tuple[float, float, float]]:
    """(RX azimuth, TX azimuth, RX elevation) of every worker, in radians;
    worker w has spacing ``spacings[w]``.

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
    for w, spacing in enumerate(config.spacings[1:], start=1):
        sin_rx = (s_rx + ALIAS_RAMP_OFFSET) / spacing
        if sin_rx > 1.0:
            raise ValueError(
                f"spacings {config.spacings}: worker {w} (spacing {spacing!r}) cannot be phase-ramp matched "
                f"to worker 0 (sin of its RX azimuth would be {sin_rx:.4f})")
        angles.append((math.asin(sin_rx), math.asin(s_tx / spacing), 0.0))
    return angles


def build_profiles(config: ExperimentConfig) -> list[WorkerProfile]:
    """Construct one worker scenario per ``spacings`` entry, deterministically.

    Worker w gets element spacing spacings[w] (in wavelengths) and the
    placement angles of :func:`_worker_angles`.  Scatterer constellations
    are drawn once per worker from :data:`PROFILE_SEED` and stay fixed.
    """
    profiles = []
    for w, (spacing, (rx_az, tx_az, rx_el)) in enumerate(zip(config.spacings, _worker_angles(config))):
        rng = fed.substream(PROFILE_SEED, w)
        tx = Placement(distance=TX_DISTANCE_M, azimuth=tx_az, elevation=0.0)
        rx = Placement(distance=RX_DISTANCE_M, azimuth=rx_az, elevation=rx_el)
        geom = make_worker_geometry(spacing * CARRIER_WAVELENGTH_M, tx, rx, rng)
        profiles.append(WorkerProfile(worker_id=w, geometry=geom, rate=LINK))
    return profiles


def generate_data(config: ExperimentConfig,
                  dataset_seed: int | None = None) -> tuple[list[Dataset], list[Dataset], list[WorkerProfile]]:
    """Synthesize and split every worker's dataset for one data draw: worker w's
    J samples come from substream (dataset_seed, w), and the same generator
    splits them into train and test."""
    profiles = build_profiles(config)
    seed = config.dataset_seed if dataset_seed is None else dataset_seed
    rngs = [fed.substream(seed, p.worker_id) for p in profiles]
    train_sets, test_sets = zip(*(split(gen_dataset(p, config.J, rng), rng) for p, rng in zip(profiles, rngs)))
    return list(train_sets), list(test_sets), profiles


class SeedDataCache:
    """Per-run-seed data draws: run seed s uses dataset_seed + s.

    Each of the five runs behind a reported mean sees a fresh draw of every
    worker's dataset, so run-to-run spread reflects data variability as well
    as training stochasticity.  Draws are cached for reuse across
    algorithms.
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

    @property
    def cell(self) -> str:
        """The sweep table's two-decimal "average/worst" percent pair."""
        return f"{self.avg_acc_mean:.2f}/{self.worst_acc_mean:.2f}"


@dataclass
class RunSummary:
    per_algorithm: dict[str, AlgorithmSummary]


@dataclass
class ExperimentResult:
    runs: dict[tuple[str, int], RunResult]
    summary: RunSummary
    csv_path: str


# the leading columns of runs.csv; per-worker accuracy and lambda columns follow
RUNS_COLUMNS = ("algorithm", "seed", "round", "comm_rounds", "avg_acc", "worst_acc", "acc_sd")
SERIES_METRICS = RUNS_COLUMNS[4:]  # the metrics that seed_series averages over seeds
FIGURE_FILES = ("fig_avg.csv", "fig_worst.csv", "fig_sd.csv")  # one per metric of SERIES_METRICS
SeedSeries = dict[tuple[str, int], tuple[int, dict[str, tuple[float, float]]]]  # see seed_series


def seed_series(rows: Iterable[Sequence]) -> SeedSeries:
    """The one mean over seeds: for each (algorithm, round) of ``rows``, in row
    order, ``(comm_rounds, {metric: (mean, standard error)})`` over its seeds,
    for each of :data:`SERIES_METRICS`.  Each row begins with the
    :data:`RUNS_COLUMNS` fields, and no (algorithm, seed, round) repeats: the
    config refuses a repeated seed or algorithm."""
    groups = {}  # (algorithm, round) -> (comm_rounds, [metric values of each seed])
    for alg, _, rnd, comm, *values in rows:
        groups.setdefault((alg, rnd), (comm, []))[1].append(values[:len(SERIES_METRICS)])
    series = {}
    for key, (comm, per_seed) in groups.items():
        stats = {}
        for metric, column in zip(SERIES_METRICS, map(np.array, zip(*per_seed))):
            se = np.std(column, ddof=1) / math.sqrt(len(column)) if len(column) > 1 else 0.0
            stats[metric] = (float(column.mean()), float(se))
        series[key] = (comm, stats)
    return series


def summarize_runs(series: SeedSeries) -> RunSummary:
    """Each algorithm's last round of a :func:`seed_series`."""
    finals = {alg: point for (alg, _), point in series.items()}  # the last round stays
    return RunSummary({alg: AlgorithmSummary(alg, *stats["avg_acc"], *stats["worst_acc"], stats["acc_sd"][0], comm)
                       for alg, (comm, stats) in finals.items()})


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


def run_rows(result: RunResult) -> Iterator[tuple]:
    """One run's runs.csv rows, one per logged round: the :data:`RUNS_COLUMNS`
    fields (avg_acc, worst_acc and acc_sd computed here from the round's
    per-worker accuracies), those accuracies, then lambda after that round."""
    for log in result.round_logs:
        yield (result.algorithm, result.seed, log.round, log.communication_rounds_consumed,
               *metrics.summarize_accuracy(log.per_worker_acc), *log.per_worker_acc,
               *result.lambda_history[log.round])


def run_experiment(config: ExperimentConfig,
                   data: SeedDataCache | None = None) -> ExperimentResult:
    """Run the :func:`run_grid` of ``config`` and write ``runs.csv``,
    ``summary.csv`` and the figure series ``fig_avg.csv``, ``fig_worst.csv``
    and ``fig_sd.csv``.

    Each run's :func:`run_rows` are written as the run finishes, in canonical
    (algorithm, seed, round) order, so the rows of finished runs survive an
    interruption.  The other four files, removed before the first run so that
    an interrupted rerun leaves none of an earlier run's beside its partial
    ``runs.csv``, are written from the one
    :func:`seed_series` of those rows once every run has finished:
    ``summary.csv`` holds each algorithm's last round, and each figure file
    one metric of :data:`SERIES_METRICS`, its seed mean and standard error
    against the round and comm-round axes, sorted by (algorithm, round).
    The x-axis column ``comm_rounds`` counts communication exchanges (DRFA:
    two per round).
    """
    csv_path = os.path.join(config.out_dir, "runs.csv")
    runs: dict[tuple[str, int], RunResult] = {}
    with csv_writer(csv_path, [*RUNS_COLUMNS, *[f"acc_w{i}" for i in range(config.N)],
                               *[f"lambda_{i}" for i in range(config.N)]]) as write:
        for name in ("summary.csv", *FIGURE_FILES):  # runs.csv is open, so out_dir exists
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(config.out_dir, name))
        for key, result in run_grid(config, data):
            runs[key] = result
            write(run_rows(result))
    series = seed_series(row for result in runs.values() for row in run_rows(result))
    summary = summarize_runs(series)
    with csv_writer(os.path.join(config.out_dir, "summary.csv"),
                    ["algorithm", "avg_acc_mean", "avg_acc_se", "worst_acc_mean", "worst_acc_se", "acc_sd_mean",
                     "comm_rounds"]) as write:
        write(astuple(s) for s in summary.per_algorithm.values())
    points = sorted(series.items())
    for metric, name in zip(SERIES_METRICS, FIGURE_FILES):
        with csv_writer(os.path.join(config.out_dir, name),
                        ["algorithm", "round", "comm_rounds", "mean", "se"]) as write:
            write((*key, comm, *stats[metric]) for key, (comm, stats) in points)
    return ExperimentResult(runs=runs, summary=summary, csv_path=csv_path)


def sweep_configs(config: ExperimentConfig, item: str) -> tuple[str, list[ExperimentConfig]]:
    """The key of a ``KEY=V1,V2,...`` sweep item, any config key that holds one number, and one config per
    value, each parsed, typed and validated as ``--set KEY=V`` would be; a duplicate value is refused too."""
    axis, text = split_setting(item, "sweep")
    numbers = [key for key, kind in _KINDS.items() if kind is not str and key not in _LIST_KEYS]
    if axis not in numbers:
        raise ValueError(f"sweep: the key must be a config key that holds one number "
                         f"({', '.join(numbers)}), got {axis!r}")
    cell_configs = [apply_overrides(config, {axis: value.strip()}) for value in text.split(",")]
    if len({getattr(c, axis) for c in cell_configs}) < len(cell_configs):
        raise ValueError(f"sweep: {axis} values must be distinct, got {text!r}")
    return axis, cell_configs


def run_sweep(axis: str, cell_configs: Sequence[ExperimentConfig]) -> list[tuple[int | float, AlgorithmSummary]]:
    """Evaluate every (cell config, algorithm) pair of a :func:`sweep_configs` sweep,
    each cell a :func:`run_grid` of its own config on its own data draws.

    Returns ``(value of axis, final-round summary)`` per pair and writes one
    CSV row per pair, ending in its :attr:`AlgorithmSummary.cell`, to
    ``sweep.csv`` in the cells' ``out_dir``, each cell's rows as the cell
    finishes, so finished cells survive an interruption.
    """
    cells = []
    with csv_writer(os.path.join(cell_configs[0].out_dir, "sweep.csv"),
                    ["axis", "value", "algorithm", "avg_acc_mean", "avg_acc_se", "worst_acc_mean", "worst_acc_se",
                     "cell"]) as write:
        for cfg_v in cell_configs:
            summary = summarize_runs(seed_series(row for _, result in run_grid(cfg_v) for row in run_rows(result)))
            value = getattr(cfg_v, axis)
            cells += ((value, s) for s in summary.per_algorithm.values())
            # the summary's first five fields: algorithm and the four accuracy statistics
            write((axis, value, *astuple(s)[:5], s.cell) for s in summary.per_algorithm.values())
    return cells


DATASET_FORMAT_VERSION = "risfed-dataset-v1"
_DATASET_COLUMNS = [f"f{i:03d}" for i in range(FEATURE_DIM)] + ["label", "rate"]
_DATASET_META_KEYS = ("worker_id", "num_samples", "scaler_mean", "scaler_sd")


def save_dataset(ds: Dataset, stem: str, extra_meta: dict) -> tuple[str, str]:
    """Write ``<stem>.csv`` plus a ``<stem>.meta`` header file.

    CSV: header row, then one row per sample: f000..f399 (floats, shortest
    round-trip decimal), label (int), rate (float, diagnostic).  Meta file:
    ``key = value`` lines with the format version, worker id, sample count
    and the standardization vectors (empty when the dataset is unscaled),
    then ``extra_meta``.
    """
    csv_path, meta_path = stem + ".csv", stem + ".meta"
    with csv_writer(csv_path, _DATASET_COLUMNS) as write:
        write([*f, label, r] for f, label, r in zip(ds.features.tolist(), ds.labels.tolist(), ds.rates.tolist()))
    meta = {
        "format": DATASET_FORMAT_VERSION,
        "worker_id": ds.worker_id,
        "num_samples": len(ds),
        "scaler_mean": ds.scaler.mean.tolist() if ds.scaler else (),
        "scaler_sd": ds.scaler.sd.tolist() if ds.scaler else (),
        **extra_meta,
    }
    with open(meta_path, "w") as f:
        f.write(format_settings(meta))
    return csv_path, meta_path


def load_dataset(stem: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    A wrong format version, a missing meta key, a ``num_samples`` below 1,
    a header other than f000..f399,label,rate, a row count other than
    ``num_samples``, a row of other than the header's 402 cells, a scaler
    vector of other than 400 values, a non-finite scaler value, a scaler
    sd <= 0, a negative worker id, a label other than an integer in 0..3
    or a non-finite feature or rate is refused, naming the file.
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
    if not np.isfinite([*mean, *sd]).all():
        raise ValueError(f"{meta_path}: a scaler_mean or scaler_sd value is not finite")
    if any(x <= 0.0 for x in sd):
        raise ValueError(f"{meta_path}: a scaler_sd value is <= 0")
    if worker_id < 0:
        raise ValueError(f"{meta_path}: worker_id must be >= 0, got {worker_id}")
    if n < 1:
        raise ValueError(f"{meta_path}: num_samples must be >= 1, got {n}")
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
    if data.shape[1] != len(_DATASET_COLUMNS):
        raise ValueError(f"{csv_path}: rows have {data.shape[1]} cells, but the header has {len(_DATASET_COLUMNS)}")
    if not np.isin(data[:, FEATURE_DIM], range(NUM_CLASSES)).all():
        raise ValueError(f"{csv_path}: a label is not an integer in 0..{NUM_CLASSES - 1}")
    if not np.isfinite(data).all():
        raise ValueError(f"{csv_path}: a feature or rate is not finite")
    return Dataset(
        worker_id=worker_id,
        features=data[:, :FEATURE_DIM],
        labels=data[:, FEATURE_DIM].astype(np.int64),
        rates=data[:, FEATURE_DIM + 1],
        scaler=FeatureScaler(mean=np.array(mean), sd=np.array(sd)) if mean else None,
    )


def export_datasets(config: ExperimentConfig) -> list[str]:
    """Write every worker's train/test split to ``config.out_dir`` with :func:`save_dataset`.
    The directory is made before any synthesis, so an unusable one is refused at once."""
    os.makedirs(config.out_dir, exist_ok=True)
    train_sets, test_sets, profiles = generate_data(config)
    written = []
    for profile, train, test in zip(profiles, train_sets, test_sets):
        meta = {
            "dataset_seed": config.dataset_seed,
            "profile_seed": PROFILE_SEED,
            "element_spacing_m": profile.geometry.element_spacing,
            "carrier_wavelength_m": CARRIER_WAVELENGTH_M,
        }
        for name, ds in (("train", train), ("test", test)):
            stem = os.path.join(config.out_dir, f"worker{profile.worker_id}_{name}")
            save_dataset(ds, stem, extra_meta=meta)
            written.append(stem + ".csv")
    return written

