"""Experiment orchestration: configs, data generation, multi-seed runs,
hyperparameter sweeps, and every text format risfed reads or writes.

Config files, ``--set`` items and dataset ``.meta`` files are flat
``key = value`` text ('#' starts a comment), read by :func:`read_settings`
and written by :func:`format_settings`; every table, datasets included, is
written by :func:`write_csv`.  :func:`run_rows` is the one runs.csv row
layout, where each round's statistics over workers are computed from the
accuracies a run logged, and :func:`seed_series` the one mean over seeds:
summary.csv, sweep.csv and the fig_*.csv series all read it, and
:func:`run_experiment` writes the fig_*.csv series next to summary.csv.

Every config key is optional; omitted keys fall back to the default
experiment: four heterogeneous workers whose RIS designs differ in element
spacing (1/8 to 1 wavelength), trained with alpha=2e-3, gamma=5e-3, B=50,
tau=10, m=3 for K=800 rounds over five seeds.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import fed, metrics
from .channel import Placement, make_worker_geometry, radiation_gain
from .fed import RunResult
from .labeling import (FEATURE_DIM, NUM_CLASSES, Dataset, FeatureScaler, RateParams, WorkerProfile, gen_dataset,
                       split, train_count)

SWEEP_AXES = ("tau", "B", "m")

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
# Bound on a scatterer gain's modulus |gamma_s|: numpy's standard normal
# draws stay below 13.7 in magnitude, and a CN(0, 1) gain exceeds 14 with
# probability exp(-196).
GAIN_BOUND = 14.0


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
    out_dir: str = "out"

    def __post_init__(self) -> None:
        _check_numbers(self)
        if not 1 <= self.m <= self.N:
            raise ValueError(f"need 1 <= m <= N, got m={self.m}, N={self.N}")
        for key in _POSITIVE_KEYS:
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)!r}")
        noise = self.bandwidth * self.noise_psd  # a sample's SNR is |cascade|^2 * tx_power / noise
        if not (noise > 0 and 0 < self.tx_power / noise < math.inf):
            raise ValueError(f"tx_power / (bandwidth * noise_psd) must be a finite positive number, got "
                             f"{self.tx_power!r} / ({self.bandwidth!r} * {self.noise_psd!r})")
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
        _check_link_budget(self)
        train_count(self.J, self.train_fraction)  # raises unless both splits are nonempty
        if not self.spacings or any(s <= 0 for s in self.spacings):
            raise ValueError("spacings must be a nonempty list of positive values")
        _worker_angles(self)  # the alias geometry must be feasible
        if not self.out_dir:
            raise ValueError(f"out_dir must be a nonempty path, got {self.out_dir!r}")

    def train_config(self, algorithm: str) -> ExperimentConfig:
        """This config narrowed to one algorithm; only perfbench/workloads.py calls it."""
        return replace(self, algorithms=(algorithm,))


_POSITIVE_KEYS = ("alpha", "B", "tau", "K", "eval_every", "J", "ris_rows", "ris_cols", "n_scatterers",
                  "wavelength", "bandwidth", "tx_power", "noise_psd")
_LIST_KEYS = {"algorithms": str, "seeds": int, "spacings": float}
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


def _check_link_budget(config: ExperimentConfig) -> None:
    """Refuse a wavelength at which a rate can overflow.

    Every path amplitude is at most sqrt(G_max) * wavelength / (4 pi d_min),
    d_min being the shortest path any worker's geometry (or the theory
    worker's) can have, so |g^H diag(phi) h| is at most Q amp^2 (1 +
    GAIN_BOUND).  Its square, times tx_power and over bandwidth * noise_psd,
    must stay finite at every step of the rate expression; the test runs in
    logs, so it cannot overflow itself.
    """
    d_min = min(TX_DISTANCE_M * min(1.0, 1.0 + config.scatter_extra_lo), RX_DISTANCE_M)
    log_amp_sq = math.log(radiation_gain(0.0)) + 2.0 * (math.log(config.wavelength) - math.log(4.0 * math.pi * d_min))
    log_cascade = math.log(config.ris_rows * config.ris_cols * (1.0 + GAIN_BOUND)) + log_amp_sq
    log_tx_power = math.log(config.tx_power)
    log_factor = max(0.0, log_tx_power, log_tx_power - math.log(config.bandwidth * config.noise_psd))
    if not 2.0 * log_cascade + log_factor < math.log(sys.float_info.max):
        raise ValueError(f"wavelength={config.wavelength!r} overflows the link budget: a cascade "
                         f"|g^H diag(phi) h| of this geometry can square past the float range")


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
    comment and blank lines are skipped; a line without '=', or one that
    repeats an earlier line's key, is refused with ``path:lineno``."""
    settings = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = split_setting(line, f"{path}:{lineno}")
                if key in settings:
                    raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
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


THEORY_STREAM = 3  # substream key of the convergence-check worker's scatterers and data


def theory_worker_data(config: ExperimentConfig, dataset_seed: int) -> tuple[list[Dataset], list[Dataset]]:
    """Single well-conditioned worker for the convergence-rate check: a
    full-wavelength array at a small azimuth with distant scatterers, which
    trains to interpolation under the rate-matched schedule.  The worker fixes
    its own placements, spacing and scatter travel (0.25 to 0.5); the other
    geometry keys and the rate constants come from ``config``."""
    rng = fed.substream(config.profile_seed, THEORY_STREAM)
    geom = make_worker_geometry(
        config.ris_rows, config.ris_cols, config.wavelength, config.wavelength,
        tx=Placement(TX_DISTANCE_M, math.radians(-25.0), 0.0),
        rx=Placement(RX_DISTANCE_M, math.radians(14.0), math.radians(2.0)),
        n_scatterers=config.n_scatterers, rng=rng, cone_halfwidth=math.radians(config.scatter_cone_deg),
        extra_travel_lo=0.25, extra_travel_hi=0.5,
    )
    train, test = _draw_split(config, WorkerProfile(0, geom, _rate_params(config)), dataset_seed, THEORY_STREAM)
    return [train], [test]


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
    runs: dict[tuple[str, int], RunResult] = {}

    def rows():  # runs.csv is open, so out_dir exists
        for name in ("summary.csv", *FIGURE_FILES):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(config.out_dir, name))
        for key, result in run_grid(config, data):
            runs[key] = result
            yield from run_rows(result)

    csv_path = os.path.join(config.out_dir, "runs.csv")
    write_csv(csv_path, [*RUNS_COLUMNS, *[f"acc_w{i}" for i in range(config.N)],
                         *[f"lambda_{i}" for i in range(config.N)]], rows())
    series = seed_series(row for result in runs.values() for row in run_rows(result))
    summary = summarize_runs(series)
    write_csv(os.path.join(config.out_dir, "summary.csv"),
              ["algorithm", "avg_acc_mean", "avg_acc_se", "worst_acc_mean", "worst_acc_se", "acc_sd_mean",
               "comm_rounds"],
              [astuple(s) for s in summary.per_algorithm.values()])
    points = sorted(series.items())
    for metric, name in zip(SERIES_METRICS, FIGURE_FILES):
        write_csv(os.path.join(config.out_dir, name), ["algorithm", "round", "comm_rounds", "mean", "se"],
                  [(*key, comm, *stats[metric]) for key, (comm, stats) in points])
    return ExperimentResult(runs=runs, summary=summary, csv_path=csv_path)


def sweep_configs(config: ExperimentConfig, item: str) -> tuple[str, list[ExperimentConfig]]:
    """The key of a ``KEY=V1,V2,...`` sweep item, one of :data:`SWEEP_AXES`, and one config per value,
    each parsed, typed and validated as ``--set KEY=V`` would be; a duplicate value is refused too."""
    axis, text = split_setting(item, "sweep")
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep: the key must be one of {', '.join(SWEEP_AXES)}, got {axis!r}")
    cell_configs = [apply_overrides(config, {axis: value.strip()}) for value in text.split(",")]
    if len({getattr(c, axis) for c in cell_configs}) < len(cell_configs):
        raise ValueError(f"sweep: {axis} values must be distinct, got {text!r}")
    return axis, cell_configs


def run_sweep(config: ExperimentConfig, axis: str, cell_configs: Sequence[ExperimentConfig],
              data: SeedDataCache | None = None) -> list[tuple[int, AlgorithmSummary]]:
    """Evaluate every (cell config, algorithm) pair of a :func:`sweep_configs` sweep.

    Returns ``(value of axis, final-round summary)`` per pair and writes one
    CSV row per pair, ending in its :attr:`AlgorithmSummary.cell`, to
    ``<config.out_dir>/sweep.csv``, each cell's rows as the cell finishes, so
    finished cells survive an interruption.
    """
    cache = data if data is not None else SeedDataCache(config)
    cells = []

    def rows():
        for cfg_v in cell_configs:
            summary = summarize_runs(seed_series(row for _, result in run_grid(cfg_v, cache)
                                                 for row in run_rows(result)))
            value = getattr(cfg_v, axis)
            for s in summary.per_algorithm.values():
                cells.append((value, s))
                # the summary's first five fields: algorithm and the four accuracy statistics;
                # float(value) keeps the value text (1.0) that the sweep/sweep.csv digest pins
                yield (axis, float(value), *astuple(s)[:5], s.cell)

    write_csv(os.path.join(config.out_dir, "sweep.csv"),
              ["axis", "value", "algorithm", "avg_acc_mean", "avg_acc_se", "worst_acc_mean", "worst_acc_se", "cell"],
              rows())
    return cells


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
    f000..f399,label,rate, a row count other than ``num_samples``, a
    scaler vector of other than 400 values, a non-finite scaler value, a
    scaler sd <= 0, a negative worker id, a label other than an integer in
    0..3 or a non-finite feature or rate is refused, naming the file.
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


def export_datasets(config: ExperimentConfig, out_dir: str) -> list[str]:
    """Write every worker's train/test split with :func:`save_dataset`.
    ``out_dir`` is made before any synthesis, so an unusable one is refused at once."""
    os.makedirs(out_dir, exist_ok=True)
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

