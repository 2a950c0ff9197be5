import math
import os
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from risfed import channel, cli, diagnostics, fed, harness, labeling, metrics, mlp
from risfed.harness import ExperimentConfig, SeedDataCache, apply_overrides
from risfed.labeling import Dataset, FeatureScaler


def config_from_file(path):
    """A config file's settings over the defaults, read as the CLI reads them."""
    return apply_overrides(ExperimentConfig(), harness.read_settings(path))


def small_config(tmp_path, **kw):
    defaults = dict(K=6, J=160, eval_every=2, seeds=(0, 1), out_dir=str(tmp_path / "out"))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def constant_label_dataset(worker_id, frac_zero, n=50):
    labels = np.zeros(n, dtype=np.int64)
    labels[int(n * frac_zero):] = 1
    return Dataset(worker_id=worker_id, features=np.zeros((n, 400)),
                   labels=labels, rates=np.zeros(n))


def zero_model():
    return np.zeros(mlp.PARAM_COUNT)


def test_per_worker_accuracy_hand_case():
    # zero model on zero features predicts class 0 everywhere
    tests = [constant_label_dataset(0, 1.00), constant_label_dataset(1, 0.60),
             constant_label_dataset(2, 0.60), constant_label_dataset(3, 0.60)]
    assert metrics.per_worker_accuracy(zero_model(), tests).tolist() == [100.0, 60.0, 60.0, 60.0]


def test_per_worker_accuracy_random_classifier_near_chance():
    rng = np.random.default_rng(0)
    params = mlp.init(rng)
    tests = [Dataset(worker_id=w, features=rng.standard_normal((500, 400)),
                     labels=rng.integers(0, 4, 500), rates=np.zeros(500)) for w in range(4)]
    assert np.mean(metrics.per_worker_accuracy(params, tests)) == pytest.approx(25.0, abs=3.0)


def test_summarize_accuracy_direct():
    avg, worst, sd = metrics.summarize_accuracy(np.array([100.0, 60.0, 60.0, 60.0]))
    assert (avg, worst) == (70.0, 60.0)
    assert sd == pytest.approx(math.sqrt(300.0), rel=1e-12)


def test_summarize_accuracy_identical_workers():
    avg, worst, sd = metrics.summarize_accuracy(np.array([70.0, 70.0, 70.0, 70.0]))
    assert (avg, worst, sd) == (70.0, 70.0, 0.0)


def test_run_rows_derive_the_statistics_from_the_logged_accuracies():
    cfg = ExperimentConfig(K=1)
    result = fed.RunResult(
        algorithm="drfa", seed=3, config=cfg, round_logs=[fed.RoundLog(1, 2, np.array([100.0, 60.0, 60.0, 60.0]))],
        final_theta=zero_model(), lambda_history=np.array([[0.25] * 4, [0.4, 0.2, 0.2, 0.2]]),
        theta_checkpoints={}, dual_loss_history=[{}])
    (row,) = harness.run_rows(result)
    assert row[:6] == ("drfa", 3, 1, 2, 70.0, 60.0)
    assert row[6] == pytest.approx(math.sqrt(300.0), rel=1e-12)
    assert row[7:] == (100.0, 60.0, 60.0, 60.0, 0.4, 0.2, 0.2, 0.2)


def test_parse_config_empty_file_gives_table_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n")
    cfg = config_from_file(str(path))
    assert (cfg.alpha, cfg.gamma, cfg.B, cfg.N, cfg.tau, cfg.m) == (2e-3, 5e-3, 50, 4, 10, 3)
    assert cfg.K == 800 and cfg.seeds == (0, 1, 2, 3, 4)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError, match="learning_rate"):
        config_from_file(str(path))


def test_parse_config_rejects_invalid_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tau = abc\n")
    with pytest.raises(ValueError, match="tau"):
        config_from_file(str(path))


def test_parse_config_rejects_m_greater_than_N(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("spacings = 0.125, 0.25\nm = 3\n")
    with pytest.raises(ValueError, match="N = len.spacings. = 2, got m=3"):
        config_from_file(str(path))


def test_config_round_trip_canonical(tmp_path):
    # '#' starts a comment only at the start of a line or after whitespace, so runs#1 is one value
    path = tmp_path / "c.cfg"
    path.write_text("alpha = 0.004   # comment\nseeds = 3, 4,5\t#tab\nalgorithms = drfa, fgdra\nout_dir = runs#1\n")
    cfg = config_from_file(str(path))
    sets = ["alpha=0.004", "seeds=3,4,5", "algorithms=drfa,fgdra", "out_dir=runs#1"]
    assert cfg == cli._load_config(cli.build_parser().parse_args(["train", *(f"--set={s}" for s in sets)]))
    assert cfg.out_dir == "runs#1"
    canonical = harness.format_settings(asdict(cfg))
    path2 = tmp_path / "c2.cfg"
    path2.write_text(canonical)
    cfg2 = config_from_file(str(path2))
    assert cfg2 == cfg
    assert harness.format_settings(asdict(cfg2)) == canonical


@pytest.mark.parametrize("out_dir", ["runs#1", "my runs #1", "#1", " lead", "trail ", "a\nK = 5", "a\rb"])
def test_format_settings_writes_only_what_read_settings_reads_back(tmp_path, out_dir):
    cfg = ExperimentConfig(out_dir=out_dir)
    if out_dir != "runs#1":
        with pytest.raises(ValueError, match=f"^out_dir: the value {re.escape(repr(out_dir))} would not read back"):
            harness.format_settings(asdict(cfg))
        return
    path = tmp_path / "c.cfg"
    path.write_text(harness.format_settings(asdict(cfg)))
    assert config_from_file(str(path)) == cfg


@example(0.0)
@example(-0.0)
@example(5e-324)
@example(1e-05)
@example(1e16)
@example(sys.float_info.max)
@given(st.floats())
def test_format_value_writes_a_float_as_its_shortest_round_trip_decimal(x):
    text = repr(float(x))
    assert harness._format_value(x) == harness._format_value(np.float64(x)) == text
    assert harness._format_value((7, x, "fgdra", np.int64(-3), np.float64(x))) == f"7,{text},fgdra,-3,{text}"


def test_read_settings_refuses_a_line_without_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# header\nK 12\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: expected 'key = value', got 'K 12'")):
        harness.read_settings(str(path))


def test_read_settings_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("K = 5\nJ = 40\nK = 7\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: repeated key 'K'")):
        harness.read_settings(str(path))


def test_examples_cfg_names_every_key_at_its_default():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "examples.cfg")
    assert sorted(harness.read_settings(path)) == sorted(f.name for f in fields(ExperimentConfig))
    assert config_from_file(path) == ExperimentConfig()


def test_cli_config_file_and_set_items_are_validated_together(tmp_path):
    # two spacings alone are refused (m defaults to 3); with --set m=2 the merged settings are valid
    path = tmp_path / "two.cfg"
    path.write_text("spacings = 0.125,0.25\nK = 5\n")
    args = cli.build_parser().parse_args(["train", "--config", str(path), "--set", "m=2", "--set", "K = 7"])
    cfg = cli._load_config(args)
    assert (cfg.N, cfg.m, cfg.K) == (2, 2, 7)
    with pytest.raises(ValueError, match="m=3"):
        config_from_file(str(path))


@pytest.mark.parametrize("shorthand, key, value", [
    ("--seed-list", "seeds", "3,4"),
    ("--seed-list", "seeds", ""),
    ("--out-dir", "out_dir", "elsewhere"),
    ("--out-dir", "out_dir", ""),
])
def test_cli_shorthand_gives_the_config_of_its_set_spelling(shorthand, key, value):
    def load(argv):  # the config, or the message that refuses it
        try:
            return cli._load_config(cli.build_parser().parse_args(["train", *argv]))
        except ValueError as exc:
            return str(exc)

    assert load([shorthand, value]) == load(["--set", f"{key}={value}"])


def test_apply_overrides():
    cfg = apply_overrides(ExperimentConfig(), {"K": "12", "seeds": "7,8", "out_dir": "elsewhere"})
    assert cfg.K == 12 and cfg.seeds == (7, 8) and cfg.out_dir == "elsewhere"
    with pytest.raises(ValueError, match="bogus"):
        apply_overrides(cfg, {"bogus": "1"})
    for key, value in (("N", "4"), ("profile_seed", "7")):  # former keys, at their old defaults
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            apply_overrides(cfg, {key: value})


def test_build_profiles_design():
    cfg = ExperimentConfig()
    profiles = harness.build_profiles(cfg)
    assert len(profiles) == 4
    spacings = [p.geometry.element_spacing / channel.CARRIER_WAVELENGTH_M for p in profiles]
    assert spacings == pytest.approx([0.125, 0.25, 0.5, 1.0])
    anchor = profiles[0].geometry
    assert math.degrees(anchor.rx.azimuth) == pytest.approx(110.0)
    base = 0.125 * math.sin(anchor.rx.azimuth)
    for p in profiles[1:]:
        sp = p.geometry.element_spacing / channel.CARRIER_WAVELENGTH_M
        assert sp * math.sin(p.geometry.rx.azimuth) == pytest.approx(base + harness.ALIAS_RAMP_OFFSET)
    again = harness.build_profiles(cfg)
    assert again[2].geometry.scatterers == profiles[2].geometry.scatterers


# new cases are appended, and a case whose key leaves the config is replaced
# in place by another refusal, so the generated ids of the others stay put
@pytest.mark.parametrize("overrides,key", [
    ({"alpha": math.nan}, "alpha"),
    ({"gamma": math.inf}, "gamma"),
    ({"spacings": (0.125, math.nan)}, "spacings"),
    ({"m": 2.5}, "m must be an integer"),
    ({"spacings": (0.125, math.inf)}, "spacings"),
    ({"tau": 2.5}, "tau"),
    ({"tau": 1.0}, "tau"),
    ({"B": math.nan}, "B"),
    ({"m": 2.0}, "m"),
    ({"spacings": (0.125, 0.25, 0.5, 1.0, 0.125)}, "spacings"),  # a fifth worker that cannot alias
    ({"spacings": (1.0, 0.5, 0.25, 0.125)}, "spacings"),
    ({"J": 1}, "J=1"),
    ({"J": 2}, "J=2"),
    ({"J": 2.5}, "J must be an integer"),
    ({"K": 1.5}, "K must be an integer"),
    ({"eval_every": 0.5}, "eval_every must be an integer"),
    ({"spacings": (0.125, -math.inf)}, "spacings must be finite"),
    ({"seeds": (0, 1.5)}, "seeds must be an integer"),
    ({"spacings": (), "m": 0}, "spacings must be a nonempty list"),  # the empty fleet, before m
    ({"spacings": (1.0,), "m": 3}, "m <= N = len.spacings. = 1, got m=3"),
    ({"J": -5}, "J must be > 0"),
    ({"eval_every": -1}, "eval_every must be > 0"),
    ({"m": -1}, "m=-1"),
    ({"J": 0}, "J must be > 0"),
    ({"algorithms": ("fgdra", "sgd")}, "algorithms"),
    ({"dataset_seed": 0.5}, "dataset_seed"),
    ({"spacings": (0.125, 0.0)}, "spacings"),
    ({"spacings": (0.125, -0.25)}, "spacings"),
    ({"spacings": (0.125, 0.25), "m": 3}, "m=3"),
    ({"dataset_seed": -1}, "dataset_seed"),
    ({"eval_every": 0}, "eval_every"),
    ({"spacings": ()}, "spacings"),
    ({"m": 5}, "m=5"),
    ({"m": 0}, "m=0"),
    ({"alpha": 0.0}, "alpha"),
    ({"alpha": math.inf}, "alpha"),
    ({"gamma": -1.0}, "gamma"),
    ({"gamma": math.nan}, "gamma"),
    ({"K": 0}, "K must be > 0"),
    ({"tau": 0}, "tau must be > 0"),
    ({"B": 0}, "B must be > 0"),
    ({"seeds": ()}, "seeds"),
    ({"seeds": (0, -1)}, "seeds"),
    ({"seeds": (0, 0)}, "seeds"),
    ({"algorithms": ()}, "algorithms"),
    ({"algorithms": ("fgdra", "fgdra")}, "algorithms"),
    ({"algorithms": ("sgd",)}, "algorithms"),
    ({"out_dir": ""}, "out_dir"),
    ({"spacings": (5e-324,)}, "spacings"),  # 0 m once times the carrier wavelength; refused before m=3
    ({"spacings": (0.125, 0.25, 0.5, 1e307)}, "spacings"),  # an infinite steering phase
    ({"spacings": (1e308,)}, "spacings"),  # refused before m=3
])
def test_config_rejects_bad_values_naming_the_key(overrides, key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**overrides)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_accepted_spacing_synthesizes_finite_data():
    # 2 pi * 1e306 * (RIS_ROWS + RIS_COLS) is finite, so the config admits it; 1e307 is refused
    cfg = ExperimentConfig(spacings=(0.125, 0.25, 0.5, 1e306), J=40)
    train_sets, test_sets, _ = harness.generate_data(cfg)
    for ds in train_sets + test_sets:
        assert np.all(np.isfinite(ds.features)) and np.all(np.isfinite(ds.rates)) and ds.rates.max() > 0


def test_config_admits_gamma_zero():
    # gamma = 0 freezes lambda; the FedAvg-reduction checks run at it
    assert ExperimentConfig(gamma=0.0).gamma == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=8))
def test_alias_geometry_rejected_at_config_or_buildable(spacings):
    try:
        cfg = ExperimentConfig(m=1, spacings=tuple(spacings))
    except ValueError as exc:
        assert str(exc).startswith(f"spacings {tuple(spacings)}: worker ")
        return
    profiles = harness.build_profiles(cfg)
    assert [p.geometry.element_spacing for p in profiles] == [s * channel.CARRIER_WAVELENGTH_M for s in spacings]


VALID = {
    "J": st.integers(2, 40),
    "dataset_seed": st.integers(0, 10_000),
}
INVALID = {
    "alpha": st.sampled_from([-1e-3, 0.0, math.inf, math.nan]),
    "gamma": st.sampled_from([-1.0, -1e-9, math.inf, math.nan]),
    "B": st.integers(-3, 0),
    "tau": st.integers(-3, 0),
    "m": st.sampled_from([-1, 0, 9, 20]),  # there are at most 8 spacings
    "J": st.integers(-2, 1),
    "spacings": st.floats(1e307, 1.7e308).map(lambda huge: (0.125, huge)),  # an infinite steering phase
    "dataset_seed": st.integers(-100, -1),
}


@st.composite
def config_overrides(draw):
    """Valid values for every key, then at most two keys set invalid."""
    # one to eight workers; worker 0's spacing is the smallest, so every worker can alias to it
    spacings = (0.125, *draw(st.lists(st.floats(0.15, 2.0), max_size=7)))
    overrides = {"spacings": spacings, "m": draw(st.integers(1, len(spacings)))}
    overrides.update({key: draw(strategy) for key, strategy in VALID.items()})
    bad = draw(st.lists(st.sampled_from(sorted(INVALID)), max_size=2, unique=True))
    overrides.update({key: draw(INVALID[key]) for key in bad})
    return overrides, bad


@settings(max_examples=80, deadline=None)
@given(config_overrides())
def test_parsed_configs_build_and_run_one_round(drawn):
    # every config is either refused at construction, naming a key it sets
    # wrong, or synthesizes its data and trains one fgdra round to finite
    # outputs
    overrides, bad = drawn
    try:
        cfg = ExperimentConfig(K=1, seeds=(0,), algorithms=("fgdra",), **overrides)
    except ValueError as exc:
        J = overrides["J"]
        culprits = set(bad) | ({"J"} if J >= 1 and round(J * labeling.TRAIN_FRACTION) in (0, J) else set())
        # as a whole word, so one-letter keys such as m and B are not found inside others
        assert any(re.search(rf"\b{key}\b", str(exc)) for key in culprits), str(exc)
        event("refused")
        return
    assert not bad
    event("ran")
    train_sets, test_sets, _ = harness.generate_data(cfg)
    result = fed.run(cfg, train_sets, test_sets, seed=0, eval_every=1, algorithm="fgdra")
    acc = result.round_logs[-1].per_worker_acc
    assert acc.shape == (cfg.N,) and np.all((0.0 <= acc) & (acc <= 100.0))
    lam = result.lambda_history[-1]
    assert np.all(np.isfinite(lam)) and abs(lam.sum() - 1.0) <= 1e-12


def test_run_experiment_row_count_and_rerun_identical(tmp_path):
    # the default four workers, then a fleet of five: one worker per spacing
    for N, fleet in ((4, {}), (5, {"spacings": (0.125, 0.25, 0.5, 1.0, 0.5)})):
        cfg = small_config(tmp_path / f"N{N}", eval_every=1, **fleet)
        assert cfg.N == N
        result = harness.run_experiment(cfg)
        header, *rows = open(result.csv_path).read().strip().split("\n")
        assert header.split(",")[len(harness.RUNS_COLUMNS):] == [*(f"acc_w{i}" for i in range(N)),
                                                                 *(f"lambda_{i}" for i in range(N))]
        assert len(rows) == len(cfg.algorithms) * len(cfg.seeds) * cfg.K
        first = open(result.csv_path, "rb").read()
        harness.run_experiment(cfg)
        assert open(result.csv_path, "rb").read() == first


def read_table(path):
    """A CSV's rows as dicts of cell text, keyed by the header's names."""
    header, *rows = Path(path).read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_run_experiment_summary_matches_final_rows(tmp_path):
    cfg = small_config(tmp_path)
    result = harness.run_experiment(cfg)
    finals = {fig: {r["algorithm"]: r for r in read_table(Path(cfg.out_dir, f"fig_{fig}.csv"))
                    if int(r["round"]) == cfg.K} for fig in ("avg", "worst", "sd")}
    summary = read_table(Path(cfg.out_dir, "summary.csv"))
    assert [r["algorithm"] for r in summary] == list(cfg.algorithms)
    for r in summary:  # the same cells, as text
        avg, worst, sd = (finals[fig][r["algorithm"]] for fig in ("avg", "worst", "sd"))
        assert (r["avg_acc_mean"], r["avg_acc_se"]) == (avg["mean"], avg["se"])
        assert (r["worst_acc_mean"], r["worst_acc_se"]) == (worst["mean"], worst["se"])
        assert r["acc_sd_mean"] == sd["mean"]
        assert r["comm_rounds"] == avg["comm_rounds"] == worst["comm_rounds"] == sd["comm_rounds"]
        last = [float(row["avg_acc"]) for row in read_table(result.csv_path)
                if row["algorithm"] == r["algorithm"] and int(row["round"]) == cfg.K]
        assert len(last) == len(cfg.seeds) and float(r["avg_acc_mean"]) == pytest.approx(np.mean(last))


def test_seed_series_hand_case():
    # two algorithms x three seeds x two rounds; columns past acc_sd are ignored
    rows = [(alg, seed, rnd, exchanges * rnd, 10.0 * seed + rnd, 5.0 * seed, 2.0 * seed, 99.0, 0.5)
            for alg, exchanges in (("fgdra", 1), ("drfa", 2)) for seed in (0, 1, 2) for rnd in (1, 2)]
    rows.append(("fedavg", 4, 1, 1, 55.0, 40.0, 7.0))  # one seed: its standard error is 0
    series = harness.seed_series(rows)
    assert list(series) == [("fgdra", 1), ("fgdra", 2), ("drfa", 1), ("drfa", 2), ("fedavg", 1)]
    root3 = math.sqrt(3.0)
    comm, stats = series[("drfa", 2)]  # avg 2, 12, 22; worst 0, 5, 10; sd 0, 2, 4
    assert comm == 4
    assert stats["avg_acc"] == pytest.approx((12.0, 10.0 / root3), rel=1e-15)
    assert stats["worst_acc"] == pytest.approx((5.0, 5.0 / root3), rel=1e-15)
    assert stats["acc_sd"] == pytest.approx((2.0, 2.0 / root3), rel=1e-15)
    assert series[("fgdra", 1)][1]["avg_acc"] == pytest.approx((11.0, 10.0 / root3), rel=1e-15)
    assert series[("fedavg", 1)] == (1, {"avg_acc": (55.0, 0.0), "worst_acc": (40.0, 0.0), "acc_sd": (7.0, 0.0)})

    summary = harness.summarize_runs(series).per_algorithm  # each algorithm's last round
    assert list(summary) == ["fgdra", "drfa", "fedavg"]
    assert summary["drfa"] == harness.AlgorithmSummary("drfa", *stats["avg_acc"], *stats["worst_acc"], 2.0, 4)
    assert summary["fedavg"] == harness.AlgorithmSummary("fedavg", 55.0, 0.0, 40.0, 0.0, 7.0, 1)


def test_run_experiment_writes_each_runs_rows_before_the_next_run_starts(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, eval_every=3)
    seen = []

    def read_rows_and_stop(*args, **kwargs):
        seen.append(open(os.path.join(cfg.out_dir, "runs.csv")).read())
        raise RuntimeError("stop")

    monkeypatch.setitem(fed.RUNNERS, "drfa", read_rows_and_stop)
    with pytest.raises(RuntimeError, match="stop"):
        harness.run_experiment(cfg)
    header, *rows = seen[0].strip().split("\n")
    assert header.startswith("algorithm,seed,round,")
    assert [row.split(",")[:3] for row in rows] == [["fgdra", str(s), str(k)] for s in cfg.seeds for k in (3, 6)]


def test_interrupted_rerun_leaves_no_earlier_summary_or_figure_files(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, K=2, seeds=(0,))
    harness.run_experiment(cfg)
    reports = ["summary.csv", "fig_avg.csv", "fig_worst.csv", "fig_sd.csv"]
    assert all(Path(cfg.out_dir, name).exists() for name in reports)

    def stop(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setitem(fed.RUNNERS, "drfa", stop)
    with pytest.raises(RuntimeError, match="stop"):
        harness.run_experiment(cfg)
    assert sorted(os.listdir(cfg.out_dir)) == ["runs.csv"]
    assert [row["algorithm"] for row in read_table(Path(cfg.out_dir, "runs.csv"))] == ["fgdra"]


def test_run_experiment_comm_round_axis(tmp_path):
    cfg = small_config(tmp_path, algorithms=("fgdra", "drfa"), seeds=(0,), eval_every=3)
    result = harness.run_experiment(cfg)
    fg = [log.communication_rounds_consumed for log in result.runs[("fgdra", 0)].round_logs]
    dr = [log.communication_rounds_consumed for log in result.runs[("drfa", 0)].round_logs]
    assert dr == [2 * c for c in fg]


def test_per_seed_data_draws_differ(tmp_path):
    cfg = small_config(tmp_path)
    cache = SeedDataCache(cfg)
    a0, _ = cache.for_seed(0)
    a1, _ = cache.for_seed(1)
    assert not np.array_equal(a0[0].features, a1[0].features)
    b0, _ = cache.for_seed(0)
    assert b0[0] is a0[0]


def test_run_sweep_layout_and_cells(tmp_path):
    cfg = small_config(tmp_path)
    cells = harness.run_sweep(*harness.sweep_configs(cfg, "tau=1, 2,3"))
    assert [(value, s.algorithm) for value, s in cells] == [(v, alg) for v in (1, 2, 3) for alg in cfg.algorithms]
    header, *rows = Path(cfg.out_dir, "sweep.csv").read_text().splitlines()
    assert header.startswith("axis,value,algorithm,") and header.endswith(",cell")
    assert [row.split(",")[:2] for row in rows[::3]] == [["tau", "1"], ["tau", "2"], ["tau", "3"]]
    for row, (_, s) in zip(rows, cells, strict=True):
        assert re.fullmatch(r"\d+\.\d{2}/\d+\.\d{2}", s.cell)
        assert row.split(",")[-1] == s.cell == f"{s.avg_acc_mean:.2f}/{s.worst_acc_mean:.2f}"

    axis, m_configs = harness.sweep_configs(cfg, "m=1,2")
    assert axis == "m" and [c.m for c in m_configs] == [1, 2]
    assert m_configs[1] == replace(cfg, m=2)
    assert len(harness.run_sweep(axis, m_configs)) == 6


# a float cell, and two cells that change the data draw
@pytest.mark.parametrize("item", ["alpha=0.002,0.004", "J=80,120", "dataset_seed=5,6"])
def test_each_sweep_row_is_the_summary_row_of_its_cells_own_run(tmp_path, item):
    cfg = small_config(tmp_path)
    axis, cell_configs = harness.sweep_configs(cfg, item)
    harness.run_sweep(axis, cell_configs)
    _, *rows = Path(cfg.out_dir, "sweep.csv").read_text().splitlines()
    expected = []
    for value, cell in zip(item.partition("=")[2].split(","), cell_configs, strict=True):
        out_dir = tmp_path / f"{axis}_{value}"
        harness.run_experiment(replace(cell, out_dir=str(out_dir)))
        _, *summary = (out_dir / "summary.csv").read_text().splitlines()
        expected += [f"{axis},{value}," + ",".join(row.split(",")[:5]) for row in summary]
    assert [row.rpartition(",")[0] for row in rows] == expected  # every column but the cell pair


# values that {value:g} would print alike, or in exponent form
@pytest.mark.parametrize("item", ["alpha=0.0012345678,0.0012345679", "dataset_seed=1234567,1234568"])
def test_cli_sweep_prints_each_value_exactly(tmp_path, capsys, item):
    argv = ["sweep", item, "--set", "J=40", "--set", "K=1", "--set", "algorithms=fgdra", "--seed-list", "0",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    path, *lines = capsys.readouterr().out.splitlines()
    _, *rows = Path(path).read_text().splitlines()
    axis, _, values = item.partition("=")
    assert len(set(lines)) == 2
    cells = [row.rpartition(",")[2] for row in rows]
    assert lines == [f"{axis}={v} fgdra: {cell}" for v, cell in zip(values.split(","), cells, strict=True)]


def test_run_sweep_writes_each_cells_rows_before_the_next_cell_runs(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, algorithms=("fgdra",), seeds=(0,))
    real, seen = harness.run_grid, []

    def read_rows_then_run(config):
        seen.append(Path(cfg.out_dir, "sweep.csv").read_text())
        if len(seen) == 2:
            raise RuntimeError("stop")
        return real(config)

    monkeypatch.setattr(harness, "run_grid", read_rows_then_run)
    with pytest.raises(RuntimeError, match="stop"):
        harness.run_sweep(*harness.sweep_configs(cfg, "tau=1,2"))
    assert seen[0].count("\n") == 1  # the header, before the first cell runs
    header, *rows = seen[1].splitlines()
    assert [row.split(",")[:3] for row in rows] == [["tau", "1", "fgdra"]]


def assert_refused_before_any_work(argv, named, tmp_path, capsys, monkeypatch):
    """``risfed argv`` exits 2 with one stderr line naming ``named``, having drawn no data and written nothing."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "generate_data", no_work)
    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("risfed: error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert not os.listdir(tmp_path)


# a refused sweep item, and what its one-line refusal names
@pytest.mark.parametrize("item, named", [
    ("tau=2.7", "'tau'"),
    ("tau=1.0", "'tau'"),  # tau is an int key, as with --set tau=1.0
    ("B=nan", "'B'"),
    ("m=2,9", "m=9"),
    ("tau=1,01", "tau values must be distinct"),
    ("tau=", "'tau'"),
    ("tau=1,,2", "'tau'"),
    ("seeds=0,1", "'seeds'"),
    ("spacings=0.125,0.25", "'spacings'"),
    ("1,2", "'1,2'"),
    (None, "KEY=V1,V2,... item"),
    ("algorithms=fgdra,drfa", "'algorithms'"),
    ("out_dir=a,b", "'out_dir'"),
    ("N=3,4", "'N'"),
])
def test_sweep_item_refused_before_any_run_naming_the_key(tmp_path, capsys, monkeypatch, item, named):
    argv = ["sweep", "--set", "J=40", "--set", "K=1"] + ([item] if item is not None else [])
    assert_refused_before_any_work(argv, named, tmp_path, capsys, monkeypatch)
    if item is not None:
        with pytest.raises(ValueError, match=re.escape(named)):
            harness.sweep_configs(small_config(tmp_path), item)


def test_run_experiment_writes_the_figure_series(tmp_path):
    # run_experiment writes one figure file per metric: for each (algorithm, round),
    # sorted, the mean over seeds of the runs.csv rows and se = sd/sqrt(n)
    cfg = small_config(tmp_path, eval_every=2)
    result = harness.run_experiment(cfg)
    runs = read_table(result.csv_path)
    for name, metric in zip(("fig_avg.csv", "fig_worst.csv", "fig_sd.csv"), harness.SERIES_METRICS):
        points = read_table(Path(cfg.out_dir, name))
        assert list(points[0]) == ["algorithm", "round", "comm_rounds", "mean", "se"]
        assert len(points) == 3 * (cfg.K // cfg.eval_every)  # 3 algorithms x logged rounds
        keys = [(p["algorithm"], int(p["round"])) for p in points]
        assert keys == sorted(keys)
        for p in points:
            seeds = [r for r in runs if (r["algorithm"], r["round"]) == (p["algorithm"], p["round"])]
            vals = np.array([float(r[metric]) for r in seeds])
            assert len(vals) == len(cfg.seeds)
            assert {r["comm_rounds"] for r in seeds} == {p["comm_rounds"]}
            assert float(p["mean"]) == pytest.approx(vals.mean())
            assert float(p["se"]) == pytest.approx(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def test_export_datasets_round_trip(tmp_path):
    # every file loads back bit for bit: each float is written as its shortest round-trip decimal
    cfg = small_config(tmp_path, J=80)
    written = harness.export_datasets(cfg)
    train_sets, test_sets, _ = harness.generate_data(cfg)
    assert written == [os.path.join(cfg.out_dir, f"worker{w}_{part}.csv")
                       for w in range(cfg.N) for part in ("train", "test")]
    for path, ds in zip(written, [ds for pair in zip(train_sets, test_sets) for ds in pair], strict=True):
        loaded = harness.load_dataset(path[:-4])
        assert loaded.worker_id == ds.worker_id
        for a, b in ((loaded.features, ds.features), (loaded.labels, ds.labels), (loaded.rates, ds.rates),
                     (loaded.scaler.mean, ds.scaler.mean), (loaded.scaler.sd, ds.scaler.sd)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _saved_dataset(tmp_path, n=32):
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((n, 400))
    scaler = FeatureScaler(mean=raw.mean(axis=0), sd=raw.std(axis=0))
    ds = Dataset(worker_id=1, features=scaler.transform(raw), labels=rng.integers(0, 4, n),
                 rates=rng.uniform(1e7, 2e7, n), scaler=scaler)
    stem = str(tmp_path / "worker1_train")
    harness.save_dataset(ds, stem, extra_meta={})
    return stem


def _keep_rows(path, keep):
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:1 + keep]))


def _set_first_row_cell(path, column, text):
    header, row, *rest = Path(path).read_text().splitlines(keepends=True)
    cells = row.rstrip("\n").split(",")
    cells[header.rstrip("\n").split(",").index(column)] = text
    Path(path).write_text("".join([header, ",".join(cells) + "\n", *rest]))


def _set_row_width(path, width):
    """Cut every row after the header to ``width`` cells, or pad it with 0.5 cells."""
    header, *rows = Path(path).read_text().splitlines()
    cells = [(row.split(",") + ["0.5"] * width)[:width] for row in rows]
    Path(path).write_text("\n".join([header, *map(",".join, cells)]) + "\n")


def _edit_meta(path, key, value):
    meta = harness.read_settings(path)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    Path(path).write_text(harness.format_settings(meta))


@pytest.mark.parametrize("damage, file, message", [
    (lambda stem: _keep_rows(stem + ".csv", 9), ".csv", "9 rows, but num_samples = 32"),
    (lambda stem: _edit_meta(stem + ".meta", "scaler_sd", None), ".meta", "missing scaler_sd"),
    (lambda stem: _edit_meta(stem + ".meta", "num_samples", None), ".meta", "missing num_samples"),
    (lambda stem: _edit_meta(stem + ".meta", "scaler_mean", "1.0,2.0"), ".meta", "400 values each, got 2 and 400"),
    (lambda stem: _edit_meta(stem + ".meta", "scaler_mean", ""), ".meta", "400 values each, got 0 and 400"),
    (lambda stem: Path(stem + ".csv").write_text("f000,label,rate\n"), ".csv", "header is not f000..f399,label,rate"),
    (lambda stem: _set_first_row_cell(stem + ".csv", "label", "7"), ".csv", "label is not an integer in 0..3"),
    (lambda stem: _set_first_row_cell(stem + ".csv", "label", "2.5"), ".csv", "label is not an integer in 0..3"),
    (lambda stem: _set_first_row_cell(stem + ".csv", "f017", "nan"), ".csv", "feature or rate is not finite"),
    (lambda stem: _set_first_row_cell(stem + ".csv", "rate", "inf"), ".csv", "feature or rate is not finite"),
    (lambda stem: _edit_meta(stem + ".meta", "scaler_sd", ",".join(["nan"] * 400)), ".meta",
     "scaler_mean or scaler_sd value is not finite"),
    (lambda stem: _edit_meta(stem + ".meta", "scaler_mean", ",".join(["1.0"] * 399 + ["inf"])), ".meta",
     "scaler_mean or scaler_sd value is not finite"),
    (lambda stem: _edit_meta(stem + ".meta", "scaler_sd", ",".join(["1.0"] * 399 + ["0.0"])), ".meta",
     "scaler_sd value is <= 0"),
    (lambda stem: _edit_meta(stem + ".meta", "worker_id", "-3"), ".meta", "worker_id must be >= 0, got -3"),
    (lambda stem: (_keep_rows(stem + ".csv", 0), _edit_meta(stem + ".meta", "num_samples", "0")), ".meta",
     "num_samples must be >= 1, got 0"),
    (lambda stem: _set_row_width(stem + ".csv", 401), ".csv", "rows have 401 cells, but the header has 402"),
    (lambda stem: _set_row_width(stem + ".csv", 403), ".csv", "rows have 403 cells, but the header has 402"),
    (lambda stem: _edit_meta(stem + ".meta", "format", "not-a-dataset"), ".meta", "unsupported dataset format"),
    (lambda stem: _edit_meta(stem + ".meta", "worker_id", "abc"), ".meta", "invalid literal for int()"),
    (lambda stem: _set_first_row_cell(stem + ".csv", "f017", "abc"), ".csv", "could not convert string 'abc'"),
])
def test_load_dataset_refuses_truncated_or_malformed_files(tmp_path, damage, file, message):
    stem = _saved_dataset(tmp_path)
    damage(stem)
    with pytest.raises(ValueError, match=re.escape(f"{stem}{file}: ") + ".*" + re.escape(message)):
        harness.load_dataset(stem)


def test_cli_diagnose_runs_the_configured_batch_and_sampling_sizes(tmp_path, monkeypatch):
    seen = []
    real = fed.RUNNERS["fgdra"]

    def spy(config, *args, **kwargs):
        seen.append((config.N, config.m, config.B))
        return real(config, *args, **kwargs)

    monkeypatch.setitem(fed.RUNNERS, "fgdra", spy)
    assert cli.main(["diagnose", "--out-dir", str(tmp_path), "--probes", "100", "--set", "K=4", "--set", "J=120",
                     "--set", "B=10", "--set", "m=2"]) == 0
    assert seen == [(4, 2, 10)]


def test_cli_diagnose_trains_the_first_seed_on_its_own_data_draw(tmp_path, monkeypatch):
    seen = []
    real = fed.RUNNERS["fgdra"]

    def spy(config, train_sets, test_sets, seed=None, **kwargs):
        seen.append((seed, train_sets[0].features))
        return real(config, train_sets, test_sets, seed=seed, **kwargs)

    monkeypatch.setitem(fed.RUNNERS, "fgdra", spy)
    settings = ["--set", "K=4", "--set", "J=120", "--set", "B=10"]
    assert cli.main(["diagnose", "--out-dir", str(tmp_path), "--probes", "100", "--seed-list", "3", *settings]) == 0
    (seed, features), = seen
    cache = SeedDataCache(ExperimentConfig(K=4, J=120, B=10))
    assert seed == 3
    assert features.tobytes() == cache.for_seed(3)[0][0].features.tobytes()
    assert features.tobytes() != cache.for_seed(0)[0][0].features.tobytes()


def test_cli_theory_writes_the_records_of_theory_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(diagnostics, "THEORY_KS", (4, 8))
    settings = ["--set", "J=120", "--set", "B=10", "--set", "dataset_seed=5"]
    assert cli.main(["theory", "--seed-list", "0", "--probes", "100", *settings, "--out-dir", str(tmp_path)]) == 0
    records = list(diagnostics.theory_check(ExperimentConfig(seeds=(0,), J=120, B=10, dataset_seed=5), 100))
    path = tmp_path / "theory.csv"
    header, *rows = path.read_text().splitlines()
    assert header == "seed,K,T,running_mean,bound"
    columns = header.split(",")
    assert [[float(x) for x in row.split(",")] for row in rows] == [[r[c] for c in columns] for r in records]
    held = sum(r["held"] for r in records)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == str(path) and len(out) == len(records) + 4  # path, records, blank, slope, held
    assert out[-1] == f"bound held in {held}/{len(records)} runs"


def test_cli_diagnose_estimates_on_the_first_seeds_draw_with_the_seeds_probe_stream(tmp_path, capsys):
    settings = ["--set", "K=4", "--set", "J=120", "--set", "B=10"]
    assert cli.main(["diagnose", "--out-dir", str(tmp_path), "--probes", "100", "--seed-list", "3", *settings]) == 0
    config = ExperimentConfig(seeds=(3,), K=4, J=120, B=10)
    est = diagnostics.estimate_constants(SeedDataCache(config).for_seed(3)[0], 100, np.random.default_rng(1003), 10)
    (record,) = diagnostics.rate_matched_runs(config, 100, (4,))
    assert record["est"] == est
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"sigma_hat={est.sigma_hat:.4f} nu_hat={est.nu_hat:.4f} L_hat={est.L_hat:.4f} F0={est.F0:.4f}"
    header, *rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert header == "t,grad_norm_sq,running_mean,bound"
    trace = record["trace"]
    assert [row.split(",")[:2] for row in rows] == [[str(t), str(g)] for t, g in zip(trace.t, trace.grad_norm_sq)]


def test_theory_check_trains_the_fleets_one_wavelength_design_on_each_seeds_draw(monkeypatch):
    monkeypatch.setattr(diagnostics, "THEORY_KS", (4,))
    real, seen = fed.RUNNERS["fgdra"], []

    def spy(config, train_sets, test_sets, seed=None, **kwargs):
        seen.append((config, seed, train_sets, test_sets))
        return real(config, train_sets, test_sets, seed=seed, **kwargs)

    monkeypatch.setitem(fed.RUNNERS, "fgdra", spy)
    config = ExperimentConfig(seeds=(0, 2), J=120, B=10, dataset_seed=5)
    list(diagnostics.theory_check(config, 100))
    cache = SeedDataCache(replace(config, spacings=(1.0,), m=1))
    assert [s for _, s, _, _ in seen] == [0, 2]
    for run_config, seed, train_sets, test_sets in seen:
        (train,), (test,) = cache.for_seed(seed)
        assert (run_config.spacings, run_config.m, run_config.K) == ((1.0,), 1, 4)
        assert len(train_sets) == len(test_sets) == 1
        assert train_sets[0].features.tobytes() == train.features.tobytes()
        assert test_sets[0].labels.tobytes() == test.labels.tobytes()


def test_cli_theory_writes_each_records_row_before_the_next_run_starts(tmp_path, monkeypatch):
    monkeypatch.setattr(diagnostics, "THEORY_KS", (4, 8))
    real, seen = fed.RUNNERS["fgdra"], []

    def read_rows_then_run(*args, **kwargs):
        seen.append(Path(tmp_path, "theory.csv").read_text())
        if len(seen) == 2:
            raise RuntimeError("stop")
        return real(*args, **kwargs)

    monkeypatch.setitem(fed.RUNNERS, "fgdra", read_rows_then_run)
    with pytest.raises(RuntimeError, match="stop"):
        cli.main(["theory", "--seed-list", "0", "--probes", "100", "--set", "J=120", "--set", "B=10",
                  "--out-dir", str(tmp_path)])
    assert seen[0] == "seed,K,T,running_mean,bound\n"  # the header, before the first run
    header, *rows = seen[1].splitlines()
    assert [row.split(",")[:2] for row in rows] == [["0", "4"]]


# each case is a risfed command line: a config the parser refuses, or a
# command that cannot run on its config or inputs
@pytest.mark.parametrize("overrides, named", [
    (["train", "--set", "K=1", "--set", "J=1"], "J=1"),
    (["train", "--set", "bogus=1"], "'bogus'"),
    (["train", "--set", "K"], "'K'"),
    (["train", "--set", "alpha=nan"], "alpha"),
    (["train", "--set", "tau=1.0"], "'tau'"),
    (["train", "--seed-list", ""], "seeds"),
    (["diagnose", "--set", "K=3", "--set", "J=40"], "K=3"),
    (["train", "--config", os.path.join(os.path.dirname(__file__), "repeated_key.cfg")],
     "repeated_key.cfg:3: repeated key 'K'"),
    (["train", "--set", "tau=abc"], "'tau'"),
    (["train", "--set", "algorithms="], "algorithms"),
    (["train", "--seed-list", "0,0"], "seeds"),
    (["train", "--set", "algorithms=fgdra,fgdra"], "algorithms"),
    (["train", "--set", "algorithms=sgd"], "algorithms"),
    (["train", "--config", ""], "No such file or directory: ''"),
    (["theory", "--set", "B=0"], "B must be > 0"),
    (["diagnose", "--set", "K=3", "--set", "J=40"], "K=3 gives 4 gradient-norm checkpoints, fewer than diagnose's "
                                                     f"minimum of {diagnostics.MIN_CHECKPOINTS}"),
    (["gen-data", "--set", "J=8", "--set", "wavelength=1e80"], "'wavelength'"),  # not a config key
    (["gen-data", "--set", "J=8", "--set", "wavelength=1e160"], "'wavelength'"),
    (["gen-data", "--set", "m=1", "--set", "spacings=5e-324", "--set", "J=8"], "spacings"),
    (["gen-data", "--set", "wavelength=0.0107"], "'wavelength'"),
    (["gen-data", "--set", "J=8", "--set", "spacings=0.125,0.25,0.5,1e307"], "spacings"),
    (["gen-data", "--set", "spacings=1e308", "--set", "J=8"], "spacings"),  # refused before m=3
    # the scene's former keys, each at its old default, are unknown keys
    (["gen-data", "--set", "ris_rows=10"], "unknown config key 'ris_rows'"),
    (["gen-data", "--set", "ris_cols=10"], "unknown config key 'ris_cols'"),
    (["gen-data", "--set", "n_scatterers=4"], "unknown config key 'n_scatterers'"),
    (["gen-data", "--set", "scatter_cone_deg=15.0"], "unknown config key 'scatter_cone_deg'"),
    (["gen-data", "--set", "scatter_extra_lo=0.05"], "unknown config key 'scatter_extra_lo'"),
    (["gen-data", "--set", "scatter_extra_hi=0.3"], "unknown config key 'scatter_extra_hi'"),
    (["gen-data", "--set", "train_fraction=0.8"], "unknown config key 'train_fraction'"),
    (["train", "--set", "seeds=0,,1"], "invalid value for 'seeds': empty item in '0,,1'"),
    (["train", "--set", "algorithms=fgdra,"], "invalid value for 'algorithms': empty item in 'fgdra,'"),
    # the fleet's former keys, at their old defaults: N is len(spacings), the profile seed a constant
    (["gen-data", "--set", "J=40", "--set", "N=4"], "unknown config key 'N'"),
    (["gen-data", "--set", "J=40", "--set", "profile_seed=7"], "unknown config key 'profile_seed'"),
])
def test_cli_refused_config_exits_2_with_one_line_naming_the_key(tmp_path, capsys, monkeypatch, overrides, named):
    assert_refused_before_any_work(overrides, named, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("command", ["diagnose", "theory"])
def test_cli_refuses_too_few_probes_at_parse_time(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--probes", "99"])
    assert exc.value.code == 2
    assert "--probes: must be >= 100, got 99" in capsys.readouterr().err


def test_cli_train_survives_a_huge_dual_step(tmp_path):
    out = str(tmp_path / "gamma")
    assert cli.main(["train", "--out-dir", out, "--set", "K=2", "--set", "J=80",
                     "--set", "gamma=1e4", "--seed-list", "0"]) == 0
    header, *rows = open(os.path.join(out, "runs.csv")).read().strip().split("\n")
    cols = [i for i, name in enumerate(header.split(",")) if name.startswith("lambda_")]
    assert rows and len(cols) == 4
    for row in rows:
        fields = row.split(",")
        lam = np.array([float(fields[i]) for i in cols])
        assert np.all(np.isfinite(lam)) and abs(lam.sum() - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warnings would be more stderr lines
def test_cli_refuses_a_run_that_diverges_with_one_line_naming_alpha(tmp_path, capsys):
    out = str(tmp_path / "alpha")
    assert cli.main(["train", "--out-dir", out, "--set", "K=3", "--set", "J=80", "--set", "alpha=1e12",
                     "--seed-list", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("risfed: error: fgdra seed 0: round ") and captured.err.count("\n") == 1
    assert "alpha=1e+12" in captured.err


@pytest.mark.parametrize("argv, named", [
    (["gen-data", "--set", "J=40", "--out-dir", ""], "out_dir must be a nonempty path, got ''"),
    (["gen-data", "--set", "J=40", "--out-dir", "a_file"], "File exists: 'a_file'"),
    (["sweep", "tau=1,2", "--set", "J=40", "--set", "K=1", "--out-dir", "a_file/sub"], "Not a directory"),
    (["theory", "--set", "J=40", "--seed-list", "0", "--probes", "100", "--out-dir", "a_file/sub"],
     "Not a directory"),
    (["diagnose", "--set", "J=40", "--set", "K=4", "--probes", "100", "--out-dir", "a_file/sub"], "Not a directory"),
    (["train", "--set", "J=40", "--set", "K=1", "--out-dir", "a_file/sub"], "Not a directory"),
    (["gen-data", "--set", "J=40", "--out-dir", "a_file/sub"], "Not a directory"),
])
def test_cli_unusable_out_dir_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, named):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.chdir(tmp_path)
    for module, name in ((harness, "generate_data"), (harness, "run_grid"), (diagnostics, "estimate_constants")):
        monkeypatch.setattr(module, name, no_run)
    monkeypatch.setitem(fed.RUNNERS, "fgdra", no_run)
    Path("a_file").write_text("")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("risfed: error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert os.listdir(tmp_path) == ["a_file"]


def test_cli_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("K = 3\nJ = 120\neval_every = 1\nseeds = 0\n")
    out = str(tmp_path / "from_file")
    assert cli.main(["train", "--config", str(cfg_path), "--out-dir", out]) == 0
    rows = open(os.path.join(out, "runs.csv")).read().strip().split("\n")
    assert len(rows) - 1 == 3 * 1 * 3
