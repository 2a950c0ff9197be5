import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risfed import cli, harness, metrics, mlp
from risfed.harness import ExperimentConfig, SeedDataCache, apply_overrides, parse_config, serialize_config
from risfed.labeling import Dataset


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
    return mlp.ModelParams(W1=np.zeros((64, 400)), b1=np.zeros(64), W2=np.zeros((32, 64)),
                           b2=np.zeros(32), W3=np.zeros((4, 32)), b3=np.zeros(4))


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


def test_parse_config_empty_file_gives_table_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n")
    cfg = parse_config(str(path))
    assert (cfg.alpha, cfg.gamma, cfg.B, cfg.N, cfg.tau, cfg.m) == (2e-3, 5e-3, 50, 4, 10, 3)
    assert cfg.K == 800 and cfg.seeds == (0, 1, 2, 3, 4)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError, match="learning_rate"):
        parse_config(str(path))


def test_parse_config_rejects_invalid_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tau = abc\n")
    with pytest.raises(ValueError, match="tau"):
        parse_config(str(path))


def test_parse_config_rejects_m_greater_than_N(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("N = 2\nm = 3\n")
    with pytest.raises(ValueError):
        parse_config(str(path))


def test_config_round_trip_canonical(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("alpha = 0.004   # comment\nseeds = 3, 4,5\nsweep_axis = tau\nsweep_values = 1,5,10\n")
    cfg = parse_config(str(path))
    canonical = serialize_config(cfg)
    path2 = tmp_path / "c2.cfg"
    path2.write_text(canonical)
    cfg2 = parse_config(str(path2))
    assert cfg2 == cfg
    assert serialize_config(cfg2) == canonical


def test_apply_overrides():
    cfg = apply_overrides(ExperimentConfig(), {"K": "12", "seeds": "7,8", "out_dir": "elsewhere"})
    assert cfg.K == 12 and cfg.seeds == (7, 8) and cfg.out_dir == "elsewhere"
    with pytest.raises(ValueError, match="bogus"):
        apply_overrides(cfg, {"bogus": "1"})


def test_build_profiles_design():
    cfg = ExperimentConfig()
    profiles = harness.build_profiles(cfg)
    assert len(profiles) == 4
    spacings = [p.geometry.element_spacing / cfg.wavelength for p in profiles]
    assert spacings == pytest.approx([0.125, 0.25, 0.5, 1.0])
    anchor = profiles[0].geometry
    assert math.degrees(anchor.rx.azimuth) == pytest.approx(110.0)
    base = 0.125 * math.sin(anchor.rx.azimuth)
    for p in profiles[1:]:
        sp = p.geometry.element_spacing / cfg.wavelength
        assert sp * math.sin(p.geometry.rx.azimuth) == pytest.approx(base + harness.ALIAS_RAMP_OFFSET)
    again = harness.build_profiles(cfg)
    assert again[2].geometry.scatterers == profiles[2].geometry.scatterers


@pytest.mark.parametrize("overrides,key", [
    ({"alpha": math.nan}, "alpha"),
    ({"gamma": math.inf}, "gamma"),
    ({"train_fraction": math.nan}, "train_fraction"),
    ({"noise_psd": -math.inf}, "noise_psd"),
    ({"spacings": (0.125, math.inf)}, "spacings"),
    ({"tau": 2.5}, "tau"),
    ({"sweep_axis": "tau", "sweep_values": (2.7,)}, "sweep_values"),
    ({"sweep_axis": "B", "sweep_values": (math.nan,)}, "sweep_values"),
    ({"sweep_axis": "m", "sweep_values": (2.0, 9.0)}, "sweep_values"),
    ({"N": 5}, "spacings"),
    ({"spacings": (1.0, 0.5, 0.25, 0.125)}, "spacings"),
])
def test_config_rejects_bad_values_naming_the_key(overrides, key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**overrides)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4))
def test_alias_geometry_rejected_at_config_or_buildable(N, spacings):
    try:
        cfg = ExperimentConfig(N=N, m=1, spacings=tuple(spacings))
    except ValueError as exc:
        assert "spacings" in str(exc) and f"N={N}" in str(exc)
        return
    assert len(harness.build_profiles(cfg)) == N


def test_run_experiment_row_count_and_rerun_identical(tmp_path):
    cfg = small_config(tmp_path, eval_every=1)
    result = harness.run_experiment(cfg)
    rows = open(result.csv_path).read().strip().split("\n")
    assert len(rows) - 1 == len(cfg.algorithms) * len(cfg.seeds) * cfg.K
    first = open(result.csv_path, "rb").read()
    harness.run_experiment(cfg)
    assert open(result.csv_path, "rb").read() == first


def test_run_experiment_summary_matches_final_rows(tmp_path):
    cfg = small_config(tmp_path)
    result = harness.run_experiment(cfg)
    with open(result.csv_path) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f]
    col = {name: i for i, name in enumerate(header)}
    for alg in cfg.algorithms:
        finals = [float(r[col["avg_acc"]]) for r in rows
                  if r[col["algorithm"]] == alg and int(r[col["round"]]) == cfg.K]
        assert result.summary.per_algorithm[alg].avg_acc_mean == pytest.approx(float(np.mean(finals)))


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
    cfg = small_config(tmp_path, sweep_axis="tau", sweep_values=(1.0, 2.0, 3.0))
    cells = harness.run_sweep(cfg)
    assert len(cells) == 9  # 3 algorithms x 3 values
    assert {c.algorithm for c in cells} == {"fgdra", "drfa", "fedavg"}
    for c in cells:
        assert re.fullmatch(r"\d+\.\d{2}/\d+\.\d{2}", c.cell)
    assert os.path.exists(os.path.join(cfg.out_dir, "sweep.csv"))

    m_cfg = small_config(tmp_path, sweep_axis="m", sweep_values=(1.0, 2.0))
    assert len(harness.run_sweep(m_cfg)) == 6

    with pytest.raises(ValueError):
        harness.run_sweep(small_config(tmp_path))


def test_emit_plot_data(tmp_path):
    cfg = small_config(tmp_path, eval_every=2)
    result = harness.run_experiment(cfg)
    paths = harness.emit_plot_data(result.csv_path, cfg.out_dir)
    assert [os.path.basename(p) for p in paths] == ["fig_avg.csv", "fig_worst.csv", "fig_sd.csv"]

    with open(result.csv_path) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f]
    col = {name: i for i, name in enumerate(header)}

    with open(paths[0]) as f:
        pheader = f.readline().strip().split(",")
        prows = [line.strip().split(",") for line in f]
    pcol = {name: i for i, name in enumerate(pheader)}
    assert len(prows) == 3 * (cfg.K // cfg.eval_every)  # 3 algorithms x logged rounds

    # per (algorithm, round): mean over seeds and se = sd/sqrt(n)
    for prow in prows[:4]:
        alg, rnd = prow[pcol["algorithm"]], prow[pcol["round"]]
        vals = np.array([float(r[col["avg_acc"]]) for r in rows
                         if r[col["algorithm"]] == alg and r[col["round"]] == rnd])
        assert float(prow[pcol["mean"]]) == pytest.approx(vals.mean())
        assert float(prow[pcol["se"]]) == pytest.approx(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    # monotone round column per algorithm
    for alg in ("fgdra", "drfa", "fedavg"):
        rounds = [int(r[pcol["round"]]) for r in prows if r[pcol["algorithm"]] == alg]
        assert rounds == sorted(rounds)


def test_export_datasets_round_trip(tmp_path):
    from risfed.labeling import load_dataset
    cfg = small_config(tmp_path, J=80)
    written = harness.export_datasets(cfg, cfg.out_dir)
    assert len(written) == 8  # 4 workers x train/test
    ds = load_dataset(written[0][:-4])
    assert len(ds) == 64


def test_cli_subcommands(tmp_path):
    out = str(tmp_path / "cli")
    base = ["--set", "K=4", "--set", "J=120", "--set", "eval_every=2", "--seed-list", "0"]
    assert cli.main(["gen-data", "--out-dir", out] + base) == 0
    assert cli.main(["train", "--out-dir", out] + base) == 0
    assert os.path.exists(os.path.join(out, "runs.csv"))
    assert cli.main(["plot-data", "--out-dir", out] + base) == 0
    assert cli.main(["sweep", "--out-dir", out, "--set", "sweep_axis=tau",
                     "--set", "sweep_values=1,2"] + base) == 0
    assert cli.main(["diagnose", "--out-dir", out, "--probes", "100"] + base) == 0
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))


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


def test_cli_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("K = 3\nJ = 120\neval_every = 1\nseeds = 0\n")
    out = str(tmp_path / "from_file")
    assert cli.main(["train", "--config", str(cfg_path), "--out-dir", out]) == 0
    rows = open(os.path.join(out, "runs.csv")).read().strip().split("\n")
    assert len(rows) - 1 == 3 * 1 * 3
