"""Acceptance suite: one test per criterion, at the stated tolerances.

The heavy multi-seed batteries are shared module-scoped fixtures; the
default battery (3 algorithms x 5 seeds x 800 rounds) is timed so the
runtime criteria can be asserted.  Every test prints one PASS line (visible
under ``pytest -s``); a failure shows up as the test failing.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from risfed import fed, harness, mlp
from risfed.fed import ALGORITHMS
from risfed.harness import ExperimentConfig, SeedDataCache
from risfed.labeling import build_codebook, decode_features, rate

@pytest.fixture(scope="module")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def cache(config):
    return SeedDataCache(config)


@pytest.fixture(scope="module")
def default_battery(config, cache, tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("default"))
    t0 = time.perf_counter()
    result = harness.run_experiment(replace(config, out_dir=out_dir), cache)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def m2_battery(config, cache, tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("m2"))
    return harness.run_experiment(replace(config, m=2, eval_every=config.K, out_dir=out_dir), cache)


@pytest.fixture(scope="module")
def sweep_cells(config, cache, default_battery, tmp_path_factory):
    """Final-round summary per (axis, value, algorithm); the tau=10 / B=50
    cell is the default battery."""
    default, _ = default_battery
    cells = {}
    for alg, summary in default.summary.per_algorithm.items():
        cells[("tau", 10, alg)] = cells[("B", 50, alg)] = summary
    for axis, values in (("tau", (1.0, 5.0)), ("B", (10.0, 30.0))):
        sweep = replace(config, eval_every=config.K, sweep_axis=axis, sweep_values=values,
                        out_dir=str(tmp_path_factory.mktemp(axis)))
        for c in harness.run_sweep(sweep, cache):
            cells[(axis, c.value, c.summary.algorithm)] = c.summary
    return cells


@pytest.fixture(scope="module")
def theory_battery(config):
    return harness.theory_check(replace(config, seeds=(0, 1, 2, 3)), n_probes=120)


def test_c01_gradient_correctness(tiny_fleet):
    """Backprop vs central finite differences, rel err <= 1e-5, < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    step = 1e-5
    worst = 0.0
    for _ in range(5):
        params = mlp.init(rng)
        inputs = rng.standard_normal((rng.integers(2, 16), 400))
        batch = mlp.MiniBatch(inputs, rng.integers(0, 4, len(inputs)))
        analytic = mlp.grad(params, batch)
        for c in rng.choice(params.size, size=20, replace=False):
            plus, minus = params.copy(), params.copy()
            plus[c] += step
            minus[c] -= step
            fd = (mlp.loss(plus, batch) - mlp.loss(minus, batch)) / (2 * step)
            denom = max(abs(fd), abs(analytic[c]), 1e-8)
            worst = max(worst, abs(fd - analytic[c]) / denom)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: max FD relative error {worst:.2e} in {elapsed:.1f}s")


def test_c02_reduction_equivalence(config, cache):
    """FGDRA(gamma=0, m=N=4) vs FedAvg(alpha/4): <= 1e-9 drift over K=100."""
    t0 = time.perf_counter()
    train_sets, test_sets = cache.for_seed(0)
    ckpts = set(range(101))
    cfg_f = replace(config, m=4, K=100, gamma=0.0)
    cfg_a = replace(config, m=4, K=100, alpha=config.alpha / 4)
    rf = fed.run(cfg_f, train_sets, test_sets, seed=0, eval_every=100, checkpoint_rounds=ckpts, algorithm="fgdra")
    ra = fed.run(cfg_a, train_sets, test_sets, seed=0, eval_every=100, checkpoint_rounds=ckpts, algorithm="fedavg")
    drift = sum(
        float(np.linalg.norm(rf.theta_checkpoints[k] - ra.theta_checkpoints[k]))
        for k in range(101)
    )
    elapsed = time.perf_counter() - t0
    assert drift <= 1e-9
    assert elapsed < 120.0
    print(f"\nCRITERION 2 PASS: accumulated drift {drift:.2e} over K=100 in {elapsed:.0f}s")


def test_c03_simplex_invariant(default_battery):
    """lambda >= 0 and |sum - 1| <= 1e-12 after every round of a K=800 run."""
    result, _ = default_battery
    lam = result.runs[("fgdra", 0)].lambda_history
    assert lam.shape[0] == 801
    assert np.all(lam >= 0.0)
    worst_dev = float(np.max(np.abs(lam.sum(axis=1) - 1.0)))
    assert worst_dev <= 1e-12
    print(f"\nCRITERION 3 PASS: max |sum(lambda)-1| = {worst_dev:.2e} over 800 rounds")


def test_c04_label_oracle_equality(config, cache):
    """Stored labels equal an exhaustive re-evaluation on 1,000 samples."""
    profiles = harness.build_profiles(config)
    train_sets, _ = cache.for_seed(0)
    checked = 0
    for profile, train in zip(profiles, train_sets):
        codebook = build_codebook(profile.geometry)
        for j in range(250):
            h, g = decode_features(train.features[j], train.scaler)
            rates = [rate(codebook.codewords[c], h, g, profile.rate) for c in range(4)]
            best = int(np.argmax(rates))  # argmax takes the lowest index on ties
            assert best == train.labels[j]
            checked += 1
    assert checked == 1000
    print(f"\nCRITERION 4 PASS: {checked} labels match exhaustive re-evaluation")


def test_c05_robustness_ordering(default_battery):
    """Worst-accuracy means: FGDRA >= DRFA >= FedAvg, FGDRA - FedAvg >= 5."""
    result, elapsed = default_battery
    stats = result.summary.per_algorithm
    fg, dr, fa = (stats[alg].worst_acc_mean for alg in ("fgdra", "drfa", "fedavg"))
    assert fg >= dr >= fa
    assert fg - fa >= 5.0
    assert elapsed < 1800.0
    print(f"\nCRITERION 5 PASS: worst acc fgdra {fg:.2f} >= drfa {dr:.2f} "
          f">= fedavg {fa:.2f}; gap {fg - fa:.2f} pts; battery {elapsed:.0f}s")


def test_c06_fairness_gap_at_m2(m2_battery):
    """(average - worst) gaps at m=2: FGDRA < DRFA < FedAvg, >= 4 pt margin."""
    gaps = {alg: s.avg_acc_mean - s.worst_acc_mean for alg, s in m2_battery.summary.per_algorithm.items()}
    assert gaps["fgdra"] < gaps["drfa"] < gaps["fedavg"]
    assert gaps["fedavg"] - gaps["fgdra"] >= 4.0
    print(f"\nCRITERION 6 PASS: m=2 gaps fgdra {gaps['fgdra']:.2f} < drfa {gaps['drfa']:.2f} "
          f"< fedavg {gaps['fedavg']:.2f}")


def test_c07_communication_efficiency(config, default_battery):
    """FGDRA reaches DRFA's final worst accuracy in <= 0.7x the exchanges."""
    result, _ = default_battery
    runs = result.runs
    drfa_final = result.summary.per_algorithm["drfa"].worst_acc_mean
    drfa_comm = runs[("drfa", 0)].round_logs[-1].communication_rounds_consumed
    grid = [log.communication_rounds_consumed for log in runs[("fgdra", 0)].round_logs]
    mean_curve = np.mean(
        [[log.worst_acc for log in runs[("fgdra", s)].round_logs] for s in config.seeds], axis=0)
    crossing = next((c for c, v in zip(grid, mean_curve) if v >= drfa_final), None)
    assert crossing is not None, "FGDRA never reached DRFA's final worst accuracy"
    assert crossing <= 0.7 * drfa_comm
    print(f"\nCRITERION 7 PASS: FGDRA hit DRFA's final worst ({drfa_final:.2f}) at "
          f"{crossing} comm rounds vs DRFA's {drfa_comm} (ratio {crossing / drfa_comm:.2f})")


def test_c08_monotone_trends(sweep_cells):
    """avg and worst non-decreasing in tau and B, within one-SE-per-cell
    slack (dips smaller than the adjacent cells' combined SEs pass)."""
    violations = []
    for axis, values in (("tau", (1, 5, 10)), ("B", (10, 30, 50))):
        for alg in ALGORITHMS:
            for metric in ("avg", "worst"):
                for lo, hi in zip(values, values[1:]):
                    a = sweep_cells[(axis, lo, alg)]
                    b = sweep_cells[(axis, hi, alg)]
                    mean_a, mean_b = getattr(a, f"{metric}_acc_mean"), getattr(b, f"{metric}_acc_mean")
                    slack = getattr(a, f"{metric}_acc_se") + getattr(b, f"{metric}_acc_se")
                    if mean_b < mean_a - slack:
                        violations.append(
                            f"{alg} {metric} {axis} {lo}->{hi}: {mean_a:.2f} -> {mean_b:.2f} "
                            f"(slack {slack:.2f})")
    assert not violations, "\n".join(violations)
    print("\nCRITERION 8 PASS: all tau/B trends non-decreasing within one SE")


def test_c09_theorem_decay_and_bound(theory_battery):
    """Schedule-matched runs: log-log slope in [-1.0, -0.2]; bound holds in
    >= 95% of the 20 runs."""
    records = theory_battery
    assert len(records) == 20
    slope = harness.theory_decay_slope(records)
    holds = sum(r["running_mean"] <= r["bound"] for r in records)
    assert -1.0 <= slope <= -0.2
    assert holds >= math.ceil(0.95 * len(records))
    print(f"\nCRITERION 9 PASS: slope {slope:.3f} in [-1.0, -0.2]; bound holds {holds}/20")


def test_c10_determinism(tmp_path):
    """Same (config, seed) twice -> byte-identical CSV output."""
    cfg = ExperimentConfig(K=30, J=400, eval_every=3, seeds=(0, 1),
                           out_dir=str(tmp_path / "a"))
    first = harness.run_experiment(cfg)
    payload_a = open(first.csv_path, "rb").read()
    cfg_b = ExperimentConfig(K=30, J=400, eval_every=3, seeds=(0, 1),
                             out_dir=str(tmp_path / "b"))
    second = harness.run_experiment(cfg_b)
    payload_b = open(second.csv_path, "rb").read()
    assert payload_a == payload_b
    assert payload_a  # nonempty
    print(f"\nCRITERION 10 PASS: {len(payload_a)} CSV bytes identical across executions")
