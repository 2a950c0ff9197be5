import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risfed import fed, mlp
from risfed.fed import (
    dual_step,
    dual_update,
    local_sgd,
    normalize,
    ps_aggregate,
    run_drfa,
    run_fedavg,
    run_fgdra,
    sample_workers,
)
from risfed.harness import ExperimentConfig


def test_sample_workers_degenerate_and_full():
    rng = np.random.default_rng(0)
    assert sample_workers(np.array([1.0, 0, 0, 0]), 1, rng).tolist() == [0]
    assert sample_workers(np.array([0.1, 0.2, 0.3, 0.4]), 4, rng).tolist() == [0, 1, 2, 3]


def test_sample_workers_proportional_frequency():
    lam = np.array([0.7, 0.1, 0.1, 0.1])
    rng = np.random.default_rng(123)
    hits = sum(sample_workers(lam, 1, rng)[0] == 0 for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(0.7, abs=0.01)


def test_sample_workers_fills_uniformly_when_weights_run_out():
    lam = np.array([1.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(1)
    for _ in range(20):
        picked = sample_workers(lam, 3, rng)
        assert len(set(picked.tolist())) == 3
        assert 0 in picked.tolist()


def test_sample_workers_results_sorted_distinct():
    rng = np.random.default_rng(2)
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    for _ in range(50):
        picked = sample_workers(lam, 2, rng)
        assert list(picked) == sorted(set(picked.tolist()))


def test_local_sgd_zero_weight_is_identity(tiny_fleet):
    train_sets, _ = tiny_fleet
    theta0 = mlp.init(np.random.default_rng(3))
    theta, _ = local_sgd(train_sets[0], theta0, 0.0, 5, 2e-3, 10, np.random.default_rng(4))
    assert theta.tobytes() == theta0.tobytes()


def test_local_sgd_single_step_oracle(tiny_fleet):
    train_sets, _ = tiny_fleet
    ds = train_sets[1]
    theta0 = mlp.init(np.random.default_rng(5))
    lam_n, alpha, B = 0.3, 2e-3, 12

    theta, _ = local_sgd(ds, theta0, lam_n, 1, alpha, B, np.random.default_rng(6))
    idx = np.random.default_rng(6).integers(0, len(ds), size=B)
    batch = mlp.MiniBatch(ds.features[idx], ds.labels[idx])
    expected = mlp.add_scaled(theta0, mlp.grad(theta0, batch), -alpha * lam_n)
    assert np.max(np.abs(theta - expected)) <= 1e-15


def test_local_sgd_product_invariance(tiny_fleet):
    train_sets, _ = tiny_fleet
    ds = train_sets[2]
    theta0 = mlp.init(np.random.default_rng(7))
    a = local_sgd(ds, theta0, 0.5, 4, 4e-3, 8, np.random.default_rng(8))[0]
    b = local_sgd(ds, theta0, 1.0, 4, 2e-3, 8, np.random.default_rng(8))[0]
    assert a.tobytes() == b.tobytes()


def test_local_sgd_snapshot_is_pre_step_iterate(tiny_fleet):
    train_sets, _ = tiny_fleet
    ds = train_sets[0]
    theta0 = mlp.init(np.random.default_rng(9))
    _, snap0 = local_sgd(ds, theta0, 1.0, 3, 1e-3, 8, np.random.default_rng(10), snapshot_at=0)
    assert snap0.tobytes() == theta0.tobytes()
    one_step, _ = local_sgd(ds, theta0, 1.0, 1, 1e-3, 8, np.random.default_rng(10))
    _, snap1 = local_sgd(ds, theta0, 1.0, 3, 1e-3, 8, np.random.default_rng(10), snapshot_at=1)
    assert snap1.tobytes() == one_step.tobytes()


def test_dual_update_gamma_zero_and_absorbing():
    assert dual_update(0.25, 1.3, 0.0) == 0.25
    assert dual_update(0.0, 1.3, 5e-3) == 0.0
    with pytest.raises(ValueError):
        dual_update(-0.1, 1.3, 5e-3)


def test_dual_update_direct_evaluation():
    # zero params give exactly ln(4) loss, so the factor is exp(gamma ln 4)
    theta = np.zeros(mlp.PARAM_COUNT)
    batch = mlp.MiniBatch(inputs=np.random.default_rng(0).standard_normal((10, 400)),
                          labels=np.random.default_rng(1).integers(0, 4, 10))
    got = dual_update(0.25, mlp.loss(theta, batch), 5e-3)
    assert got == pytest.approx(0.25 * math.exp(5e-3 * math.log(4.0)), rel=1e-12)
    assert got == pytest.approx(0.251736, abs=1e-5)


def test_dual_step_shifts_only_when_exp_would_overflow():
    lam = np.array([0.25, 0.25, 0.25, 0.25])
    losses = {0: 1.2, 2: 1.5, 3: 0.9}
    plain = lam.copy()
    for n, ell in losses.items():
        plain[n] = dual_update(0.25, ell, 5e-3)
    assert dual_step(lam, losses, 5e-3).tobytes() == normalize(plain).tobytes()
    # exp(1e4 * 1.5) overflows a float; the shifted step keeps the exact limit
    big = dual_step(lam, losses, 1e4)
    assert big.tolist() == [0.0, 0.0, 1.0, 0.0]
    # a zero-weight entry stays zero and does not set the shift
    out = dual_step(np.array([0.5, 0.0, 0.5, 0.0]), {0: 1.0, 1: 2.0, 2: 1.0 + 1e-3}, 1e4)
    assert np.all(np.isfinite(out)) and out[1] == 0.0 and out[3] == 0.0
    assert out[2] == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), rel=1e-12)


def test_ps_aggregate_contracts():
    rng = np.random.default_rng(12)
    p = mlp.init(rng)
    assert ps_aggregate([p]).tobytes() == p.tobytes()
    same = ps_aggregate([p, p, p])
    assert np.allclose(same, p)
    neg = mlp.add_scaled(p, p, -2.0)
    assert np.allclose(ps_aggregate([p, neg]), 0.0, atol=1e-18)
    with pytest.raises(ValueError):
        ps_aggregate([])


def test_normalize_contracts(caplog):
    assert np.allclose(normalize(np.array([2.0, 2, 2, 2])), 0.25)
    already = np.array([0.25, 0.25, 0.25, 0.25])
    assert np.max(np.abs(normalize(already) - already)) <= 1e-15
    assert np.allclose(normalize(np.array([1.0, 3.0])), [0.25, 0.75])
    with pytest.raises(ValueError):
        normalize(np.array([-0.1, 1.1]))
    with caplog.at_level("WARNING"):
        out = normalize(np.zeros(4))
    assert np.allclose(out, 0.25)
    assert any("resetting to uniform" in r.message for r in caplog.records)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=8).filter(lambda v: sum(v) > 0))
def test_normalize_simplex_property(values):
    out = normalize(np.array(values))
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) <= 1e-12


def run_pair(algorithm_a, algorithm_b, cfg_a, cfg_b, fleet, seed=0, K=None):
    train_sets, test_sets = fleet
    ra = fed.RUNNERS[algorithm_a](cfg_a, train_sets, test_sets, seed=seed, eval_every=cfg_a.K,
                                  checkpoint_rounds=set(range(cfg_a.K + 1)))
    rb = fed.RUNNERS[algorithm_b](cfg_b, train_sets, test_sets, seed=seed, eval_every=cfg_b.K,
                                  checkpoint_rounds=set(range(cfg_b.K + 1)))
    return ra, rb


def test_fgdra_gamma_zero_matches_fedavg_quarter_step(tiny_fleet):
    cfg_f = ExperimentConfig(N=4, m=4, K=25, tau=3, alpha=2e-3, gamma=0.0, B=10)
    cfg_a = ExperimentConfig(N=4, m=4, K=25, tau=3, alpha=2e-3 / 4, gamma=5e-3, B=10)
    ra, rb = run_pair("fgdra", "fedavg", cfg_f, cfg_a, tiny_fleet)
    drift = sum(
        float(np.linalg.norm(ra.theta_checkpoints[k] - rb.theta_checkpoints[k]))
        for k in range(26)
    )
    assert drift <= 1e-9


def test_drfa_gamma_zero_matches_fedavg_quarter_step(tiny_fleet):
    cfg_d = ExperimentConfig(N=4, m=3, K=20, tau=3, alpha=2e-3, gamma=0.0, B=10)
    cfg_a = ExperimentConfig(N=4, m=3, K=20, tau=3, alpha=2e-3 / 4, gamma=5e-3, B=10)
    ra, rb = run_pair("drfa", "fedavg", cfg_d, cfg_a, tiny_fleet)
    drift = sum(
        float(np.linalg.norm(ra.theta_checkpoints[k] - rb.theta_checkpoints[k]))
        for k in range(21)
    )
    assert drift <= 1e-9
    assert all(np.allclose(log.lam, 0.25) for log in ra.round_logs)


def test_fgdra_single_worker_reduces_to_local_sgd(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(N=1, m=1, K=8, tau=4, alpha=3e-3, gamma=5e-3, B=10)
    result = run_fgdra(cfg, train_sets[:1], test_sets[:1], seed=5, eval_every=8)
    theta = mlp.init(fed.substream(5, 0))
    for k in range(cfg.K):
        theta, _ = local_sgd(train_sets[0], theta, 1.0, cfg.tau, cfg.alpha, cfg.B,
                             fed.substream(5, 2, 0, k))
        theta = ps_aggregate([theta])
    assert result.final_theta.tobytes() == theta.tobytes()
    assert np.allclose(result.lambda_history, 1.0)


def test_fedavg_one_round_equals_centralized_step(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    J = len(train_sets[0])
    cfg = ExperimentConfig(N=4, m=4, K=1, tau=1, alpha=1e-3, gamma=5e-3, B=J)
    result = run_fedavg(cfg, train_sets, test_sets, seed=2, eval_every=1,
                        checkpoint_rounds={0, 1})
    theta0 = result.theta_checkpoints[0]
    grads = []
    for n in range(4):
        idx = fed.substream(2, 2, n, 0).integers(0, len(train_sets[n]), size=J)
        batch = mlp.MiniBatch(train_sets[n].features[idx], train_sets[n].labels[idx])
        grads.append(mlp.grad(theta0, batch))
    expected = theta0 - (cfg.alpha / 4) * np.sum(grads, axis=0)
    assert np.max(np.abs(result.theta_checkpoints[1] - expected)) <= 1e-12


def test_fedavg_logs_uniform_lambda(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=5, tau=2, B=10)
    result = run_fedavg(cfg, train_sets, test_sets, seed=0, eval_every=1)
    for log in result.round_logs:
        assert np.allclose(log.lam, 0.25)


def test_communication_accounting(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=7, tau=2, B=10)
    r_f = run_fgdra(cfg, train_sets, test_sets, seed=1, eval_every=1)
    r_a = run_fedavg(cfg, train_sets, test_sets, seed=1, eval_every=1)
    r_d = run_drfa(cfg, train_sets, test_sets, seed=1, eval_every=1)
    assert r_f.communication_rounds_consumed == 7
    assert r_a.communication_rounds_consumed == 7
    assert r_d.communication_rounds_consumed == 14
    assert [log.communication_rounds_consumed for log in r_d.round_logs] == [2 * k for k in range(1, 8)]


def test_simplex_invariant_every_round(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=40, tau=2, B=10)
    for runner in (run_fgdra, run_drfa):
        result = runner(cfg, train_sets, test_sets, seed=3, eval_every=40)
        lam = result.lambda_history
        assert np.all(lam >= 0)
        assert np.max(np.abs(lam.sum(axis=1) - 1.0)) <= 1e-12


def test_monotone_dual_pressure(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=12, tau=2, B=10)
    result = run_fgdra(cfg, train_sets, test_sets, seed=4, eval_every=12)
    for k, losses in enumerate(result.dual_loss_history):
        if len(losses) < 2:
            continue
        pre, post = result.lambda_history[k], result.lambda_history[k + 1]
        factors = {n: post[n] * 1.0 / pre[n] for n in losses}  # common normalization cancels in argmax
        assert max(factors, key=factors.get) == max(losses, key=losses.get)


@pytest.mark.parametrize("algorithm,loss_scale", [("fgdra", 1.0), ("drfa", 4 / 3)])
def test_lambda_history_replays_the_dual_step(tiny_fleet, algorithm, loss_scale):
    # every round: sampled entries lifted by dual_update on the recorded loss
    # (drfa's scaled by N/m), then the vector renormalized
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=6, tau=2, B=10)
    result = fed.RUNNERS[algorithm](cfg, train_sets, test_sets, seed=6, eval_every=6)
    for k, losses in enumerate(result.dual_loss_history):
        assert len(losses) == cfg.m
        lam = result.lambda_history[k].copy()
        for n, ell in losses.items():
            lam[n] = dual_update(float(lam[n]), ell, cfg.gamma * loss_scale)
        assert normalize(lam).tobytes() == result.lambda_history[k + 1].tobytes()


@pytest.mark.parametrize("algorithm", fed.ALGORITHMS)
def test_run_result_names_its_algorithm(tiny_fleet, algorithm):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=1, tau=1, B=10)
    result = fed.RUNNERS[algorithm](cfg, train_sets, test_sets)
    assert result.algorithm == algorithm and result.config is cfg
    assert result.seed == 0


def test_run_reproducibility(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=10, tau=2, B=10)
    r1 = run_drfa(cfg, train_sets, test_sets, seed=9, eval_every=2)
    r2 = run_drfa(cfg, train_sets, test_sets, seed=9, eval_every=2)
    assert r1.lambda_history.tobytes() == r2.lambda_history.tobytes()
    assert r1.final_theta.tobytes() == r2.final_theta.tobytes()
    assert [l.avg_acc for l in r1.round_logs] == [l.avg_acc for l in r2.round_logs]


def test_eval_every_thinning(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=10, tau=1, B=10)
    result = run_fgdra(cfg, train_sets, test_sets, seed=0, eval_every=4)
    assert [log.round for log in result.round_logs] == [4, 8, 10]


def test_round_log_invariants(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=4, tau=2, B=10)
    result = run_fgdra(cfg, train_sets, test_sets, seed=0, eval_every=1)
    for log in result.round_logs:
        assert log.worst_acc <= log.avg_acc
        assert log.acc_sd >= 0
        assert log.per_worker_acc.shape == (4,)
