import math
import re
from dataclasses import replace

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
    assert theta.tobytes() == expected.tobytes()


def reference_local_sgd(ds, theta0, lambda_n, tau, alpha, B, rng, snapshot_at):
    """The step as the allocating p + coeff * q, with a copied snapshot."""
    theta, snapshot = theta0, None
    for t in range(tau):
        if t == snapshot_at:
            snapshot = theta.copy()
        idx = rng.integers(0, len(ds), size=B)
        batch = mlp.MiniBatch(ds.features[idx], ds.labels[idx])
        theta = mlp.add_scaled(theta, mlp.grad(theta, batch), -alpha * lambda_n)
    return theta, snapshot


@settings(max_examples=30, deadline=None)
@given(tau=st.integers(1, 4), B=st.integers(1, 16), lambda_n=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_local_sgd_matches_allocating_reference(tiny_fleet, tau, B, lambda_n, seed, data):
    snapshot_at = data.draw(st.none() | st.integers(0, tau - 1), label="snapshot_at")
    ds = tiny_fleet[0][seed % 4]
    theta0 = mlp.init(np.random.default_rng(seed))
    before = theta0.tobytes()
    theta, snapshot = local_sgd(ds, theta0, lambda_n, tau, 5e-2, B, np.random.default_rng(seed + 1),
                                snapshot_at=snapshot_at)
    ref_theta, ref_snapshot = reference_local_sgd(ds, theta0, lambda_n, tau, 5e-2, B,
                                                  np.random.default_rng(seed + 1), snapshot_at)
    assert theta.tobytes() == ref_theta.tobytes()
    assert theta0.tobytes() == before
    if snapshot_at is None:
        assert snapshot is None
    else:  # the later steps wrote nothing into the snapshot they started from
        assert snapshot.tobytes() == ref_snapshot.tobytes()


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


def test_normalize_contracts():
    assert np.allclose(normalize(np.array([2.0, 2, 2, 2])), 0.25)
    already = np.array([0.25, 0.25, 0.25, 0.25])
    assert np.max(np.abs(normalize(already) - already)) <= 1e-15
    assert np.allclose(normalize(np.array([1.0, 3.0])), [0.25, 0.75])


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
    result = fed.run(cfg, train_sets[:1], test_sets[:1], seed=5, eval_every=8, algorithm="fgdra")
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
    result = fed.run(cfg, train_sets, test_sets, seed=2, eval_every=1, checkpoint_rounds={0, 1},
                     algorithm="fedavg")
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
    result = fed.run(cfg, train_sets, test_sets, seed=0, eval_every=1, algorithm="fedavg")
    for log in result.round_logs:
        assert np.allclose(log.lam, 0.25)


def test_communication_accounting(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=7, tau=2, B=10)
    r_f, r_a, r_d = (fed.run(cfg, train_sets, test_sets, seed=1, eval_every=1, algorithm=alg)
                     for alg in ("fgdra", "fedavg", "drfa"))
    assert r_f.communication_rounds_consumed == 7
    assert r_a.communication_rounds_consumed == 7
    assert r_d.communication_rounds_consumed == 14
    assert [log.communication_rounds_consumed for log in r_d.round_logs] == [2 * k for k in range(1, 8)]


def test_simplex_invariant_every_round(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=40, tau=2, B=10)
    for algorithm in ("fgdra", "drfa"):
        result = fed.run(cfg, train_sets, test_sets, seed=3, eval_every=40, algorithm=algorithm)
        lam = result.lambda_history
        assert np.all(lam >= 0)
        assert np.max(np.abs(lam.sum(axis=1) - 1.0)) <= 1e-12


def test_monotone_dual_pressure(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=12, tau=2, B=10)
    result = fed.run(cfg, train_sets, test_sets, seed=4, eval_every=12, algorithm="fgdra")
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
    # RUNNERS and the run_<algorithm> names bind fed.run to each algorithm and nothing else
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=1, tau=1, B=10)
    assert tuple(fed.RUNNERS) == fed.ALGORITHMS
    assert getattr(fed, f"run_{algorithm}") is fed.RUNNERS[algorithm]
    bound = fed.RUNNERS[algorithm](cfg, train_sets, test_sets)
    direct = fed.run(cfg, train_sets, test_sets, algorithm=algorithm)
    assert bound.final_theta.tobytes() == direct.final_theta.tobytes()
    assert bound.lambda_history.tobytes() == direct.lambda_history.tobytes()
    for result in (bound, direct):
        assert result.algorithm == algorithm and result.config is cfg
        assert result.seed == 0


@pytest.mark.parametrize("algorithm", fed.ALGORITHMS)
def test_run_stops_at_the_first_round_that_leaves_the_model_non_finite(tiny_fleet, algorithm):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=5, tau=2, B=10, alpha=1e12)
    named = r"round \d+ left the model or lambda non-finite; alpha=1e\+12 "
    with pytest.raises(FloatingPointError, match=named) as exc:
        fed.run(cfg, train_sets, test_sets, algorithm=algorithm)
    first = int(re.search(r"round (\d+)", str(exc.value)).group(1))
    if first > 1:  # the rounds before it ran as usual
        earlier = fed.run(replace(cfg, K=first - 1), train_sets, test_sets, algorithm=algorithm)
        assert np.isfinite(earlier.final_theta).all() and np.isfinite(earlier.lambda_history).all()


@pytest.mark.parametrize("algorithm", ["fgdra", "drfa"])
def test_run_names_gamma_too_when_the_dual_step_overflows(tiny_fleet, algorithm):
    # gamma * loss overflows to inf, so no shift keeps the lifted weights finite
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=1, tau=1, B=10, gamma=1e308)
    with pytest.raises(FloatingPointError, match=r"round 1 .* alpha=0.002 or gamma=1e\+308 is too large a step"):
        fed.run(cfg, train_sets, test_sets, algorithm=algorithm)


def test_run_reproducibility(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=10, tau=2, B=10)
    r1, r2 = (fed.run(cfg, train_sets, test_sets, seed=9, eval_every=2, algorithm="drfa") for _ in range(2))
    assert r1.lambda_history.tobytes() == r2.lambda_history.tobytes()
    assert r1.final_theta.tobytes() == r2.final_theta.tobytes()
    assert [l.avg_acc for l in r1.round_logs] == [l.avg_acc for l in r2.round_logs]


def test_eval_every_thinning(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=10, tau=1, B=10)
    result = fed.run(cfg, train_sets, test_sets, seed=0, eval_every=4, algorithm="fgdra")
    assert [log.round for log in result.round_logs] == [4, 8, 10]


def test_round_log_invariants(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=4, tau=2, B=10)
    result = fed.run(cfg, train_sets, test_sets, seed=0, eval_every=1, algorithm="fgdra")
    for log in result.round_logs:
        assert log.worst_acc <= log.avg_acc
        assert log.acc_sd >= 0
        assert log.per_worker_acc.shape == (4,)
