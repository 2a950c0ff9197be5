import math
import sys
import threading

import numpy as np
import pytest

from risfed import diagnostics, fed, mlp
from risfed.diagnostics import (
    MIN_CHECKPOINTS,
    ConvergenceTrace,
    TheoryEstimates,
    estimate_constants,
    fit_loglog_slope,
    full_batch_grad,
    grad_norm_trace,
    prescribed_schedule,
    round_checkpoints,
    running_mean,
    theorem_bound,
    weighted_grad_norm_sq,
)
from risfed.harness import ExperimentConfig


def test_theorem_bound_zero_constants():
    est = TheoryEstimates(sigma_hat=0.0, nu_hat=0.0, L_hat=1.0, F0=0.0)
    assert theorem_bound(est, 3, 100) == 0.0


def test_theorem_bound_paper_coefficients():
    # m=8, sigma=1, nu=0, F0=0, T=1 -> 17/2 + 8/8 = 9.5
    est = TheoryEstimates(sigma_hat=1.0, nu_hat=0.0, L_hat=1.0, F0=0.0)
    assert theorem_bound(est, 8, 1) == pytest.approx(9.5, abs=1e-15)


def test_theorem_bound_sqrt_T_scaling():
    est = TheoryEstimates(sigma_hat=1.3, nu_hat=0.4, L_hat=2.0, F0=1.1)
    assert theorem_bound(est, 3, 400) == pytest.approx(theorem_bound(est, 3, 100) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        theorem_bound(est, 0, 10)


def test_fit_loglog_slope_exact_power_laws():
    t = np.arange(1, 40, dtype=float)
    for exponent in (-0.5, 0.0, -1.0):
        assert fit_loglog_slope(t, 3.7 * t ** exponent) == pytest.approx(exponent, abs=1e-6)


def test_fit_loglog_slope_skips_nonpositive_with_warning():
    t = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    v = np.array([1.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
    with pytest.warns(UserWarning, match="nonpositive"):
        slope = fit_loglog_slope(t, v)
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_fit_loglog_slope_needs_two_points_and_diagnose_five_checkpoints():
    # risfed diagnose refuses K = 3 and runs K = 4
    assert len(round_checkpoints(3)) < MIN_CHECKPOINTS <= len(round_checkpoints(4))
    with pytest.raises(ValueError):
        fit_loglog_slope(np.array([1.0]), np.array([1.0]))


def test_running_mean_time_weighted_hand_case():
    trace = ConvergenceTrace(t=np.array([0, 1, 3]), grad_norm_sq=np.array([6.0, 3.0, 1.0]))
    rm = running_mean(trace)
    # weights 1, 1, 2 -> cumulative means 6, 4.5, (6+3+2)/4
    assert isinstance(rm, np.ndarray)
    assert np.allclose(rm, [6.0, 4.5, 2.75])


def test_round_checkpoints_cover_transient_and_end():
    ck = round_checkpoints(800)
    assert ck[0] == 0 and ck[1] == 1 and ck[-1] == 800
    assert ck == sorted(set(ck))


def test_grad_norm_trace_single_worker_oracle(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(spacings=(0.125,), m=1, K=6, tau=3, alpha=2e-3, gamma=0.0, B=10)
    result = fed.run(cfg, train_sets[:1], test_sets[:1], seed=0, eval_every=6,
                     checkpoint_rounds={0, 3, 6}, algorithm="fgdra")
    trace = grad_norm_trace(result, train_sets[:1], [0, 3, 6])
    for i, k in enumerate([0, 3, 6]):
        g = full_batch_grad(result.theta_checkpoints[k], train_sets[0])
        assert trace.grad_norm_sq[i] == pytest.approx(float(g @ g), rel=1e-12)
    assert trace.t.tolist() == [0, 9, 18]


def test_grad_norm_trace_recomposition(tiny_fleet):
    train_sets, _ = tiny_fleet
    theta = mlp.init(np.random.default_rng(21))
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    manual = np.zeros(mlp.PARAM_COUNT)
    for n in range(4):
        manual += lam[n] * full_batch_grad(theta, train_sets[n])
    assert weighted_grad_norm_sq(theta, lam, train_sets) == pytest.approx(float(manual @ manual), rel=1e-12)


def test_grad_norm_trace_missing_checkpoint_rejected(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=4, tau=2, B=10)
    result = fed.run(cfg, train_sets, test_sets, seed=0, eval_every=4, checkpoint_rounds={0, 4}, algorithm="fgdra")
    with pytest.raises(ValueError):
        grad_norm_trace(result, train_sets, [0, 2, 4])


def test_trace_near_zero_at_fitted_model(tiny_fleet):
    train_sets, _ = tiny_fleet
    ds = train_sets[3]
    rng = np.random.default_rng(22)
    theta = mlp.init(rng)
    init_norm = weighted_grad_norm_sq(theta, np.array([1.0]), [ds])
    for _ in range(3000):
        idx = rng.integers(0, len(ds), 32)
        theta = theta + -0.05 * mlp.grad(theta, mlp.MiniBatch(ds.features[idx], ds.labels[idx]))
    fitted_norm = weighted_grad_norm_sq(theta, np.array([1.0]), [ds])
    assert fitted_norm < 0.05 * init_norm


def test_estimate_constants_contracts(tiny_fleet):
    train_sets, _ = tiny_fleet
    est = estimate_constants(train_sets, n_probes=100, rng=np.random.default_rng(0), batch_size=20)
    assert est.sigma_hat > 0 and est.nu_hat > 0 and est.L_hat > 0 and est.F0 > 0
    with pytest.raises(ValueError):
        estimate_constants(train_sets, n_probes=50, rng=np.random.default_rng(0), batch_size=20)


def test_estimate_constants_full_batch_gives_zero_nu(tiny_fleet):
    train_sets, _ = tiny_fleet
    J = len(train_sets[0])
    est = estimate_constants(train_sets[:1], n_probes=100, rng=np.random.default_rng(1), batch_size=J)
    assert est.nu_hat == pytest.approx(0.0, abs=1e-12)


def test_estimate_constants_probe_monotonicity(tiny_fleet):
    train_sets, _ = tiny_fleet
    small = estimate_constants(train_sets, n_probes=100, rng=np.random.default_rng(2), batch_size=20)
    large = estimate_constants(train_sets, n_probes=200, rng=np.random.default_rng(2), batch_size=20)
    assert large.sigma_hat >= small.sigma_hat


def test_theory_estimates_validation():
    with pytest.raises(ValueError):
        TheoryEstimates(sigma_hat=-1.0, nu_hat=0.0, L_hat=0.0, F0=0.0)


def test_prescribed_schedule_shapes():
    est = TheoryEstimates(sigma_hat=1.0, nu_hat=1.0, L_hat=2.0, F0=1.0)
    base = ExperimentConfig(B=10, m=2)
    sched = prescribed_schedule(base, 800, est)
    assert sched.tau == 9  # round(800^(1/3))
    T = sched.K * sched.tau
    assert sched.alpha == pytest.approx(1.0 / (2.0 * math.sqrt(T)))
    assert sched.gamma == pytest.approx(1.0 / (2.0 * T))
    assert (sched.N, sched.m, sched.B) == (4, 2, 10)  # everything but K, tau, alpha, gamma is kept
    one = prescribed_schedule(ExperimentConfig(spacings=(1.0,), m=1), 50, est)
    assert one.m == 1 and one.N == 1
    with pytest.raises(ValueError):
        prescribed_schedule(base, 50, TheoryEstimates(1.0, 1.0, 0.0, 1.0))


def test_theory_check_records_whether_the_bound_held(monkeypatch):
    monkeypatch.setattr(diagnostics, "THEORY_KS", (4, 8))
    config = ExperimentConfig(seeds=(0,), J=120, B=10, dataset_seed=5)
    records = list(diagnostics.theory_check(config, 100))
    assert [list(r) for r in records] == [["seed", "K", "T", "running_mean", "bound", "held"]] * 2
    assert [r["held"] for r in records] == [r["running_mean"] <= r["bound"] for r in records] == [True, True]
    monkeypatch.setattr(diagnostics, "theorem_bound", lambda est, m, T: 0.0)
    assert [r["held"] for r in diagnostics.theory_check(config, 100)] == [False, False]


@pytest.mark.parametrize("cpus, environ, helpers", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    (2, {}, 0),
    (4, {"OMP_NUM_THREADS": "2"}, 1),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 0),
    (2, {"OPENBLAS_NUM_THREADS": "one"}, 0),
    (2, {"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 0),
])
def test_helper_count_table(cpus, environ, helpers):
    assert diagnostics._helper_count(cpus, environ) == helpers


def test_pooled_convergence_check_equals_serial_bit_for_bit(tiny_fleet, monkeypatch):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=4, tau=2, B=10)
    result = fed.run(cfg, train_sets, test_sets, seed=0, eval_every=4, checkpoint_rounds={0, 2, 4},
                     algorithm="fgdra")
    outputs = []
    for helpers in (0, 1, 3):
        monkeypatch.setattr(diagnostics, "HELPERS", helpers)
        rng = np.random.default_rng(5)
        est = estimate_constants(train_sets, n_probes=100, rng=rng, batch_size=20)
        trace = grad_norm_trace(result, train_sets, [0, 2, 4])
        outputs.append((est, rng.bit_generator.state, trace.grad_norm_sq.tobytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_failing_gradient_is_raised_and_ends_every_helper(tiny_fleet, monkeypatch):
    train_sets, _ = tiny_fleet
    calls = []
    real = diagnostics.full_batch_grad

    def third_call_fails(theta, ds):
        calls.append(None)
        if len(calls) == 3:
            raise ArithmeticError("third call")
        return real(theta, ds)

    monkeypatch.setattr(diagnostics, "HELPERS", 3)
    monkeypatch.setattr(diagnostics, "full_batch_grad", third_call_fails)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="third call"):
        estimate_constants(train_sets, n_probes=100, rng=np.random.default_rng(0), batch_size=20)
    assert threading.active_count() == before
    assert len(calls) < 100  # the helpers stopped instead of running every probe


def test_ordered_map_keeps_draw_and_result_order_under_contention(monkeypatch):
    monkeypatch.setattr(diagnostics, "HELPERS", 8)  # more threads than cores
    rng = np.random.default_rng(3)
    draws = ((i, rng.random()) for i in range(3000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = diagnostics._ordered_map(lambda d: (d[0], 2.0 * d[1]), draws)
    finally:
        sys.setswitchinterval(interval)
    serial = np.random.default_rng(3)
    assert got == [(i, 2.0 * serial.random()) for i in range(3000)]
