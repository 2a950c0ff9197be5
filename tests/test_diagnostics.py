import math

import numpy as np
import pytest

from risfed import diagnostics, fed, mlp
from risfed.diagnostics import (
    ConvergenceTrace,
    TheoryEstimates,
    estimate_constants,
    fit_loglog_slope,
    full_batch_grad,
    grad_norm_trace,
    prescribed_schedule,
    round_checkpoints,
    running_mean_trace,
    slope_fit,
    theorem_bound,
    weighted_grad_norm_sq,
)
from risfed.harness import ExperimentConfig, write_diagnostics_csv


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


def test_slope_fit_exact_power_laws():
    t = np.arange(1, 40, dtype=float)
    for exponent, expected in ((-0.5, -0.5), (0.0, 0.0), (-1.0, -1.0)):
        # the t = 0 checkpoint is left out of the fit, without a warning
        trace = ConvergenceTrace(t=np.r_[0.0, t], grad_norm_sq=np.r_[9.0, 3.7 * t ** exponent])
        assert slope_fit(trace) == pytest.approx(expected, abs=1e-6)


def test_slope_fit_skips_nonpositive_with_warning():
    t = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    v = np.array([1.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
    with pytest.warns(UserWarning, match="nonpositive"):
        slope = fit_loglog_slope(t, v)
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_slope_fit_needs_five_checkpoints():
    for t in (np.array([1.0, 2.0, 3.0]), np.array(round_checkpoints(3), dtype=float)):
        trace = ConvergenceTrace(t=t, grad_norm_sq=np.ones(len(t)))
        with pytest.raises(ValueError):
            slope_fit(trace)
    with pytest.raises(ValueError):
        fit_loglog_slope(np.array([1.0]), np.array([1.0]))


def test_running_mean_trace_time_weighted_hand_case():
    trace = ConvergenceTrace(t=np.array([0, 1, 3]), grad_norm_sq=np.array([6.0, 3.0, 1.0]))
    rm = running_mean_trace(trace)
    # weights 1, 1, 2 -> cumulative means 6, 4.5, (6+3+2)/4
    assert np.allclose(rm.grad_norm_sq, [6.0, 4.5, 2.75])


def test_round_checkpoints_cover_transient_and_end():
    ck = round_checkpoints(800)
    assert ck[0] == 0 and ck[1] == 1 and ck[-1] == 800
    assert ck == sorted(set(ck))


def test_grad_norm_trace_single_worker_oracle(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(N=1, m=1, K=6, tau=3, alpha=2e-3, gamma=0.0, B=10)
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
        theta = mlp.add_scaled(theta, mlp.grad(theta, mlp.MiniBatch(ds.features[idx], ds.labels[idx])), -0.05)
    fitted_norm = weighted_grad_norm_sq(theta, np.array([1.0]), [ds])
    assert fitted_norm < 0.05 * init_norm


def test_estimate_constants_contracts(tiny_fleet):
    train_sets, _ = tiny_fleet
    est = estimate_constants(train_sets, n_probes=100, rng=np.random.default_rng(0), batch_size=20)
    assert est.sigma_hat > 0 and est.nu_hat > 0 and est.L_hat > 0 and est.F0 > 0
    with pytest.raises(ValueError):
        estimate_constants(train_sets, n_probes=50)


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
    one = prescribed_schedule(ExperimentConfig(N=1, m=1), 50, est)
    assert one.m == 1 and one.N == 1
    with pytest.raises(ValueError):
        prescribed_schedule(base, 50, TheoryEstimates(1.0, 1.0, 0.0, 1.0))


def test_write_diagnostics_csv(tmp_path):
    trace = ConvergenceTrace(t=np.array([0, 2, 6]), grad_norm_sq=np.array([4.0, 2.0, 1.0]))
    path = str(tmp_path / "diag.csv")
    write_diagnostics_csv(trace, 0.5, path)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "t,grad_norm_sq,running_mean,bound"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 0.5
