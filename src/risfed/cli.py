"""Command-line entry points.

Subcommands: gen-data, train, sweep, diagnose, plot-data.  Each accepts an
optional config file plus ``--set key=value`` overrides; ``--seed-list`` and
``--out-dir`` are shorthands for the corresponding config keys.  All outputs
are CSV files with a header row.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import diagnostics, fed, harness


def _load_config(args) -> harness.ExperimentConfig:
    config = harness.parse_config(args.config) if args.config else harness.ExperimentConfig()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.seed_list:
        overrides["seeds"] = args.seed_list
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    return harness.apply_overrides(config, overrides)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("--seed-list", help="comma-separated training seeds")
    parser.add_argument("--out-dir", help="output directory")


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    written = harness.export_datasets(config, config.out_dir)
    for path in written:
        print(path)
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    result = harness.run_experiment(config)
    print(result.csv_path)
    for alg in config.algorithms:
        s = result.summary.per_algorithm[alg]
        print(f"{alg}: avg {s.avg_acc_mean:.2f} +- {s.avg_acc_se:.2f} | "
              f"worst {s.worst_acc_mean:.2f} +- {s.worst_acc_se:.2f} | "
              f"comm rounds {s.communication_rounds_consumed}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    cells = harness.run_sweep(config)
    print(os.path.join(config.out_dir, "sweep.csv"))
    for c in cells:
        print(f"{c.axis}={c.value:g} {c.algorithm}: {c.cell}")
    return 0


def cmd_diagnose(args) -> int:
    """Instrument one run under the rate-matched schedule and emit the trace."""
    config = _load_config(args)
    train_sets, test_sets, _ = harness.generate_data(config)
    est = diagnostics.estimate_constants(
        train_sets, n_probes=args.probes, rng=np.random.default_rng(config.dataset_seed),
        batch_size=config.B,
    )
    sched = diagnostics.prescribed_schedule(config.K, config.N, est)
    ckpts = diagnostics.round_checkpoints(config.K)
    result = fed.run_fgdra(sched, train_sets, test_sets, seed=config.seeds[0],
                           eval_every=max(1, config.K // 10), checkpoint_rounds=set(ckpts))
    trace = diagnostics.grad_norm_trace(result, train_sets, ckpts)
    bound = diagnostics.theorem_bound(est, sched.m, sched.K * sched.tau)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "diagnostics.csv")
    diagnostics.write_diagnostics_csv(trace, bound, path)
    rm = diagnostics.running_mean_trace(trace)
    slope = diagnostics.slope_fit(rm)
    print(path)
    print(f"sigma_hat={est.sigma_hat:.4f} nu_hat={est.nu_hat:.4f} L_hat={est.L_hat:.4f} F0={est.F0:.4f}")
    print(f"T={sched.K * sched.tau} bound={bound:.6f} final_running_mean={rm.grad_norm_sq[-1]:.6f} "
          f"slope={slope:.3f}")
    return 0


def cmd_plot_data(args) -> int:
    config = _load_config(args)
    run_csv = args.run_csv or os.path.join(config.out_dir, "runs.csv")
    for path in harness.emit_plot_data(run_csv, config.out_dir):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="risfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize and export worker datasets")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run the configured algorithms over all seeds")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run the configured hyperparameter sweep")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="estimate theory constants and trace the gradient norm")
    _add_common(p)
    p.add_argument("--probes", type=int, default=150, help="probe count for constant estimation")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("plot-data", help="emit per-figure mean/SE series from a runs.csv")
    _add_common(p)
    p.add_argument("--run-csv", help="input runs.csv (default: <out_dir>/runs.csv)")
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
