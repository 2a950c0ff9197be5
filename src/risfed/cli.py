"""Command-line entry points.

Subcommands: gen-data, train, sweep, diagnose, theory, plot-data.  Each
accepts an optional config file plus ``--set key=value`` overrides;
``--seed-list`` and ``--out-dir`` are shorthands for the corresponding config
keys.  All outputs are CSV files with a header row.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import diagnostics, harness


def _load_config(args) -> harness.ExperimentConfig:
    """The config file's settings, overridden by each ``--set`` item, then
    ``--seed-list`` and ``--out-dir``; parsed and validated once."""
    settings = harness.read_settings(args.config) if args.config else {}
    settings.update(harness.split_setting(item, "--set") for item in args.set or [])
    if args.seed_list:
        settings["seeds"] = args.seed_list
    if args.out_dir:
        settings["out_dir"] = args.out_dir
    return harness.apply_overrides(harness.ExperimentConfig(), settings)


def _refuse(message: str) -> int:
    """Report a config or command that cannot run as one stderr line; exit status 2."""
    print(f"risfed: error: {message}", file=sys.stderr)
    return 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("--seed-list", help="comma-separated training seeds")
    parser.add_argument("--out-dir", help="output directory")


def cmd_gen_data(config: harness.ExperimentConfig, args) -> int:
    written = harness.export_datasets(config, config.out_dir)
    for path in written:
        print(path)
    return 0


def cmd_train(config: harness.ExperimentConfig, args) -> int:
    result = harness.run_experiment(config)
    print(result.csv_path)
    for alg in config.algorithms:
        s = result.summary.per_algorithm[alg]
        print(f"{alg}: avg {s.avg_acc_mean:.2f} +- {s.avg_acc_se:.2f} | "
              f"worst {s.worst_acc_mean:.2f} +- {s.worst_acc_se:.2f} | "
              f"comm rounds {s.communication_rounds_consumed}")
    return 0


def cmd_sweep(config: harness.ExperimentConfig, args) -> int:
    if config.sweep_axis == "none":
        return _refuse(f"sweep needs sweep_axis set to one of {', '.join(harness.SWEEP_AXES[1:])}, got 'none'")
    cells = harness.run_sweep(config)
    print(os.path.join(config.out_dir, "sweep.csv"))
    for c in cells:
        print(f"{c.axis}={c.value:g} {c.summary.algorithm}: {c.cell}")
    return 0


def cmd_diagnose(config: harness.ExperimentConfig, args) -> int:
    """Instrument one run under the rate-matched schedule and emit the trace.
    The run takes the first seed s of the seed list and trains on its data
    draw, dataset_seed + s."""
    n_ckpts = len(diagnostics.round_checkpoints(config.K))
    if n_ckpts < diagnostics.MIN_CHECKPOINTS:
        return _refuse(f"diagnose needs K >= 4: K={config.K} gives {n_ckpts} gradient-norm checkpoints, "
                       f"fewer than the {diagnostics.MIN_CHECKPOINTS} a slope fit takes")
    seed = config.seeds[0]
    train_sets, test_sets = harness.SeedDataCache(config).for_seed(seed)
    est = diagnostics.estimate_constants(
        train_sets, n_probes=args.probes, rng=np.random.default_rng(config.dataset_seed),
        batch_size=config.B,
    )
    T, trace, bound = harness.schedule_matched_trace(config, est, train_sets, test_sets, config.K, seed)
    path = os.path.join(config.out_dir, "diagnostics.csv")
    harness.write_diagnostics_csv(trace, bound, path)
    rm = diagnostics.running_mean_trace(trace)
    slope = diagnostics.slope_fit(rm)
    print(path)
    print(f"sigma_hat={est.sigma_hat:.4f} nu_hat={est.nu_hat:.4f} L_hat={est.L_hat:.4f} F0={est.F0:.4f}")
    print(f"T={T} bound={bound:.6f} final_running_mean={rm.grad_norm_sq[-1]:.6f} slope={slope:.3f}")
    return 0


def cmd_theory(config: harness.ExperimentConfig, args) -> int:
    """Run the convergence-rate check of :func:`harness.theory_check` over the
    seed list and report each run against the theorem bound."""
    records = harness.theory_check(config, args.probes)
    columns = ("seed", "K", "T", "running_mean", "bound")
    path = os.path.join(config.out_dir, "theory.csv")
    harness.write_csv(path, columns, ([r[c] for c in columns] for r in records))
    print(path)
    held = 0
    for r in records:
        ok = r["running_mean"] <= r["bound"]
        held += ok
        print(f"seed {r['seed']} K={r['K']:4d} T={r['T']:5d} running mean {r['running_mean']:8.4f} "
              f"bound {r['bound']:8.2f} {'ok' if ok else 'VIOLATED'}")
    print(f"\nlog-log decay slope of the seed-mean running average: {harness.theory_decay_slope(records):.3f}")
    print(f"bound held in {held}/{len(records)} runs")
    return 0


def cmd_plot_data(config: harness.ExperimentConfig, args) -> int:
    run_csv = args.run_csv or os.path.join(config.out_dir, "runs.csv")
    if not os.path.isfile(run_csv):
        return _refuse(f"no runs file at {run_csv}: run 'risfed train' first, or pass --run-csv")
    try:
        paths = harness.emit_plot_data(run_csv, config.out_dir)
    except ValueError as exc:
        return _refuse(str(exc))
    for path in paths:
        print(path)
    return 0


def _probe_count(text: str) -> int:
    n = int(text)
    if n < diagnostics.MIN_PROBES:
        raise argparse.ArgumentTypeError(f"must be >= {diagnostics.MIN_PROBES}, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="risfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}
    for name, func, help_text in (
        ("gen-data", cmd_gen_data, "synthesize and export worker datasets"),
        ("train", cmd_train, "run the configured algorithms over all seeds"),
        ("sweep", cmd_sweep, "run the configured hyperparameter sweep"),
        ("diagnose", cmd_diagnose, "estimate theory constants and trace the gradient norm"),
        ("theory", cmd_theory, "check the convergence rate over a rate-matched K-sweep"),
        ("plot-data", cmd_plot_data, "emit per-figure mean/SE series from a runs.csv"),
    ):
        commands[name] = sub.add_parser(name, help=help_text)
        _add_common(commands[name])
        commands[name].set_defaults(func=func)
    for name, default in (("diagnose", 150), ("theory", 120)):
        commands[name].add_argument("--probes", type=_probe_count, default=default,
                                    help=f"probe count for constant estimation (>= {diagnostics.MIN_PROBES})")
    commands["plot-data"].add_argument("--run-csv", help="input runs.csv (default: <out_dir>/runs.csv)")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a refused config or a diverged run exits 2 with a
    one-line message."""
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:
        return _refuse(str(exc))
    try:
        return args.func(config, args)
    except FloatingPointError as exc:  # raised by fed.run
        return _refuse(str(exc))


if __name__ == "__main__":
    sys.exit(main())
