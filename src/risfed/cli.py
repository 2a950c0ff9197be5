"""Command-line entry points.

Subcommands: gen-data, train, sweep, diagnose, theory.  Each accepts an
optional config file plus ``--set key=value`` overrides, with ``--seed-list``
and ``--out-dir`` as shorthands for two keys; ``sweep`` also takes one
``KEY=V1,V2,...`` item.  All outputs are CSV with a header row; ``train``
writes the fig_*.csv figure series next to its runs.csv and summary.csv.
gen-data makes its out_dir before synthesis, and the others open their CSV
before their first run, so an unusable out_dir is refused before any work.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import diagnostics, harness


def _load_config(args) -> harness.ExperimentConfig:
    """The config file's settings, overridden by each ``--set`` item, then
    ``--seed-list`` and ``--out-dir``; parsed and validated once."""
    settings = harness.read_settings(args.config) if args.config is not None else {}
    settings.update(harness.split_setting(item, "--set") for item in args.set or [])
    if args.seed_list is not None:
        settings["seeds"] = args.seed_list
    if args.out_dir is not None:
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
    written = harness.export_datasets(config)
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
    if args.item is None:
        return _refuse("sweep needs a KEY=V1,V2,... item, KEY a config key that holds one number")
    try:
        axis, cell_configs = harness.sweep_configs(config, args.item)
    except ValueError as exc:
        return _refuse(str(exc))
    cells = harness.run_sweep(axis, cell_configs)
    print(os.path.join(config.out_dir, "sweep.csv"))
    for value, s in cells:
        print(f"{axis}={value} {s.algorithm}: {s.cell}")
    return 0


def cmd_diagnose(config: harness.ExperimentConfig, args) -> int:
    """Trace one fleet run, the one record of :func:`diagnostics.rate_matched_runs`
    at the first seed of the seed list and K rounds, and report its slope."""
    n_ckpts = len(diagnostics.round_checkpoints(config.K))
    if n_ckpts < diagnostics.MIN_CHECKPOINTS:
        return _refuse(f"diagnose needs K >= 4: K={config.K} gives {n_ckpts} gradient-norm checkpoints, "
                       f"fewer than diagnose's minimum of {diagnostics.MIN_CHECKPOINTS}")
    path = os.path.join(config.out_dir, "diagnostics.csv")
    with harness.csv_writer(path, ("t", "grad_norm_sq", "running_mean", "bound")) as write:
        (r,) = diagnostics.rate_matched_runs(replace(config, seeds=config.seeds[:1]), args.probes, (config.K,))
        trace, est, bound = r["trace"], r["est"], r["bound"]
        rm = diagnostics.running_mean(trace)
        write((t, g, m, bound) for t, g, m in zip(trace.t, trace.grad_norm_sq, rm))
    later = trace.t > 0  # t = 0 has no place on a log axis
    slope = diagnostics.fit_loglog_slope(trace.t[later], rm[later])
    print(path)
    print(f"sigma_hat={est.sigma_hat:.4f} nu_hat={est.nu_hat:.4f} L_hat={est.L_hat:.4f} F0={est.F0:.4f}")
    print(f"T={r['T']} bound={bound:.6f} final_running_mean={rm[-1]:.6f} slope={slope:.3f}")
    return 0


def cmd_theory(config: harness.ExperimentConfig, args) -> int:
    """Run the convergence-rate check of :func:`diagnostics.theory_check` over
    the seed list, writing each record as it arrives, and report each run
    against the theorem bound."""
    columns = ("seed", "K", "T", "running_mean", "bound")
    path = os.path.join(config.out_dir, "theory.csv")
    records = []
    with harness.csv_writer(path, columns) as write:
        for r in diagnostics.theory_check(config, args.probes):
            records.append(r)
            write([[r[c] for c in columns]])
    print(path)
    for r in records:
        print(f"seed {r['seed']} K={r['K']:4d} T={r['T']:5d} running mean {r['running_mean']:8.4f} "
              f"bound {r['bound']:8.2f} {'ok' if r['held'] else 'VIOLATED'}")
    print(f"\nlog-log decay slope of the seed-mean running average: {diagnostics.theory_decay_slope(records):.3f}")
    print(f"bound held in {sum(r['held'] for r in records)}/{len(records)} runs")
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
        ("sweep", cmd_sweep, "run the algorithms at each value of one config key"),
        ("diagnose", cmd_diagnose, "estimate theory constants and trace the gradient norm"),
        ("theory", cmd_theory, "check the convergence rate over a rate-matched K-sweep"),
    ):
        commands[name] = sub.add_parser(name, help=help_text)
        _add_common(commands[name])
        commands[name].set_defaults(func=func)
    for name in ("diagnose", "theory"):
        commands[name].add_argument("--probes", type=_probe_count, default=120,
                                    help=f"probe count for constant estimation (>= {diagnostics.MIN_PROBES})")
    commands["sweep"].add_argument("item", nargs="?", metavar="KEY=V1,V2,...",
                                   help="the swept key, any config key that holds one number, and its values")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a refused config, a diverged run or an output
    that cannot be written (an ``OSError``) exits 2 with a one-line message."""
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:
        return _refuse(str(exc))
    try:
        return args.func(config, args)
    except (FloatingPointError, OSError) as exc:  # a diverged fed.run, or an unusable out_dir
        return _refuse(str(exc))


if __name__ == "__main__":
    sys.exit(main())
