#!/usr/bin/env python3
"""Hyperparameter sensitivity tables: local iterations tau in {1,5,10},
batch size B in {10,30,50} and sampling size m in {1,2,3}, each cell the
five-run mean "average/worst" accuracy pair at K=800.

Roughly 45 minutes total at the defaults; use --rounds to shorten.
"""

import argparse
import os

from risfed import harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/sweeps")
    parser.add_argument("--rounds", type=int, default=800)
    parser.add_argument("--axes", default="tau,B,m", help="comma list from {tau,B,m}")
    args = parser.parse_args()

    values = {"tau": (1.0, 5.0, 10.0), "B": (10.0, 30.0, 50.0), "m": (1.0, 2.0, 3.0)}
    for axis in [a.strip() for a in args.axes.split(",") if a.strip()]:
        out_dir = os.path.join(args.out_dir, axis)
        config = harness.ExperimentConfig(K=args.rounds, eval_every=args.rounds,
                                          sweep_axis=axis, sweep_values=values[axis],
                                          out_dir=out_dir)
        cells = harness.run_sweep(config)
        print(f"=== sweep over {axis} (cells are avg/worst %) -> {out_dir}/sweep.csv ===")
        for alg in config.algorithms:
            row = "  ".join(f"{axis}={c.value:g}: {c.cell}" for c in cells if c.summary.algorithm == alg)
            print(f"{alg:7s} {row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
