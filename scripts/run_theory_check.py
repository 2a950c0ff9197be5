#!/usr/bin/env python3
"""Empirical convergence-rate check under the rate-matched schedule
alpha = 1/(L_hat sqrt(T)), gamma = 1/(sqrt(N) T), tau = T^(1/4).

Estimates the assumption constants from probe gradients, runs a K-sweep in
the single-worker reduction, and reports the iteration-weighted running
average of the squared gradient norm at each final T, its log-log decay
slope, and the closed-form bound.
"""

import argparse

from risfed import harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=4)
    parser.add_argument("--probes", type=int, default=120)
    args = parser.parse_args()

    records = harness.theory_check(harness.ExperimentConfig(), range(args.seeds), args.probes)
    held = 0
    for r in records:
        ok = r["running_mean"] <= r["bound"]
        held += ok
        print(f"seed {r['seed']} K={r['K']:4d} T={r['T']:5d} running mean {r['running_mean']:8.4f} "
              f"bound {r['bound']:8.2f} {'ok' if ok else 'VIOLATED'}")
    print(f"\nlog-log decay slope of the seed-mean running average: {harness.theory_decay_slope(records):.3f}")
    print(f"bound held in {held}/{len(records)} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
