#!/usr/bin/env python3
"""Run the benchmark command over several seeds and collect JSON lines.

    python3 perfbench/collect.py --out base.jsonl --seeds 0-9 [--workloads synth,train] [--trace 0,1]

Each run is the command from BENCHMARK.json with its ``run_seconds``,
started from the repository root with ``--record``, so every line of the
output file holds one run's detail record and result.  Runs go one at a
time, seed by seed, cycling through the workloads.  Compare two such files
with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True, help="JSON-lines file to append to")
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,7; seed 0 also checks the recorded digests")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", default="0", help="0, 1 or 0,1")
    args = p.parse_args(argv)
    out = str(Path(args.out).resolve())
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            for trace in args.trace.split(","):
                cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", trace, "--record", out]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900)
                print(f"{workload} seed {seed} trace {trace}: exit {done.returncode}", flush=True)


if __name__ == "__main__":
    main()
