#!/usr/bin/env python3
"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py base.jsonl [new.jsonl] [--json out.json]

Inputs are JSON-lines files from collect.py (or run.py --record).  For each
(workload, end-to-end metric) of the untraced runs it prints the median and
quartiles of each set and the spread, (Q3 - Q1) / median, against the
metric's bound from BENCHMARK.json.  With a second set it adds:

* ``won``: the share of seed-paired runs in which the new set did better
  (ties count for neither side);
* ``change``: the new median relative to the base median, signed so that
  positive is better;
* ``verdict``: ``unresolved`` when either spread exceeds the bound (unless
  every new run beats every base run: ``better``), else
  ``worse`` when the new median is worse by more than the bound,
  ``better`` (``worse``) when the new set won (lost) at least 9 in 10
  pairs and the medians differ by more than the base's interquartile
  distance, else ``same``.  So a loss smaller than the bound still shows
  when it is consistent.

The timed end-to-end metrics are speed-corrected by run.py's probe, so the
same summary and verdict are also given on their raw wall-clock figures
(``raw`` section), and an end-to-end row is flagged ``disagree`` when its
verdict is better or worse but the raw figure moved the other way.  Raw
verdicts also follow the machine's load, so ``probe_slope`` gives each
set's median probe time.  Per workload and set, ``probe_slope`` also gives
the slope of log seconds per item against log probe
seconds over the operations of the untraced runs (each run centred, so
seed-to-seed cost differences do not count), with its standard error.  The
correction is exact at slope 1; at slope s, a corrected figure still moves
as (probe time)^(s-1) with the load.  The probe's own noise pulls the fitted
slope below the true one, so it is the change between the sets that counts:
``drift`` flags slopes that differ by more than 0.25 and by more than twice
the standard error of the difference.
``failures`` totals the failed and attempted operations of each workload
per set and flags ``more_failures`` when the new set fails more often.

Workload figures from the detail records (rounds/s per algorithm,
samples/s, worst accuracy, ...) and per-layer metrics of the traced runs
are printed as medians with the new/base ratio; they carry no bound.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_METRICS = ("setup_s", "items_per_s", "cpu_ms_per_item")  # end-to-end metrics run.py also keeps raw
SLOPE_TOLERANCE = 0.25
DECIDED = ("better", "worse")


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    if med == 0.0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def by_seed(records: list[dict], trace: int, pick) -> dict[tuple[str, str], dict[int, float]]:
    """{(workload, metric): {seed: value}} from the records with this trace flag."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for rec in records:
        d = rec["detail"]
        if d["trace"] != trace:
            continue
        for name, value in pick(rec).items():
            out.setdefault((d["workload"], name), {})[d["seed"]] = value
    return out


def end_to_end(rec: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in rec["result"]["metrics"].items()}


def raw_figures(rec: dict) -> dict[str, float]:
    raw = rec["detail"].get("raw", {})
    return {k: raw[k] for k in RAW_METRICS if k in raw}


def probe_slope(records: list[dict], workload: str) -> tuple[float, float, float] | None:
    """Slope of log seconds per item against log probe seconds over the
    operations of the untraced runs, each run centred on its own means; its
    standard error; and the pooled standard deviation of log probe time (the
    load's variation the slope is estimated from).  None without data."""
    sxx = sxy = syy = 0.0
    dof = 0
    for rec in records:
        d = rec["detail"]
        raw = d.get("raw", {})
        if d["trace"] or d["workload"] != workload or len(raw.get("op_probe_s", ())) < 2:
            continue
        x = [math.log(v) for v in raw["op_probe_s"]]
        y = [math.log(v) for v in raw["op_s_per_item"]]
        mx, my = statistics.fmean(x), statistics.fmean(y)
        sxx += sum((a - mx) ** 2 for a in x)
        sxy += sum((a - mx) * (b - my) for a, b in zip(x, y))
        syy += sum((b - my) ** 2 for b in y)
        dof += len(x) - 1
    if sxx == 0.0 or dof < 2:
        return None
    slope = sxy / sxx
    residual = max(syy - slope * sxy, 0.0)
    return slope, math.sqrt(residual / (dof - 1) / sxx), math.sqrt(sxx / dof)


def failure_totals(records: list[dict]) -> dict[str, tuple[int, int]]:
    """{workload: (failed, attempted)} summed over every run, traced or not."""
    out: dict[str, tuple[int, int]] = {}
    for rec in records:
        failed, attempted = out.get(rec["detail"]["workload"], (0, 0))
        out[rec["detail"]["workload"]] = (failed + rec["result"].get("failed", 0),
                                          attempted + rec["result"].get("attempted", 0))
    return out


def disagrees(row: dict, raw: dict) -> bool:
    """A decided corrected verdict that the raw change goes against.  Raw
    'better' or 'worse' beside a corrected 'same' is not flagged: it is what
    a change of load between the two sets does (see the median probe times)."""
    return row["verdict"] in DECIDED and raw.get("change") is not None and \
        (raw["change"] > 0) != (row["verdict"] == "better")


def summarise_metric(base: dict[int, float], new: dict[int, float] | None, better: str, bound: float) -> dict:
    b = list(base.values())
    row = {"base_q1_median_q3": quartiles(b), "base_spread": spread(b), "n_base": len(b)}
    if bound is not None:
        row["bound"] = bound
        row["steady"] = row["base_spread"] <= bound
    if not new:
        return row
    n = list(new.values())
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = row["base_q1_median_q3"]
    nmed = quartiles(n)[1]
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    row.update({
        "new_q1_median_q3": quartiles(n), "new_spread": spread(n), "n_new": len(n),
        "won": wins / len(pairs) if pairs else None,
        "change": sign * (nmed - bmed) / abs(bmed) if bmed else None,
    })
    if bound is not None:
        if max(row["base_spread"], row["new_spread"]) > bound:
            separated = min(sign * y for y in n) > max(sign * x for x in b)
            row["verdict"] = "better" if separated else "unresolved"
        elif sign * (nmed - bmed) < -bound * abs(bmed):
            row["verdict"] = "worse"
        elif pairs and max(wins, losses) >= 0.9 * len(pairs) and abs(nmed - bmed) > bq3 - bq1:
            row["verdict"] = "better" if wins > losses else "worse"
        else:
            row["verdict"] = "same"
    return row


def compare(base: list[dict], new: list[dict] | None, bench: dict) -> dict:
    spec = {m["name"]: m for m in bench["end_to_end"]}
    layer_spec = {m["name"]: m for m in bench["per_layer"]}
    sections = {
        "end_to_end": (0, end_to_end, spec),
        "raw": (0, raw_figures, spec),
        "workload_figures": (0, lambda rec: rec["detail"]["extra"], {}),
        "per_layer": (1, end_to_end, layer_spec),
    }
    report = {}
    for section, (trace, pick, metric_spec) in sections.items():
        b = by_seed(base, trace, pick)
        nw = by_seed(new, trace, pick) if new else {}
        rows = {}
        for (workload, metric), values in sorted(b.items()):
            m = metric_spec.get(metric, {})
            row = summarise_metric(values, nw.get((workload, metric)), m.get("better", "higher"), m.get("bound"))
            if section in ("workload_figures", "per_layer"):
                row = {k: v for k, v in row.items() if k in ("base_q1_median_q3", "new_q1_median_q3", "n_base")}
                if "new_q1_median_q3" in row and row["base_q1_median_q3"][1]:
                    row["ratio"] = row["new_q1_median_q3"][1] / row["base_q1_median_q3"][1]
            rows[f"{workload}/{metric}"] = row
        report[section] = rows
    for key, row in report["end_to_end"].items():
        raw = report["raw"].get(key)
        if raw and "verdict" in row and "verdict" in raw:
            row["raw_verdict"] = raw["verdict"]
            row["disagree"] = disagrees(row, raw)

    workloads = sorted({rec["detail"]["workload"] for rec in base})
    slopes = {}
    for workload in workloads:
        row = {}
        for side, records in (("base", base), ("new", new)):
            if records:
                probes = [rec["detail"]["raw"]["probe_s"] for rec in records
                          if rec["detail"]["workload"] == workload and "raw" in rec["detail"]]
                row[f"{side}_probe_s"] = statistics.median(probes) if probes else None
                fit = probe_slope(records, workload)
                if fit:
                    row[f"{side}_slope"], row[f"{side}_slope_se"], row[f"{side}_log_probe_sd"] = fit
        if "base_slope" in row and "new_slope" in row:
            diff = abs(row["new_slope"] - row["base_slope"])
            row["drift"] = diff > SLOPE_TOLERANCE and diff > 2.0 * math.hypot(row["base_slope_se"],
                                                                             row["new_slope_se"])
        slopes[workload] = row
    report["probe_slope"] = slopes

    base_fail, new_fail = failure_totals(base), failure_totals(new or [])
    failures = {}
    for workload in workloads:
        bf, ba = base_fail[workload]
        row = {"base_failed": bf, "base_attempted": ba}
        if workload in new_fail:
            nf, na = new_fail[workload]
            row.update({"new_failed": nf, "new_attempted": na,
                        "more_failures": nf * max(ba, 1) > bf * max(na, 1)})
        failures[workload] = row
    report["failures"] = failures
    return report


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "NO"
    if isinstance(x, float):
        return f"{x:.4g}"
    return str(x)


def print_report(report: dict) -> None:
    for section, rows in report.items():
        if not rows:
            continue
        print(f"== {section}")
        for key, row in rows.items():
            cols = [f"{key:<52}"]
            if "base_q1_median_q3" in row:
                cols.append("base " + _fmt(row["base_q1_median_q3"][1]))
            if "base_spread" in row:
                cols.append(f"spread {_fmt(row['base_spread'])}")
            if "new_q1_median_q3" in row:
                cols.append("new " + _fmt(row["new_q1_median_q3"][1]))
            skip = ("base_q1_median_q3", "base_spread", "new_q1_median_q3", "n_base", "n_new")
            cols += [f"{k} {_fmt(v)}" for k, v in row.items() if k not in skip]
            print("  ".join(cols))


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    p.add_argument("--json", help="also write the report as JSON to this file")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = compare(load(args.base), load(args.new) if args.new else None, bench)
    print_report(report)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
