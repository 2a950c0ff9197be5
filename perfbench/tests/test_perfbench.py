"""Tests of the benchmark itself: metric coverage, tracer hygiene, the gate.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import compare
import gate
import run
import tracing
import workloads
from risfed import channel, fed, harness, labeling, mlp

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(tmp_path, workload, trace, seed=1):
    return run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                     "--size", "tiny", "--scratch", str(tmp_path)])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    layer = {n: u for n, (u, _, _) in tracing.LAYER_METRICS.items()}
    layer[tracing.OVERHEAD_METRIC[0]] = tracing.OVERHEAD_METRIC[1]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == layer


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    result = tiny_run(tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for spec in BENCH["end_to_end"]:
        m = result["metrics"][spec["name"]]
        assert m["unit"] == spec["unit"]
        assert math.isfinite(m["value"]) and m["value"] > 0.0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert len(result["metrics"]) == len(BENCH["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_layer_metric_and_restores_risfed(tmp_path, workload):
    before = tracing.function_bindings()
    result = tiny_run(tmp_path, workload, trace=1)
    after = tracing.function_bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)
    assert (tmp_path / f"spans-{workload}-seed1-tiny.npz").is_file()


def test_traced_run_measures_the_layers_each_workload_names(tmp_path):
    synth = tiny_run(tmp_path, "synth", trace=1)["metrics"]
    assert synth["channel.gen_channel_pair.calls"]["value"] == 4 * workloads.SIZES["tiny"].synth_J
    assert synth["labeling.rate.calls"]["value"] == 5 * 4 * workloads.SIZES["tiny"].synth_J
    assert synth["mlp.grad.calls"]["value"] == 0.0
    train = tiny_run(tmp_path, "train", trace=1)["metrics"]
    assert train["mlp.grad.rows_per_call"]["value"] == 50.0
    assert train["harness.generate_data.s"]["value"] > 0.0  # from the set-up
    diag = tiny_run(tmp_path, "diagnose", trace=1)["metrics"]
    assert diag["diagnostics.full_batch_grad.calls"]["value"] > 0.0
    assert diag["mlp.grad.rows_per_call"]["value"] > 50.0


def test_tracer_patches_every_binding_and_restores_it():
    orig_pair, orig_grad, orig_runner = channel.gen_channel_pair, mlp.grad, fed.run_fgdra
    tracer = tracing.Tracer()
    with tracer.installed():
        assert labeling.gen_channel_pair is channel.gen_channel_pair is not orig_pair
        assert harness.gen_dataset is labeling.gen_dataset
        assert fed.RUNNERS["fgdra"] is fed.run_fgdra is not orig_runner
        assert mlp.grad is not orig_grad
    assert labeling.gen_channel_pair is channel.gen_channel_pair is orig_pair
    assert fed.RUNNERS["fgdra"] is fed.run_fgdra is orig_runner
    assert mlp.grad is orig_grad


def test_self_times_telescope_to_the_root_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("mlp.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("fed.outer", lambda: [inner() for _ in range(3)])
    tracer.begin_run(1)
    tracer.wrap("perfbench.op", outer)()
    table = tracing.SpanTable(tracer)
    assert table.calls("mlp.inner") == 3.0
    assert table.self_time.sum() == pytest.approx(table.wall, rel=1e-9)
    assert sum(table.module_self_share(m) for m in ("mlp", "fed", "perfbench")) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def tiny_data():
    config = harness.ExperimentConfig(J=60)
    train, test, profiles = harness.generate_data(config)
    return config, train, test, profiles


def test_gate_accepts_clean_data(tiny_data):
    config, train, test, profiles = tiny_data
    assert gate.check_datasets(train, test, config.N, config.J) == []
    picks = [np.arange(len(ds)) for ds in train]
    assert gate.check_oracle_labels(profiles, train, picks) == []


def test_gate_rejects_corrupted_datasets(tiny_data):
    config, train, test, profiles = tiny_data
    bad = replace(train[0], labels=train[0].labels.copy())
    bad.labels[0] = (bad.labels[0] + 1) % 4
    assert gate.check_oracle_labels(profiles[:1], [bad], [np.array([0])])
    bad.labels[0] = 7
    assert gate.check_datasets([bad, *train[1:]], test, config.N, config.J)
    nan = replace(train[1], features=train[1].features.copy())
    nan.features[3, 5] = np.nan
    assert gate.check_datasets([train[0], nan, *train[2:]], test, config.N, config.J)
    assert gate.dataset_digest([bad, *train[1:]], test) != gate.dataset_digest(train, test)


def test_gate_rejects_bad_lambda_accuracy_and_csv():
    assert gate.check_lambda(np.array([[0.25, 0.25, 0.25, 0.25]])) == []
    assert gate.check_lambda(np.array([[0.25, 0.25, 0.25, 0.25 + 1e-11]]))
    assert gate.check_lambda(np.array([[0.5, 0.5, -0.1, 0.1]]))
    assert gate.check_accuracies(np.array([0.0, 100.0])) == []
    assert gate.check_accuracies(np.array([100.5]))
    header = "algorithm,seed,round,comm_rounds,avg_acc,worst_acc,acc_sd,acc_w0,acc_w1,lambda_0,lambda_1\n"
    good = header + "fgdra,0,1,1,50.0,40.0,1.0,40.0,60.0,0.5,0.5\n"
    assert gate.check_runs_csv(good.encode(), 2, 1) == []
    assert gate.check_runs_csv(good.replace("60.0", "160.0").encode(), 2, 1)
    assert gate.check_runs_csv(good.replace("0.5,0.5", "0.5,0.6").encode(), 2, 1)
    assert gate.check_runs_csv(good.encode(), 2, 2)
    assert gate.check_digest("x", "a" * 64, "b" * 64)


def test_repeated_operation_must_repeat_its_bytes(tmp_path):
    wl = workloads.Diagnose(1, workloads.SIZES["tiny"], str(tmp_path), expected={"diagnose_values": None})
    assert wl.check_digest("diagnose_values", "a") == []
    assert wl.check_digest("diagnose_values", "a") == []
    assert wl.check_digest("diagnose_values", "b")


def test_corrupted_output_fails_the_run(tmp_path, monkeypatch):
    real_op = workloads.Synth.op

    def corrupting_op(self, i):
        items, (train, test, profiles) = real_op(self, i)
        train[0].labels[:] = (train[0].labels + 1) % 4
        return items, (train, test, profiles)

    monkeypatch.setattr(workloads.Synth, "op", corrupting_op)
    result = tiny_run(tmp_path, "synth", trace=0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_wrong_recorded_digest_fails_the_run(tmp_path):
    size = workloads.SIZES["tiny"]
    wl = workloads.Synth(0, size, str(tmp_path), expected={"synth_dataset": "0" * 64})
    wl.setup()
    items, output = wl.op(0)
    assert any("digest" in m for m in wl.check(0, output))


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _record(workload, seed, value, trace=0, raw_value=None, failed=0, probes=(0.1, 0.11, 0.12), slope=1.0):
    raw = {"items_per_s": value if raw_value is None else raw_value, "probe_s": statistics.median(probes),
           "op_probe_s": list(probes), "op_s_per_item": [(1.0 + seed) * p ** slope for p in probes]}
    return {"detail": {"workload": workload, "seed": seed, "trace": trace, "extra": {}, "raw": raw},
            "result": {"attempted": 10, "failed": failed,
                       "metrics": {"items_per_s": {"value": value, "unit": "1/s"}}}}


def test_compare_verdicts():
    bench = {"end_to_end": [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
             "per_layer": []}
    base = [_record("w", s, 100.0 + s % 3) for s in range(10)]
    same = compare.compare(base, [_record("w", s, 100.5 + s % 3) for s in range(10)], bench)
    assert same["end_to_end"]["w/items_per_s"]["verdict"] == "same"
    worse = compare.compare(base, [_record("w", s, 80.0 + s % 3) for s in range(10)], bench)
    assert worse["end_to_end"]["w/items_per_s"]["verdict"] == "worse"
    within_bound = compare.compare(base, [_record("w", s, 94.0 + s % 3) for s in range(10)], bench)
    assert within_bound["end_to_end"]["w/items_per_s"]["verdict"] == "worse"
    better = compare.compare(base, [_record("w", s, 108.0 + s % 3) for s in range(10)], bench)
    row = better["end_to_end"]["w/items_per_s"]
    assert row["verdict"] == "better" and row["won"] == 1.0
    noisy = compare.compare(base, [_record("w", s, 100.0 + 40 * (s % 2)) for s in range(10)], bench)
    assert noisy["end_to_end"]["w/items_per_s"]["verdict"] == "unresolved"


def test_compare_flags_a_verdict_the_raw_figures_contradict():
    bench = {"end_to_end": [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
             "per_layer": []}
    base = [_record("w", s, 100.0 + s % 3) for s in range(10)]
    agree = compare.compare(base, [_record("w", s, 108.0 + s % 3) for s in range(10)], bench)
    assert agree["end_to_end"]["w/items_per_s"]["disagree"] is False
    new = [_record("w", s, 108.0 + s % 3, raw_value=95.0 + s % 3) for s in range(10)]
    row = compare.compare(base, new, bench)["end_to_end"]["w/items_per_s"]
    assert row["verdict"] == "better" and row["raw_verdict"] == "worse" and row["disagree"] is True


def test_compare_reports_the_probe_slope_and_flags_drift():
    bench = {"end_to_end": [], "per_layer": []}
    base = [_record("w", s, 100.0) for s in range(4)]
    steep = [_record("w", s, 100.0, slope=1.6) for s in range(4)]
    report = compare.compare(base, steep, bench)["probe_slope"]["w"]
    assert report["base_slope"] == pytest.approx(1.0) and report["new_slope"] == pytest.approx(1.6)
    assert report["drift"] is True
    assert compare.compare(base, base, bench)["probe_slope"]["w"]["drift"] is False
    assert "drift" not in compare.compare(base, None, bench)["probe_slope"]["w"]


def test_compare_totals_failures_per_side():
    bench = {"end_to_end": [], "per_layer": []}
    base = [_record("w", s, 100.0) for s in range(10)]
    one_failure = [_record("w", s, 100.0, failed=int(s == 3)) for s in range(10)]
    row = compare.compare(base, one_failure, bench)["failures"]["w"]
    assert (row["base_failed"], row["new_failed"], row["new_attempted"]) == (0, 1, 100)
    assert row["more_failures"] is True
    assert compare.compare(base, base, bench)["failures"]["w"]["more_failures"] is False
