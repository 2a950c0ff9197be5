"""Correctness gate: checks applied to every benchmark operation's output.

Each check returns a list of failure messages; an empty list means the
output passed.  The benchmark counts an operation as failed when any check
on it reports a failure.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from risfed import labeling, mlp

LAMBDA_TOL = 1e-12


def digest(*parts) -> str:
    """sha256 over byte strings and the raw bytes of arrays, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def dataset_digest(train_sets, test_sets) -> str:
    parts = []
    for ds in (*train_sets, *test_sets):
        parts += [ds.features, ds.labels, ds.rates]
        if ds.scaler is not None:
            parts += [ds.scaler.mean, ds.scaler.sd]
    return digest(*parts)


def check_datasets(train_sets, test_sets, n_workers: int, J: int) -> list[str]:
    """Finite features and rates, labels in 0..3, the split sizes add up."""
    fails = []
    if len(train_sets) != n_workers or len(test_sets) != n_workers:
        fails.append(f"expected {n_workers} train and test sets")
    for kind, sets in (("train", train_sets), ("test", test_sets)):
        for ds in sets:
            w = f"worker {ds.worker_id} {kind}"
            if not (np.all(np.isfinite(ds.features)) and np.all(np.isfinite(ds.rates))):
                fails.append(f"{w}: non-finite features or rates")
            if ds.labels.size and not (ds.labels.min() >= 0 and ds.labels.max() < labeling.NUM_CLASSES):
                fails.append(f"{w}: label outside 0..{labeling.NUM_CLASSES - 1}")
    for tr, te in zip(train_sets, test_sets):
        if len(tr) + len(te) != J:
            fails.append(f"worker {tr.worker_id}: split sizes {len(tr)}+{len(te)} != J={J}")
    return fails


def check_oracle_labels(profiles, train_sets, picks: list[np.ndarray]) -> list[str]:
    """The stored label of each picked sample equals the argmax of
    ``labeling.rate`` over ``labeling.build_codebook`` for its channel."""
    fails = []
    for profile, ds, idx in zip(profiles, train_sets, picks):
        codebook = labeling.build_codebook(profile.geometry)
        for j in idx:
            h, g = labeling.decode_features(ds.features[j], ds.scaler)
            rates = [labeling.rate(cw, h, g, profile.rate) for cw in codebook.codewords]
            best = int(np.argmax(rates))  # lowest index on ties, as labeling.label
            if best != int(ds.labels[j]):
                fails.append(f"worker {ds.worker_id} sample {j}: label {ds.labels[j]} != oracle {best}")
    return fails


def check_lambda(lam_rows: np.ndarray) -> list[str]:
    """Every dual vector is finite, nonnegative and sums to 1 within 1e-12."""
    lam_rows = np.atleast_2d(np.asarray(lam_rows, dtype=float))
    if not np.all(np.isfinite(lam_rows)):
        return ["non-finite lambda"]
    fails = []
    if np.any(lam_rows < 0.0):
        fails.append("negative lambda entry")
    worst = float(np.max(np.abs(lam_rows.sum(axis=1) - 1.0)))
    if worst > LAMBDA_TOL:
        fails.append(f"lambda sums off 1 by {worst:.3e}")
    return fails


def check_accuracies(acc: np.ndarray) -> list[str]:
    acc = np.asarray(acc, dtype=float)
    if not np.all(np.isfinite(acc)) or np.any(acc < 0.0) or np.any(acc > 100.0):
        return ["accuracy outside [0, 100]"]
    return []


def check_runs_csv(text: bytes, n_workers: int, expected_rows: int) -> list[str]:
    """Parse a runs.csv and check its accuracy and lambda columns."""
    lines = text.decode("ascii").splitlines()
    if not lines:
        return ["empty runs.csv"]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected_rows:
        return [f"runs.csv has {len(rows)} rows, expected {expected_rows}"]
    col = {name: i for i, name in enumerate(header)}
    try:
        acc_cols = [col[c] for c in ("avg_acc", "worst_acc")] + [col[f"acc_w{i}"] for i in range(n_workers)]
        lam_cols = [col[f"lambda_{i}"] for i in range(n_workers)]
        acc = np.array([[float(r[c]) for c in acc_cols] for r in rows])
        lam = np.array([[float(r[c]) for c in lam_cols] for r in rows])
    except (KeyError, ValueError, IndexError) as exc:
        return [f"malformed runs.csv: {exc!r}"]
    return check_accuracies(acc) + check_lambda(lam)


def check_run_result(result) -> list[str]:
    """The in-memory run: finite final model, valid dual history and logs."""
    fails = []
    if not np.all(np.isfinite(mlp.to_vector(result.final_theta))):
        fails.append(f"{result.algorithm} seed {result.seed}: non-finite final model")
    fails += check_lambda(result.lambda_history)
    for log in result.round_logs:
        fails += check_accuracies(log.per_worker_acc)
    return fails


def check_diagnostics(est, trace) -> list[str]:
    """Finite, nonnegative theory constants and gradient-norm trace."""
    values = [est.sigma_hat, est.nu_hat, est.L_hat, est.F0]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        return ["non-finite or negative theory constant"]
    g = np.asarray(trace.grad_norm_sq, dtype=float)
    if not (np.all(np.isfinite(g)) and np.all(g >= 0.0)):
        return ["non-finite or negative gradient-norm trace"]
    return []


def check_digest(kind: str, got: str, want: str | None) -> list[str]:
    if want is not None and got != want:
        return [f"{kind} digest {got[:16]}... != expected {want[:16]}..."]
    return []
