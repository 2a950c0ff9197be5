"""Per-worker accuracy metrics of the round loop in ``fed.run``."""

from __future__ import annotations

import numpy as np

from . import mlp
from .labeling import Dataset


def per_worker_accuracy(theta: np.ndarray, test_sets: list[Dataset]) -> np.ndarray:
    """Percent of correctly classified samples on each worker's test split."""
    accs = np.empty(len(test_sets))
    for i, ds in enumerate(test_sets):
        pred = mlp.predict(theta, ds.features)
        accs[i] = 100.0 * float(np.mean(pred == ds.labels))
    return accs


def summarize_accuracy(per_worker: np.ndarray) -> tuple[float, float, float]:
    """(average, worst, population sd) across the per-worker accuracies."""
    return float(np.mean(per_worker)), float(np.min(per_worker)), float(np.std(per_worker))
