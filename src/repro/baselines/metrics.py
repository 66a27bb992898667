"""Evaluation metrics used throughout the paper's experiments.

The paper reports plain accuracy (Tables I and III), *macro* accuracy —
the unweighted mean of per-class recall — for the imbalance experiment
(Figure 7, so that inflated majority classes cannot hide minority-class
collapse), and the Median Absolute Deviation (MAD) as the robustness summary
for the bit-flip experiment (Figure 8).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "macro_accuracy",
    "median_absolute_deviation",
]


def _validate_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true and y_pred must have the same shape, got {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("cannot compute a metric on empty arrays")
    return y_true, y_pred


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly-matching predictions."""
    y_true, y_pred = _validate_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def macro_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted mean of per-class recall (balanced accuracy).

    This is the metric the paper uses for the imbalanced-data experiment so
    that classes with very few samples count as much as the inflated ones.
    Classes present in ``y_true`` but never predicted correctly contribute a
    recall of zero; classes absent from ``y_true`` are ignored.
    """
    y_true, y_pred = _validate_pair(y_true, y_pred)
    recalls = []
    for label in np.unique(y_true):
        mask = y_true == label
        recalls.append(float(np.mean(y_pred[mask] == label)))
    return float(np.mean(recalls))


def median_absolute_deviation(values: np.ndarray) -> float:
    """MAD = median(|x_i - median(x)|), the paper's robustness statistic."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("cannot compute MAD of an empty array")
    return float(np.median(np.abs(array - np.median(array))))
