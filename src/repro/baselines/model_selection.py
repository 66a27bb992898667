"""Model-selection helpers: k-fold CV and leave-one-subject-out.

Person-specific results (Table III) require grouping windows by subject.
These helpers provide that machinery on top of the light-weight estimator
API in :mod:`repro.baselines.base`; the paper's repeated independent runs
are :func:`repro.experiments.run_model`.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .base import BaseClassifier, clone
from .metrics import accuracy

__all__ = [
    "kfold_indices",
    "cross_val_score",
    "leave_one_subject_out",
]


def kfold_indices(
    n_samples: int,
    n_folds: int = 5,
    *,
    shuffle: bool = True,
    rng: int | np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_indices, test_indices)`` pairs for k-fold CV."""
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    if n_folds > n_samples:
        raise ValueError(f"n_folds={n_folds} exceeds n_samples={n_samples}")
    indices = np.arange(n_samples)
    if shuffle:
        generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        indices = generator.permutation(indices)
    folds = np.array_split(indices, n_folds)
    for fold_number in range(n_folds):
        test_indices = folds[fold_number]
        train_indices = np.concatenate(
            [folds[other] for other in range(n_folds) if other != fold_number]
        )
        yield train_indices, test_indices


def cross_val_score(
    estimator: BaseClassifier,
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_folds: int = 5,
    metric: Callable[[np.ndarray, np.ndarray], float] = accuracy,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Metric value per fold, fitting a fresh clone of ``estimator`` each time."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    scores = []
    for train_indices, test_indices in kfold_indices(len(y), n_folds, rng=rng):
        model = clone(estimator)
        model.fit(X[train_indices], y[train_indices])
        scores.append(metric(y[test_indices], model.predict(X[test_indices])))
    return np.asarray(scores)


def leave_one_subject_out(
    subjects: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, object]]:
    """Yield ``(train_indices, test_indices, held_out_subject)`` triples."""
    subjects = np.asarray(subjects)
    for subject in np.unique(subjects):
        test_mask = subjects == subject
        yield np.flatnonzero(~test_mask), np.flatnonzero(test_mask), subject
