"""Preprocessing utilities: feature scaling and subject-wise splits.

The paper normalises features "to ensure consistent scaling" after the
moving-average + statistical-feature pipeline and organises test data "by
subject units" — i.e. all windows of a held-out subject land in the test set
together, which is the realistic deployment scenario for wearable models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StandardScaler",
    "subject_train_test_split",
]


@dataclass
class StandardScaler:
    """Zero-mean / unit-variance feature scaling.

    Constant features (zero variance) are left centred but not divided, so
    the transform never produces NaN.
    """

    mean_: np.ndarray | None = field(default=None, init=False)
    scale_: np.ndarray | None = field(default=None, init=False)

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std < 1e-12, 1.0, std)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler must be fitted before transform")
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


def subject_train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    subjects: np.ndarray,
    *,
    test_fraction: float = 0.3,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split so entire subjects are held out for testing (the paper's setup).

    ``subjects`` assigns a subject identifier to every sample; a random subset
    of subjects (at least one) forms the test set.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    X = np.asarray(X)
    y = np.asarray(y)
    subjects = np.asarray(subjects)
    if not (len(X) == len(y) == len(subjects)):
        raise ValueError("X, y and subjects must have the same number of samples")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    unique_subjects = np.unique(subjects)
    if len(unique_subjects) < 2:
        raise ValueError("need at least two subjects for a subject-wise split")
    count = max(1, int(round(test_fraction * len(unique_subjects))))
    count = min(count, len(unique_subjects) - 1)
    test_subjects = generator.choice(unique_subjects, size=count, replace=False)
    test_mask = np.isin(subjects, test_subjects)
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]
