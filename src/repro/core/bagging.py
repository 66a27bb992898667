"""Bagged (parallel) ensemble of OnlineHD learners.

The paper warns that "a simplistic parallel ensemble of HDC models may
inadvertently escalate the computational costs ... and may not guarantee
robustness": this module implements exactly that strawman so the ablation
benchmark can compare boosting against bagging under the same dimension
budget.  Each learner receives ``total_dim / n_learners`` dimensions and an
independent bootstrap resample of the training data; predictions are combined
by unweighted majority vote.
"""

from __future__ import annotations

import numpy as np

from ..baselines.base import BaseClassifier
from ..hdc.onlinehd import OnlineHD
from .partition import partition_encoders

__all__ = ["BaggedHD"]


class BaggedHD(BaseClassifier):
    """Parallel (bagged) ensemble of partitioned OnlineHD learners.

    Parameters mirror :class:`~repro.core.boosthd.BoostHD` so the two can be
    swapped in experiments; the only differences are the absence of sample
    re-weighting, of learner importance weights and of the shared-projection
    option (every learner draws its own projection).
    """

    def __init__(
        self,
        total_dim: int = 1000,
        n_learners: int = 10,
        *,
        lr: float = 0.035,
        epochs: int = 20,
        bootstrap: bool = True,
        bandwidth: float = 1.5,
        seed: int | None = None,
    ) -> None:
        if n_learners < 1:
            raise ValueError(f"n_learners must be >= 1, got {n_learners}")
        if total_dim < n_learners:
            raise ValueError(f"total_dim={total_dim} is too small for {n_learners} learners")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.total_dim = int(total_dim)
        self.n_learners = int(n_learners)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.bootstrap = bool(bootstrap)
        self.bandwidth = float(bandwidth)
        self.seed = seed
        self.learners_: list[OnlineHD] | None = None
        self.classes_: np.ndarray | None = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "BaggedHD":
        X, y = self._validate_fit_args(X, y)
        weights = self._validate_sample_weight(sample_weight, len(y))
        rng = np.random.default_rng(self.seed)
        self.classes_ = np.unique(y)

        encoders = partition_encoders(
            X.shape[1], self.total_dim, self.n_learners,
            bandwidth=self.bandwidth, rng=rng,
        )

        self.learners_ = []
        for encoder in encoders:
            learner = OnlineHD(
                lr=self.lr,
                epochs=self.epochs,
                bootstrap=False,
                encoder=encoder,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            if self.bootstrap:
                indices = rng.choice(len(y), size=len(y), replace=True, p=weights)
                learner.fit(X[indices], y[indices])
            else:
                learner.fit(X, y, sample_weight=weights)
            self.learners_.append(learner)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Unweighted vote counts per class."""
        self._check_fitted("learners_")
        X = self._validate_predict_args(X)
        scores = np.zeros((len(X), len(self.classes_)))
        for learner in self.learners_:
            predictions = learner.predict(X)
            columns = np.searchsorted(self.classes_, predictions)
            scores[np.arange(len(X)), columns] += 1.0
        return scores / self.n_learners

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]
