"""XGBoost-style gradient-boosted trees (second-order, softmax objective).

The paper's "XGBoost (10 estimators)" baseline is reproduced with an exact
greedy booster: at every round one :class:`~repro.baselines.tree.GradientTreeRegressor`
per class is fitted to the gradient/hessian of the multi-class softmax
cross-entropy, leaves carry the regularised Newton step ``-G/(H+λ)`` and the
ensemble accumulates shrunken raw scores.
"""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier
from .tree import GradientTreeRegressor

__all__ = ["GradientBoostingClassifier"]


def _softmax(raw_scores: np.ndarray) -> np.ndarray:
    shifted = raw_scores - raw_scores.max(axis=1, keepdims=True)
    exponent = np.exp(shifted)
    return exponent / exponent.sum(axis=1, keepdims=True)


class GradientBoostingClassifier(BaseClassifier):
    """Multi-class gradient boosting with second-order tree learners.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds (paper: 10).
    learning_rate:
        Shrinkage applied to each tree's output.
    max_depth:
        Depth of each regression tree.
    reg_lambda:
        L2 regularisation on leaf weights.
    gamma:
        Minimum split gain.

    Every round fits every row, so the booster draws no randomness.
    """

    def __init__(
        self,
        n_estimators: int = 10,
        *,
        learning_rate: float = 0.3,
        max_depth: int = 3,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.reg_lambda = float(reg_lambda)
        self.gamma = float(gamma)
        self.rounds_: list[list[GradientTreeRegressor]] | None = None
        self.base_score_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "GradientBoostingClassifier":
        X, y = self._validate_fit_args(X, y)
        weights = self._validate_sample_weight(sample_weight, len(y)) * len(y)
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        label_index = np.searchsorted(self.classes_, y)
        one_hot = np.zeros((len(y), n_classes))
        one_hot[np.arange(len(y)), label_index] = 1.0

        # Start from the log prior so the first round fits residual structure.
        prior = np.clip(one_hot.mean(axis=0), 1e-6, None)
        self.base_score_ = np.log(prior / prior.sum())

        raw_scores = np.tile(self.base_score_, (len(y), 1))
        self.rounds_ = []
        for _ in range(self.n_estimators):
            probabilities = _softmax(raw_scores)
            gradient = (probabilities - one_hot) * weights[:, None]
            hessian = probabilities * (1.0 - probabilities) * weights[:, None]

            round_trees: list[GradientTreeRegressor] = []
            for class_index in range(n_classes):
                tree = GradientTreeRegressor(
                    max_depth=self.max_depth,
                    reg_lambda=self.reg_lambda,
                    gamma=self.gamma,
                )
                tree.fit(X, gradient[:, class_index], hessian[:, class_index])
                raw_scores[:, class_index] += self.learning_rate * tree.predict(X)
                round_trees.append(tree)
            self.rounds_.append(round_trees)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw (pre-softmax) scores, shape ``(n_samples, n_classes)``."""
        self._check_fitted("rounds_")
        X = self._validate_predict_args(X)
        raw_scores = np.tile(self.base_score_, (len(X), 1))
        for round_trees in self.rounds_:
            for class_index, tree in enumerate(round_trees):
                raw_scores[:, class_index] += self.learning_rate * tree.predict(X)
        return raw_scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]
