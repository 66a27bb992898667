"""Random Forest classifier (bagged CART trees with feature subsampling).

Matches the paper's baseline configuration: bootstrap enabled, 10 estimators,
probability averaging across trees.
"""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier
from .tree import DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(BaseClassifier):
    """Bagging ensemble of decorrelated decision trees.

    Each split examines a random ``⌊√features⌋`` of the features
    (``max_features="sqrt"``), as is conventional for classification forests.

    Parameters
    ----------
    n_estimators:
        Number of trees (paper: 10).
    max_depth:
        Depth limit for each tree (``None`` grows fully).
    bootstrap:
        Draw a bootstrap resample per tree (paper: enabled).
    min_samples_leaf:
        Minimum samples per leaf of each tree.
    seed:
        Seed controlling resampling and per-tree feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 10,
        *,
        max_depth: int | None = None,
        bootstrap: bool = True,
        min_samples_leaf: int = 1,
        seed: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.bootstrap = bool(bootstrap)
        self.min_samples_leaf = int(min_samples_leaf)
        self.seed = seed
        self.trees_: list[DecisionTreeClassifier] | None = None
        self.classes_: np.ndarray | None = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "RandomForestClassifier":
        X, y = self._validate_fit_args(X, y)
        weights = self._validate_sample_weight(sample_weight, len(y))
        rng = np.random.default_rng(self.seed)
        self.classes_ = np.unique(y)
        self.trees_ = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                max_features="sqrt",
                min_samples_leaf=self.min_samples_leaf,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            if self.bootstrap:
                indices = rng.choice(len(y), size=len(y), replace=True, p=weights)
                tree.fit(X[indices], y[indices])
            else:
                tree.fit(X, y, sample_weight=weights)
            self.trees_.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average per-class probabilities over all trees.

        Trees trained on bootstrap samples may not have seen every class; their
        probabilities are mapped into the forest-level class order.
        """
        self._check_fitted("trees_")
        X = self._validate_predict_args(X)
        aggregate = np.zeros((len(X), len(self.classes_)))
        for tree in self.trees_:
            tree_probabilities = tree.predict_proba(X)
            columns = np.searchsorted(self.classes_, tree.classes_)
            aggregate[:, columns] += tree_probabilities
        return aggregate / self.n_estimators

    def predict(self, X: np.ndarray) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
