"""CART decision trees built from scratch on ``numpy``.

Two tree flavours support the classical baselines the paper compares against:

* :class:`DecisionTreeClassifier` — Gini classification tree with sample
  weights, used directly and as the base learner for Random Forest
  (:mod:`repro.baselines.random_forest`) and AdaBoost
  (:mod:`repro.baselines.adaboost`).
* :class:`GradientTreeRegressor` — a regression tree that fits second-order
  (gradient, hessian) statistics with L2 leaf regularisation, the building
  block of the XGBoost-style booster in
  :mod:`repro.baselines.gradient_boosting`.

Split search is exact: every feature's sorted unique values are considered as
thresholds, with impurity deltas computed from cumulative sums so that each
node costs ``O(features × samples log samples)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import BaseClassifier

__all__ = ["DecisionTreeClassifier", "GradientTreeRegressor", "TreeNode"]


@dataclass
class TreeNode:
    """A node of a binary decision tree.

    Leaves have ``feature is None`` and carry either a class-probability
    vector (classification) or a scalar ``value`` (regression).
    """

    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: Optional[np.ndarray | float] = None
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def depth(self) -> int:
        """Depth of the subtree rooted at this node (a single leaf has depth 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def count_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.count_leaves() + self.right.count_leaves()


def _gini(weighted_counts: np.ndarray) -> np.ndarray:
    """Gini impurity of one or more nodes given per-class weighted counts.

    ``weighted_counts`` has shape ``(..., n_classes)``; the result drops the
    last axis.
    """
    totals = weighted_counts.sum(axis=-1, keepdims=True)
    safe_totals = np.where(totals <= 0, 1.0, totals)
    proportions = weighted_counts / safe_totals
    impurity = 1.0 - np.sum(proportions**2, axis=-1)
    return np.where(totals[..., 0] <= 0, 0.0, impurity)


class DecisionTreeClassifier(BaseClassifier):
    """CART classification tree (Gini impurity) with sample-weight support.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` grows until pure or ``min_samples_split``).
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        Features examined per split: ``None`` (all) or ``"sqrt"`` (a random
        ``⌊√features⌋`` of them).  Random Forests rely on this for
        decorrelation.
    seed:
        Seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        *,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: str | None = None,
        seed: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if max_features not in (None, "sqrt"):
            raise ValueError(f"max_features must be None or 'sqrt', got {max_features!r}")
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.seed = seed
        self.root_: TreeNode | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "DecisionTreeClassifier":
        X, y = self._validate_fit_args(X, y)
        weights = self._validate_sample_weight(sample_weight, len(y))
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.seed)
        label_index = np.searchsorted(self.classes_, y)
        self.root_ = self._grow(X, label_index, weights, depth=0)
        return self

    def _resolve_max_features(self) -> int:
        total = self.n_features_
        if self.max_features is None:
            return total
        return max(1, int(np.sqrt(total)))

    def _leaf(self, label_index: np.ndarray, weights: np.ndarray) -> TreeNode:
        counts = np.zeros(len(self.classes_))
        np.add.at(counts, label_index, weights)
        total = counts.sum()
        probabilities = counts / total if total > 0 else np.full_like(counts, 1.0 / len(counts))
        return TreeNode(value=probabilities, n_samples=len(label_index))

    def _grow(
        self, X: np.ndarray, label_index: np.ndarray, weights: np.ndarray, depth: int
    ) -> TreeNode:
        n_samples = len(label_index)
        pure = len(np.unique(label_index)) == 1
        depth_exhausted = self.max_depth is not None and depth >= self.max_depth
        if pure or depth_exhausted or n_samples < self.min_samples_split:
            return self._leaf(label_index, weights)

        split = self._best_split(X, label_index, weights)
        if split is None:
            return self._leaf(label_index, weights)

        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        node = TreeNode(feature=feature, threshold=threshold, n_samples=n_samples)
        node.left = self._grow(X[left_mask], label_index[left_mask], weights[left_mask], depth + 1)
        node.right = self._grow(X[~left_mask], label_index[~left_mask], weights[~left_mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, label_index: np.ndarray, weights: np.ndarray
    ) -> tuple[int, float] | None:
        """Exhaustive impurity-minimising split over a random feature subset."""
        n_samples, n_features = X.shape
        n_classes = len(self.classes_)
        feature_count = self._resolve_max_features()
        candidate_features = self._rng.choice(n_features, size=feature_count, replace=False)

        parent_counts = np.zeros(n_classes)
        np.add.at(parent_counts, label_index, weights)
        parent_impurity = float(_gini(parent_counts))
        total_weight = weights.sum()

        best_gain = 1e-12
        best: tuple[int, float] | None = None
        for feature in candidate_features:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            sorted_labels = label_index[order]
            sorted_weights = weights[order]

            # Cumulative weighted class counts for the left partition after
            # each prefix of the sorted samples.
            one_hot = np.zeros((n_samples, n_classes))
            one_hot[np.arange(n_samples), sorted_labels] = sorted_weights
            left_counts = np.cumsum(one_hot, axis=0)[:-1]
            right_counts = parent_counts[None, :] - left_counts

            # Candidate boundaries are positions where the value changes.
            boundaries = np.flatnonzero(np.diff(sorted_values) > 0)
            if boundaries.size == 0:
                continue
            left_sizes = boundaries + 1
            right_sizes = n_samples - left_sizes
            valid = (left_sizes >= self.min_samples_leaf) & (right_sizes >= self.min_samples_leaf)
            boundaries = boundaries[valid]
            if boundaries.size == 0:
                continue

            left_weight = left_counts[boundaries].sum(axis=1)
            right_weight = right_counts[boundaries].sum(axis=1)
            left_impurity = _gini(left_counts[boundaries])
            right_impurity = _gini(right_counts[boundaries])
            children = (left_weight * left_impurity + right_weight * right_impurity) / total_weight
            gains = parent_impurity - children

            best_index = int(np.argmax(gains))
            if gains[best_index] > best_gain:
                best_gain = float(gains[best_index])
                boundary = boundaries[best_index]
                threshold = 0.5 * (sorted_values[boundary] + sorted_values[boundary + 1])
                best = (int(feature), float(threshold))
        return best

    # -------------------------------------------------------------- predict
    def _leaf_probabilities(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("root_")
        X = self._validate_predict_args(X)
        output = np.empty((len(X), len(self.classes_)))
        for row, sample in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if sample[node.feature] <= node.threshold else node.right
            output[row] = node.value
        return output

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates from leaf weighted class frequencies."""
        return self._leaf_probabilities(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        probabilities = self._leaf_probabilities(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def depth(self) -> int:
        """Depth of the fitted tree."""
        self._check_fitted("root_")
        return self.root_.depth()


class GradientTreeRegressor:
    """Regression tree on (gradient, hessian) pairs with L2 regularisation.

    Implements the exact greedy split finding used by XGBoost: for a node with
    gradient sum ``G`` and hessian sum ``H``, the optimal leaf weight is
    ``-G / (H + λ)`` and the split gain is

    .. math::

       \\tfrac{1}{2}\\left(\\frac{G_L^2}{H_L+\\lambda} + \\frac{G_R^2}{H_R+\\lambda}
       - \\frac{G^2}{H+\\lambda}\\right) - \\gamma

    Parameters
    ----------
    max_depth:
        Maximum depth (XGBoost default style, small trees).
    reg_lambda:
        L2 regularisation on leaf weights.
    gamma:
        Minimum gain required to keep a split.
    min_child_weight:
        Minimum hessian sum allowed in a child.
    """

    def __init__(
        self,
        max_depth: int = 3,
        *,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1e-3,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if reg_lambda < 0:
            raise ValueError(f"reg_lambda must be >= 0, got {reg_lambda}")
        self.max_depth = int(max_depth)
        self.reg_lambda = float(reg_lambda)
        self.gamma = float(gamma)
        self.min_child_weight = float(min_child_weight)
        self.root_: TreeNode | None = None

    def fit(self, X: np.ndarray, gradient: np.ndarray, hessian: np.ndarray) -> "GradientTreeRegressor":
        X = np.asarray(X, dtype=float)
        gradient = np.asarray(gradient, dtype=float)
        hessian = np.asarray(hessian, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if gradient.shape != (len(X),) or hessian.shape != (len(X),):
            raise ValueError("gradient and hessian must be 1-D with one entry per sample")
        self.root_ = self._grow(X, gradient, hessian, depth=0)
        return self

    def _leaf_value(self, gradient_sum: float, hessian_sum: float) -> float:
        return -gradient_sum / (hessian_sum + self.reg_lambda)

    def _grow(self, X: np.ndarray, gradient: np.ndarray, hessian: np.ndarray, depth: int) -> TreeNode:
        gradient_sum = float(gradient.sum())
        hessian_sum = float(hessian.sum())
        if depth >= self.max_depth or len(X) < 2:
            return TreeNode(value=self._leaf_value(gradient_sum, hessian_sum), n_samples=len(X))

        split = self._best_split(X, gradient, hessian, gradient_sum, hessian_sum)
        if split is None:
            return TreeNode(value=self._leaf_value(gradient_sum, hessian_sum), n_samples=len(X))

        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        node = TreeNode(feature=feature, threshold=threshold, n_samples=len(X))
        node.left = self._grow(X[left_mask], gradient[left_mask], hessian[left_mask], depth + 1)
        node.right = self._grow(X[~left_mask], gradient[~left_mask], hessian[~left_mask], depth + 1)
        return node

    def _best_split(
        self,
        X: np.ndarray,
        gradient: np.ndarray,
        hessian: np.ndarray,
        gradient_sum: float,
        hessian_sum: float,
    ) -> tuple[int, float] | None:
        parent_score = gradient_sum**2 / (hessian_sum + self.reg_lambda)
        best_gain = self.gamma + 1e-12
        best: tuple[int, float] | None = None
        n_samples, n_features = X.shape

        for feature in range(n_features):
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            left_gradient = np.cumsum(gradient[order])[:-1]
            left_hessian = np.cumsum(hessian[order])[:-1]
            right_gradient = gradient_sum - left_gradient
            right_hessian = hessian_sum - left_hessian

            boundaries = np.flatnonzero(np.diff(sorted_values) > 0)
            if boundaries.size == 0:
                continue
            valid = (
                (left_hessian[boundaries] >= self.min_child_weight)
                & (right_hessian[boundaries] >= self.min_child_weight)
            )
            boundaries = boundaries[valid]
            if boundaries.size == 0:
                continue

            gains = 0.5 * (
                left_gradient[boundaries] ** 2 / (left_hessian[boundaries] + self.reg_lambda)
                + right_gradient[boundaries] ** 2 / (right_hessian[boundaries] + self.reg_lambda)
                - parent_score
            )
            best_index = int(np.argmax(gains))
            if gains[best_index] > best_gain:
                best_gain = float(gains[best_index])
                boundary = boundaries[best_index]
                threshold = 0.5 * (sorted_values[boundary] + sorted_values[boundary + 1])
                best = (int(feature), float(threshold))
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.root_ is None:
            raise RuntimeError("GradientTreeRegressor is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        output = np.empty(len(X))
        for row, sample in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if sample[node.feature] <= node.threshold else node.right
            output[row] = node.value
        return output
