"""Linear support vector machine trained with the Pegasos SGD algorithm.

The paper's SVM baseline uses a linear kernel.  Pegasos (primal estimated
sub-gradient solver) minimises the L2-regularised hinge loss with a
``1/(λ·t)`` step size; multi-class problems are handled one-vs-rest, which is
the standard reduction for linear SVMs.
"""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier

__all__ = ["LinearSVM"]


class LinearSVM(BaseClassifier):
    """One-vs-rest linear SVM via Pegasos stochastic sub-gradient descent.

    Parameters
    ----------
    regularization:
        The λ of the Pegasos objective (larger = stronger regularisation).
    epochs:
        Number of passes over the training data per binary problem.
    batch_size:
        Mini-batch size for each sub-gradient step.
    seed:
        Seed controlling mini-batch sampling.
    """

    def __init__(
        self,
        regularization: float = 1e-3,
        *,
        epochs: int = 30,
        batch_size: int = 32,
        seed: int | None = None,
    ) -> None:
        if regularization <= 0:
            raise ValueError(f"regularization must be positive, got {regularization}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.regularization = float(regularization)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    @staticmethod
    def _augment(X: np.ndarray) -> np.ndarray:
        """``X`` with a constant feature appended: its weight is the bias."""
        return np.hstack([X, np.ones((len(X), 1))])

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "LinearSVM":
        X, y = self._validate_fit_args(X, y)
        weights = self._validate_sample_weight(sample_weight, len(y)) * len(y)
        rng = np.random.default_rng(self.seed)
        self.classes_ = np.unique(y)
        augmented = self._augment(X)
        n_samples, n_features = augmented.shape

        self.weights_ = np.zeros((len(self.classes_), n_features))
        for class_index, label in enumerate(self.classes_):
            targets = np.where(y == label, 1.0, -1.0)
            weight_vector = np.zeros(n_features)
            step = 0
            for _ in range(self.epochs):
                order = rng.permutation(n_samples)
                for start in range(0, n_samples, self.batch_size):
                    step += 1
                    batch = order[start : start + self.batch_size]
                    eta = 1.0 / (self.regularization * step)
                    margins = targets[batch] * (augmented[batch] @ weight_vector)
                    violators = margins < 1.0
                    gradient = self.regularization * weight_vector
                    if np.any(violators):
                        rows = batch[violators]
                        gradient -= (
                            (weights[rows] * targets[rows]) @ augmented[rows]
                        ) / len(batch)
                    weight_vector -= eta * gradient
                    # Pegasos projection onto the ball of radius 1/sqrt(λ).
                    norm = np.linalg.norm(weight_vector)
                    radius = 1.0 / np.sqrt(self.regularization)
                    if norm > radius:
                        weight_vector *= radius / norm
            self.weights_[class_index] = weight_vector
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """One-vs-rest margins, shape ``(n_samples, n_classes)``."""
        self._check_fitted("weights_")
        X = self._validate_predict_args(X)
        return self._augment(X) @ self.weights_.T

    def predict(self, X: np.ndarray) -> np.ndarray:
        margins = self.decision_function(X)
        return self.classes_[np.argmax(margins, axis=1)]
