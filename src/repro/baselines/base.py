"""Light-weight estimator API shared by every model in this repository.

The interface intentionally mirrors the familiar scikit-learn contract —
``fit(X, y, sample_weight=None)``, ``predict(X)`` and ``score(X, y)`` — so
that the experiment harness (:mod:`repro.experiments`) can treat HDC models,
classical baselines and the BoostHD ensemble uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["BaseClassifier", "NotFittedError"]


class NotFittedError(RuntimeError):
    """Raised when ``predict`` is called before ``fit``."""


class BaseClassifier(ABC):
    """Common base class for all classifiers in the repository.

    Subclasses set ``classes_`` during :meth:`fit` and implement :meth:`fit`
    and :meth:`predict`.
    """

    #: Class labels seen during fit, set by subclasses.
    classes_: np.ndarray | None

    # ------------------------------------------------------------------ API
    @abstractmethod
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "BaseClassifier":
        """Fit the model and return ``self``."""

    @abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict class labels for each row of ``X``."""

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy of :meth:`predict` on ``(X, y)``."""
        predictions = self.predict(X)
        return float(np.mean(predictions == np.asarray(y)))

    # ------------------------------------------------------------ validation
    @staticmethod
    def _validate_fit_args(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coerce and sanity-check training data."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got ndim={y.ndim}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}"
            )
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains NaN or infinite values")
        return X, y

    @staticmethod
    def _validate_predict_args(X: np.ndarray) -> np.ndarray:
        """Coerce and sanity-check query data."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError(f"X must be 1-D or 2-D, got ndim={X.ndim}")
        return X

    @staticmethod
    def _validate_sample_weight(
        sample_weight: np.ndarray | None, n_samples: int
    ) -> np.ndarray:
        """Return validated, non-negative sample weights (uniform if omitted)."""
        if sample_weight is None:
            return np.full(n_samples, 1.0 / n_samples)
        weights = np.asarray(sample_weight, dtype=float)
        if weights.shape != (n_samples,):
            raise ValueError(
                f"sample_weight must have shape ({n_samples},), got {weights.shape}"
            )
        if np.any(weights < 0):
            raise ValueError("sample_weight must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("sample_weight must not sum to zero")
        return weights / total

    def _check_fitted(self, attribute: str) -> None:
        """Raise :class:`NotFittedError` unless ``attribute`` is populated."""
        if getattr(self, attribute, None) is None:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )

