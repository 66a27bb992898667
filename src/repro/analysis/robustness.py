"""Bit-flip robustness analysis (Section IV-D, Figure 8).

A fitted model is perturbed many times at each bit-flip probability ``p_b``;
the accuracy distribution over trials is summarised by its mean and Median
Absolute Deviation (the paper's robustness statistic).  The analysis works
for any model whose parameters :func:`repro.data.noise.perturb_model` knows
how to locate (HDC classifiers, BoostHD ensembles, MLPs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..baselines.metrics import accuracy, median_absolute_deviation
from ..data.noise import perturb_model

__all__ = ["BitflipPoint", "BitflipSweepResult", "bitflip_sweep"]


@dataclass(frozen=True)
class BitflipPoint:
    """Accuracy distribution of one model at one bit-flip probability."""

    probability: float
    scores: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))


@dataclass(frozen=True)
class BitflipSweepResult:
    """Full p_b sweep of one fitted model."""

    model_name: str
    clean_accuracy: float
    points: tuple[BitflipPoint, ...]

    @property
    def means(self) -> np.ndarray:
        return np.asarray([point.mean for point in self.points])

    @property
    def accuracy_loss(self) -> np.ndarray:
        """Drop from the clean accuracy at each probability (positive = loss)."""
        return self.clean_accuracy - self.means

    @property
    def overall_mad(self) -> float:
        """MAD of all perturbed accuracies pooled across probabilities."""
        pooled = np.concatenate([point.scores for point in self.points])
        return median_absolute_deviation(pooled)


def bitflip_sweep(
    model: object,
    X_test: np.ndarray,
    y_test: np.ndarray,
    probabilities: Sequence[float],
    *,
    n_trials: int = 20,
    model_name: str = "model",
    rng: int | np.random.Generator | None = None,
) -> BitflipSweepResult:
    """Sweep bit-flip probabilities on a fitted model.

    Each trial flips bits of the 16-bit fixed-point codes of a copy of the
    model's parameter arrays (:func:`repro.data.noise.perturb_model`) and
    re-predicts through the model's own path, so any supported model family
    (HDC, BoostHD, MLP) works.  ``clean_accuracy`` is the unperturbed
    model's (a p=0 perturbation is the identity).

    Parameters
    ----------
    model:
        A *fitted* classifier (it is never modified; perturbed copies are).
    probabilities:
        The p_b values to test (the paper uses the 1e-6 and 1e-5 decades).
    n_trials:
        Independent perturbation trials per probability (paper: 100).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if not probabilities:
        raise ValueError("probabilities must not be empty")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    clean_accuracy = accuracy(y_test, model.predict(X_test))

    points = []
    for probability in probabilities:
        scores = []
        for _ in range(n_trials):
            noisy = perturb_model(model, float(probability), rng=generator)
            scores.append(accuracy(y_test, noisy.predict(X_test)))
        points.append(
            BitflipPoint(probability=float(probability), scores=np.asarray(scores))
        )
    return BitflipSweepResult(
        model_name=model_name, clean_accuracy=float(clean_accuracy), points=tuple(points)
    )
