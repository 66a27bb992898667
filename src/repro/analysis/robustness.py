"""Bit-flip robustness analysis (Section IV-D, Figure 8).

A fitted model is perturbed many times at each bit-flip probability ``p_b``;
the accuracy distribution over trials is summarised by its mean, worst case
and Median Absolute Deviation (the paper's robustness statistic).  The
analysis works for any model whose parameters :func:`repro.data.noise.perturb_model`
knows how to locate (HDC classifiers, BoostHD ensembles, MLPs).
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

    @property
    def worst(self) -> float:
        return float(np.min(self.scores))


@dataclass(frozen=True)
class BitflipSweepResult:
    """Full p_b sweep of one fitted model."""

    model_name: str
    clean_accuracy: float
    points: tuple[BitflipPoint, ...]

    @property
    def probabilities(self) -> np.ndarray:
        return np.asarray([point.probability for point in self.points])

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
    mode: str = "fixed16",
    model_name: str = "model",
    rng: int | np.random.Generator | None = None,
) -> BitflipSweepResult:
    """Sweep bit-flip probabilities on a fitted model.

    Each trial perturbs a copy of the model's parameter arrays and
    re-predicts through the model's own path, so any supported model family
    (HDC, BoostHD, MLP) works.

    Parameters
    ----------
    model:
        A *fitted* classifier (it is never modified; perturbed copies are).
    probabilities:
        The p_b values to test (the paper uses the 1e-6 and 1e-5 decades).
    n_trials:
        Independent perturbation trials per probability (paper: 100).
    mode:
        Bit-flip representation, see :func:`repro.data.noise.perturb_array`.
        ``"bipolar"`` is the 1-bit model: its flips are the stored sign
        bits of the bit-packed engine.

    For ``mode="bipolar"`` ``clean_accuracy`` is the *quantized* model's own
    accuracy at zero flips, so :attr:`BitflipSweepResult.accuracy_loss`
    measures flip damage only — never the sign-quantization loss itself.
    The fixed-point and float32 modes keep the float model's clean accuracy
    (their p=0 perturbation is the identity).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if not probabilities:
        raise ValueError("probabilities must not be empty")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if mode == "bipolar":
        # The stored model under test is the bipolarized one; p=0 perturbation
        # (which consumes no randomness) is exactly that model.
        baseline = perturb_model(model, 0.0, mode="bipolar", rng=generator)
        clean_accuracy = accuracy(y_test, baseline.predict(X_test))
    else:
        clean_accuracy = accuracy(y_test, model.predict(X_test))

    points = []
    for probability in probabilities:
        scores = []
        for _ in range(n_trials):
            noisy = perturb_model(model, float(probability), mode=mode, rng=generator)
            scores.append(accuracy(y_test, noisy.predict(X_test)))
        points.append(
            BitflipPoint(probability=float(probability), scores=np.asarray(scores))
        )
    return BitflipSweepResult(
        model_name=model_name, clean_accuracy=float(clean_accuracy), points=tuple(points)
    )
