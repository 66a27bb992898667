"""Stability analysis: accuracy spread over repeated runs and dimensions.

Section IV-B studies how the run-to-run standard deviation σ of accuracy
shrinks as the hyperdimension D grows, and shows that BoostHD's σ is roughly
three times smaller than OnlineHD's (µ_σ ≈ 0.0046 vs 0.0127).  The results
here summarise a model family's repeated runs per dimension by mean accuracy
and σ, which is exactly what Figure 6 plots
(:func:`repro.experiments.figure6_stability` runs the sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DimensionSweepPoint", "DimensionSweepResult"]


@dataclass(frozen=True)
class DimensionSweepPoint:
    """Accuracy statistics of one model at one dimensionality."""

    dim: int
    scores: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        return float(np.std(self.scores))


@dataclass(frozen=True)
class DimensionSweepResult:
    """Full dimension sweep of one model family."""

    model_name: str
    points: tuple[DimensionSweepPoint, ...]

    @property
    def dims(self) -> np.ndarray:
        return np.asarray([point.dim for point in self.points])

    @property
    def means(self) -> np.ndarray:
        return np.asarray([point.mean for point in self.points])

    @property
    def stds(self) -> np.ndarray:
        return np.asarray([point.std for point in self.points])

    @property
    def mean_sigma(self) -> float:
        """The paper's µ_σ: the average of the per-dimension σ values."""
        return float(np.mean(self.stds))
