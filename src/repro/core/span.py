"""Span-utilization analysis of class hypervectors (Section III, Figure 5).

The paper defines the theoretical subspace utilisation of a set of class
hypervectors ``K ∈ R^{C×D}`` as ``rank(K) / D`` and the *practical* span
utilisation

.. math::

   SP = \\frac{\\mathrm{rank}(K)/D}{\\prod_i \\pi_i}

where the attenuation factors ``π_i`` are "product sums of cosine similarity
values between class hypervectors": highly aligned class hypervectors waste
the space they nominally span.  BoostHD's claim (Figure 5) is that its
concatenated class hypervectors are less mutually aligned — equivalently,
its ``SP`` is larger — than a single OnlineHD model of the same total
dimension.

Because the paper does not pin down the exact form of the ``π_i`` beyond the
description above, this module exposes the individual quantities (rank ratio,
pairwise cosine matrix, attenuation product) so the benchmark can report the
whole decomposition, and uses a concrete, monotone attenuation definition:
``π_i = 1 + Σ_{j≠i} |cos(C_i, C_j)|`` (aligned classes ⇒ larger ``π`` ⇒
smaller ``SP``), which preserves the comparison the figure makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hdc.similarity import pairwise_cosine

__all__ = ["SpanUtilization", "rank_ratio", "attenuation_factors", "span_utilization"]


@dataclass(frozen=True)
class SpanUtilization:
    """Decomposed span-utilization report for one set of class hypervectors."""

    rank: int
    dim: int
    rank_ratio: float
    attenuation: np.ndarray
    attenuation_product: float
    sp: float
    mean_abs_cosine: float

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return (
            f"rank {self.rank}/{self.dim} (ratio {self.rank_ratio:.4g}), "
            f"mean |cos| {self.mean_abs_cosine:.3f}, SP {self.sp:.4g}"
        )


def rank_ratio(class_hypervectors: np.ndarray) -> float:
    """Numerical rank of the class-hypervector matrix divided by ``D``."""
    matrix = np.atleast_2d(np.asarray(class_hypervectors, dtype=float))
    rank = int(np.linalg.matrix_rank(matrix))
    return rank / matrix.shape[1]


def attenuation_factors(class_hypervectors: np.ndarray) -> np.ndarray:
    """Per-class attenuation ``π_i = 1 + Σ_{j≠i} |cos(C_i, C_j)|``.

    Perfectly orthogonal class hypervectors give ``π_i = 1`` (no attenuation);
    strongly aligned ones inflate ``π_i`` and hence shrink ``SP``.
    """
    matrix = np.atleast_2d(np.asarray(class_hypervectors, dtype=float))
    cosines = np.abs(pairwise_cosine(matrix))
    np.fill_diagonal(cosines, 0.0)
    return 1.0 + cosines.sum(axis=1)


def span_utilization(class_hypervectors: np.ndarray) -> SpanUtilization:
    """Full span-utilization decomposition of a class-hypervector matrix."""
    matrix = np.atleast_2d(np.asarray(class_hypervectors, dtype=float))
    if matrix.shape[0] < 1:
        raise ValueError("need at least one class hypervector")
    dim = matrix.shape[1]
    rank = int(np.linalg.matrix_rank(matrix))
    ratio = rank / dim
    attenuation = attenuation_factors(matrix)
    product = float(np.prod(attenuation))
    cosines = np.abs(pairwise_cosine(matrix))
    np.fill_diagonal(cosines, 0.0)
    n_classes = matrix.shape[0]
    mean_abs_cosine = (
        float(cosines.sum() / (n_classes * (n_classes - 1))) if n_classes > 1 else 0.0
    )
    return SpanUtilization(
        rank=rank,
        dim=dim,
        rank_ratio=ratio,
        attenuation=attenuation,
        attenuation_product=product,
        sp=ratio / product,
        mean_abs_cosine=mean_abs_cosine,
    )
