"""Hyperdimensional-space partitioning strategies.

BoostHD's central idea is to split a total hyperdimensional budget
``D_total`` across ``n_learners`` weak learners, each receiving a
``D_total / n_learners``-dimensional subspace.  Two concrete strategies are
provided:

* :class:`IndependentPartitioner` — every weak learner draws its *own*
  random projection of dimension ``D_total / n``.  Because independent
  Gaussian projections of a lower dimension are quasi-orthogonal, this is the
  straightforward reading of the paper and the default.
* :class:`SharedPartitioner` — a single ``D_total`` projection is drawn once
  and weak learner ``i`` is given the contiguous slice
  ``[i·D/n, (i+1)·D/n)`` of it, literally "partitioning" one hyperspace.
  Used by the partitioning ablation.

Both return per-learner encoder factories, so the boosting loop in
:mod:`repro.core.boosthd` does not care which strategy is in force.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from ..hdc.encoder import Encoder, NonlinearEncoder

__all__ = [
    "split_dimensions",
    "Partitioner",
    "IndependentPartitioner",
    "SharedPartitioner",
]


def split_dimensions(total_dim: int, n_learners: int) -> list[int]:
    """Split ``total_dim`` into ``n_learners`` near-equal positive chunks.

    When ``total_dim`` is not divisible by ``n_learners`` the remainder is
    spread over the first learners, so the sum of the chunks always equals
    ``total_dim``.  Raises ``ValueError`` when there are more learners than
    dimensions (each weak learner must own at least one dimension).
    """
    if total_dim < 1:
        raise ValueError(f"total_dim must be >= 1, got {total_dim}")
    if n_learners < 1:
        raise ValueError(f"n_learners must be >= 1, got {n_learners}")
    if n_learners > total_dim:
        raise ValueError(
            f"cannot split {total_dim} dimensions across {n_learners} learners; "
            "every weak learner needs at least one dimension"
        )
    base = total_dim // n_learners
    remainder = total_dim % n_learners
    return [base + 1 if index < remainder else base for index in range(n_learners)]


class Partitioner(ABC):
    """Factory of per-weak-learner encoders over a partitioned hyperspace.

    The weak learners' encoders are either disjoint slices of one
    ``D_total`` projection (no stacking needed, the parent basis *is* the
    fused basis) or independent projections that must be stacked block by
    block.  The fused engine (:mod:`repro.engine`) tells the two apart from
    the fitted encoders (via
    :meth:`~repro.hdc.encoder.SlicedEncoder.flatten`), so it also handles
    hand-built models that never went through a partitioner.
    """

    def __init__(self, total_dim: int, n_learners: int, *, bandwidth: float = 1.5) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.total_dim = int(total_dim)
        self.n_learners = int(n_learners)
        self.bandwidth = float(bandwidth)
        self.chunk_dims = split_dimensions(self.total_dim, self.n_learners)

    @abstractmethod
    def encoder_factories(
        self, n_features: int, rng: np.random.Generator
    ) -> list[Callable[[], Encoder]]:
        """Return one encoder factory per weak learner."""


class IndependentPartitioner(Partitioner):
    """Each weak learner draws an independent ``D/n``-dimensional projection."""

    def encoder_factories(
        self, n_features: int, rng: np.random.Generator
    ) -> list[Callable[[], Encoder]]:
        factories: list[Callable[[], Encoder]] = []
        for chunk in self.chunk_dims:
            seed = int(rng.integers(0, 2**31 - 1))

            def factory(chunk: int = chunk, seed: int = seed) -> Encoder:
                return NonlinearEncoder(
                    n_features, chunk, bandwidth=self.bandwidth, rng=seed
                )

            factories.append(factory)
        return factories


class SharedPartitioner(Partitioner):
    """Weak learners slice one shared ``D_total``-dimensional projection."""

    def encoder_factories(
        self, n_features: int, rng: np.random.Generator
    ) -> list[Callable[[], Encoder]]:
        seed = int(rng.integers(0, 2**31 - 1))
        parent = NonlinearEncoder(
            n_features, self.total_dim, bandwidth=self.bandwidth, rng=seed
        )
        factories: list[Callable[[], Encoder]] = []
        start = 0
        for chunk in self.chunk_dims:
            stop = start + chunk

            def factory(start: int = start, stop: int = stop) -> Encoder:
                return parent.slice(start, stop)

            factories.append(factory)
            start = stop
        return factories
