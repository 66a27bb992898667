"""Hyperdimensional-space partitioning.

BoostHD's central idea is to split a total hyperdimensional budget
``D_total`` across ``n_learners`` weak learners, each receiving a
``D_total / n_learners``-dimensional subspace (:func:`split_dimensions`).
:func:`partition_encoders` builds a fit's weak-learner encoders in one of
two ways:

* independent (the default) — every weak learner draws its *own* random
  projection of its width.  Because independent Gaussian projections of a
  lower dimension are quasi-orthogonal, this is the straightforward reading
  of the paper;
* shared (``BoostHD(shared_projection=True)``) — a single ``D_total``
  projection is drawn once and weak learner ``i`` encodes with its
  contiguous block of rows (:meth:`~repro.hdc.NonlinearEncoder.slice`,
  row views of the one parent), literally "partitioning" one hyperspace.
  Used by the partitioning ablation.
"""

from __future__ import annotations

import numpy as np

from ..hdc.encoder import NonlinearEncoder

__all__ = ["split_dimensions", "partition_encoders"]


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


def partition_encoders(
    n_features: int,
    total_dim: int,
    n_learners: int,
    *,
    bandwidth: float,
    rng: np.random.Generator,
    shared: bool = False,
) -> list[NonlinearEncoder]:
    """One encoder per weak learner over a ``total_dim`` budget.

    Learner ``i`` gets ``split_dimensions(total_dim, n_learners)[i]``
    dimensions.  Independent encoders each take a seed drawn from ``rng``,
    in learner order; shared ones slice one ``total_dim`` parent seeded by a
    single draw.  Either way every seed is drawn before the caller draws
    anything else for its learners.
    """
    widths = split_dimensions(total_dim, n_learners)
    if shared:
        seed = int(rng.integers(0, 2**31 - 1))
        parent = NonlinearEncoder(n_features, total_dim, bandwidth=bandwidth, rng=seed)
        stops = np.cumsum(widths)
        return [parent.slice(stop - width, stop) for width, stop in zip(widths, stops)]
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in widths]
    return [
        NonlinearEncoder(n_features, width, bandwidth=bandwidth, rng=seed)
        for width, seed in zip(widths, seeds)
    ]
