"""The training-encode entry point.

:meth:`repro.core.BoostHD.fit` encodes each weak learner's block through
:func:`encode_ensemble` when that learner's turn comes, trains on it,
estimates the boosting error from it and releases it before the next learner
starts.  A fit therefore holds one learner's ``(n, D/L)`` block at a time,
never the whole ensemble's encoding.  (:meth:`~repro.core.BoostHD.partial_fit`
never predicts, so each learner simply encodes its feedback batch itself.)

Every block is its encoder's own ``encode(X)``: the exact call the
reference trainer (``trainer="reference"``) makes, so fused and reference
training see the same bits by construction.  A shared-projection learner's
encoder (:meth:`~repro.hdc.NonlinearEncoder.slice`) evaluates only its own
rows of the parent projection.
"""

from __future__ import annotations

import numpy as np

from ...hdc.encoder import NonlinearEncoder

__all__ = ["encode_ensemble"]


def encode_ensemble(encoder: NonlinearEncoder, X: np.ndarray) -> np.ndarray:
    """One weak learner's training block: ``encoder.encode(X)``.

    The one entry point training encodes through (and the one the benchmark
    traces as ``train.encode``).
    """
    return encoder.encode(X)
