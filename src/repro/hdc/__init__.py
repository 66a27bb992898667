"""Hyperdimensional computing substrate.

This subpackage implements the HDC machinery the paper builds on: similarity
metrics, the OnlineHD nonlinear cos·sin feature encoder (whose row slices
serve shared-projection ensembles), the OnlineHD adaptive classifier that
BoostHD uses as its weak learner (with ``epochs=0`` it is the single-pass
centroid classifier), and the fixed-point quantizer.
"""

from .encoder import NonlinearEncoder
from .onlinehd import OnlineHD
from .quantize import from_fixed_point, quantize_codes
from .similarity import (
    cosine_similarity,
    hamming_similarity,
    pairwise_cosine,
    popcount_rows,
)

__all__ = [
    "NonlinearEncoder",
    "OnlineHD",
    "from_fixed_point",
    "quantize_codes",
    "cosine_similarity",
    "hamming_similarity",
    "pairwise_cosine",
    "popcount_rows",
]
