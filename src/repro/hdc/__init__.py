"""Hyperdimensional computing substrate.

This subpackage implements the HDC machinery the paper builds on: hypervector
algebra (bundle/bind/permute), similarity metrics, feature encoders (the
OnlineHD nonlinear cos·sin encoder plus a classic record-based encoder), the
OnlineHD adaptive classifier that BoostHD uses as its weak learner (with
``epochs=0`` it is the single-pass centroid classifier), and model
quantisation utilities.
"""

from .encoder import (
    Encoder,
    LevelIdEncoder,
    NonlinearEncoder,
    ProjectionParams,
    SlicedEncoder,
)
from .hypervector import (
    as_batch,
    binarize,
    bind,
    bipolarize,
    bundle,
    hard_quantize,
    normalize,
    permute,
    random_hypervector,
)
from .onlinehd import OnlineHD
from .quantize import (
    FixedPointFormat,
    from_fixed_point,
    quantize_codes,
    to_fixed_point,
)
from .similarity import (
    cosine_similarity,
    dot_similarity,
    hamming_similarity,
    pairwise_cosine,
    popcount_rows,
)

__all__ = [
    "Encoder",
    "LevelIdEncoder",
    "NonlinearEncoder",
    "ProjectionParams",
    "SlicedEncoder",
    "OnlineHD",
    "FixedPointFormat",
    "from_fixed_point",
    "quantize_codes",
    "to_fixed_point",
    "as_batch",
    "binarize",
    "bind",
    "bipolarize",
    "bundle",
    "hard_quantize",
    "normalize",
    "permute",
    "random_hypervector",
    "cosine_similarity",
    "dot_similarity",
    "hamming_similarity",
    "pairwise_cosine",
    "popcount_rows",
]
