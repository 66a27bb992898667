"""Model quantisation helpers for HDC classifiers.

Wearable deployments typically store class hypervectors in reduced precision
(bipolar, fixed-point or float32).  This module converts trained HDC models
between representations: :func:`bipolarize` keeps each element's sign, and
the fixed-point view used by the bit-flip robustness experiments (Figure 8)
stores each hypervector element as a signed integer of ``bits`` bits so that
a single bit flip has a bounded, hardware-realistic effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "bipolarize",
    "FixedPointFormat",
    "to_fixed_point",
    "from_fixed_point",
    "quantize_codes",
]

#: Storage formats of the named fixed-point schemes: total bits and the
#: narrowest NumPy integer dtype that holds the signed code range.
SCHEME_BITS = {"fixed16": 16, "fixed8": 8}
SCHEME_DTYPES = {"fixed16": np.int16, "fixed8": np.int8}


def bipolarize(vector: np.ndarray) -> np.ndarray:
    """Quantize a hypervector to {-1, +1} using the sign of each element.

    Zeros map to +1 so that the output is always a valid bipolar hypervector.
    """
    array = np.asarray(vector, dtype=float)
    return np.where(array >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point format with ``bits`` total bits and a shared scale.

    Values are encoded as ``round(value / scale)`` clipped to the signed range
    ``[-2**(bits-1), 2**(bits-1) - 1]``.
    """

    bits: int = 16
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 32:
            raise ValueError(f"bits must be in [2, 32], got {self.bits}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def min_code(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def max_code(self) -> int:
        return (1 << (self.bits - 1)) - 1


def infer_scale(values: np.ndarray, bits: int = 16) -> FixedPointFormat:
    """Pick a scale so the largest magnitude maps near the top of the range."""
    magnitude = float(np.max(np.abs(values))) if values.size else 1.0
    magnitude = max(magnitude, 1e-12)
    scale = magnitude / ((1 << (bits - 1)) - 1)
    return FixedPointFormat(bits=bits, scale=scale)


def to_fixed_point(
    values: np.ndarray, *, bits: int = 16
) -> tuple[np.ndarray, FixedPointFormat]:
    """Quantize float values to fixed-point integer codes.

    Returns the integer codes (dtype ``int64``) and the format used, whose
    scale is inferred from the data (:func:`infer_scale`).
    """
    array = np.asarray(values, dtype=float)
    fmt = infer_scale(array, bits=bits)
    codes = np.clip(np.round(array / fmt.scale), fmt.min_code, fmt.max_code)
    return codes.astype(np.int64), fmt


def from_fixed_point(codes: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Convert fixed-point integer codes back to floats."""
    return np.asarray(codes, dtype=float) * fmt.scale


def quantize_codes(
    values: np.ndarray, scheme: str = "fixed16"
) -> tuple[np.ndarray, FixedPointFormat]:
    """Quantize floats to a named scheme's *storage* codes, no float round trip.

    Returns ``(codes, fmt)`` where ``codes`` already has the scheme's native
    storage dtype (``int16`` for ``"fixed16"``, ``int8`` for ``"fixed8"``) —
    the form the model registry persists and the integer-domain engines
    (:mod:`repro.engine.quant`) score with directly.  This is the single
    quantisation point: the engine builder and
    ``ModelRegistry._store_hypervectors`` both route through it, so the codes
    a registry stores are byte-identical to the codes a freshly compiled
    fixed-point engine holds.
    """
    if scheme not in SCHEME_BITS:
        raise ValueError(
            f"unknown fixed-point scheme {scheme!r}; available: {sorted(SCHEME_BITS)}"
        )
    codes, fmt = to_fixed_point(values, bits=SCHEME_BITS[scheme])
    return codes.astype(SCHEME_DTYPES[scheme]), fmt
