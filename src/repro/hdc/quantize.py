"""Fixed-point quantisation of HDC class hypervectors.

Wearable deployments store class hypervectors as signed fixed-point integer
codes under one shared scale per array.  :func:`quantize_codes` is the one
quantizer: the model registry stores its codes, the integer-domain engines
(:mod:`repro.engine.quant`) score them, and the bit-flip robustness
experiment (Figure 8, :mod:`repro.data.noise`) flips their bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["from_fixed_point", "quantize_codes"]

#: Storage dtype of each named fixed-point scheme: the narrowest NumPy
#: integer dtype that holds the signed code range, and its width in bits.
SCHEME_DTYPES = {"fixed16": np.int16, "fixed8": np.int8}
SCHEME_BITS = {scheme: np.iinfo(dtype).bits for scheme, dtype in SCHEME_DTYPES.items()}


def quantize_codes(
    values: np.ndarray, scheme: str = "fixed16"
) -> tuple[np.ndarray, float]:
    """Quantize floats to a named scheme's *storage* codes and their scale.

    The scale maps the largest magnitude to the top code, ``2**(bits-1) - 1``;
    each code is ``round(value / scale)`` clipped to the signed range and
    cast to the scheme's storage dtype (``int16`` for ``"fixed16"``, ``int8``
    for ``"fixed8"``).  The engine builder and
    ``ModelRegistry._store_hypervectors`` both route through here, so the
    codes a registry stores are byte-identical to the codes a freshly
    compiled fixed-point engine holds.
    """
    if scheme not in SCHEME_DTYPES:
        raise ValueError(
            f"unknown fixed-point scheme {scheme!r}; available: {sorted(SCHEME_DTYPES)}"
        )
    array = np.asarray(values, dtype=float)
    max_code = np.iinfo(SCHEME_DTYPES[scheme]).max
    magnitude = float(np.max(np.abs(array))) if array.size else 1.0
    scale = max(magnitude, 1e-12) / max_code
    codes = np.clip(np.round(array / scale), -max_code - 1, max_code)
    return codes.astype(SCHEME_DTYPES[scheme]), scale


def from_fixed_point(codes: np.ndarray, scale: float) -> np.ndarray:
    """Convert fixed-point integer codes back to floats.

    Raises ``ValueError`` for a scale that is not positive and finite: no
    quantizer makes one, so it marks a damaged or hand-made artifact.
    """
    if not 0.0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return np.asarray(codes, dtype=float) * scale
