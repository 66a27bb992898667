"""Similarity metrics between hypervectors.

The paper's Equation (1) defines the similarity between two hypervectors as
normalised dot product (cosine similarity):

.. math::

   \\delta(V_1, V_2) = \\frac{V_1^\\dagger V_2}{\\lVert V_1 \\rVert\\,\\lVert V_2 \\rVert}

All HDC classifiers in this repository compare encoded queries against class
hypervectors with :func:`cosine_similarity`.  Hamming similarity is provided
for binary/bipolar models.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cosine_similarity",
    "hamming_similarity",
    "pairwise_cosine",
    "popcount_rows",
]

_EPS = 1e-12

#: NumPy >= 2 ships a vectorised popcount ufunc; older versions fall back to
#: a 16-bit lookup table (built lazily, 64 KiB once per process).
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POPCOUNT_TABLE: np.ndarray | None = None


def _popcount_table() -> np.ndarray:
    """65536-entry ``uint8`` table of 16-bit popcounts (lazy, cached)."""
    global _POPCOUNT_TABLE
    if _POPCOUNT_TABLE is None:
        bits = np.unpackbits(np.arange(65536, dtype=">u2").view(np.uint8))
        _POPCOUNT_TABLE = bits.reshape(65536, 16).sum(axis=1).astype(np.uint8)
    return _POPCOUNT_TABLE


def _popcount_rows_lut(words: np.ndarray) -> np.ndarray:
    """Lookup-table popcount row reduction over ``uint8`` words.

    Adjacent byte pairs index the 16-bit table in one gather; an odd trailing
    byte indexes the same table directly (its high byte is implicitly zero).
    """
    width = words.shape[-1]
    table = _popcount_table()
    even = width - (width % 2)
    pairs = (words[..., :even:2].astype(np.uint16) << 8) | words[..., 1:even:2]
    counts = table[pairs].sum(axis=-1, dtype=np.int64)
    if width % 2:
        counts = counts + table[words[..., -1]].astype(np.int64)
    return counts


def popcount_rows(words: np.ndarray, axis: int = -1) -> np.ndarray:
    """Total number of set bits per row (summed over ``axis``, the last by default).

    Accepts any unsigned-integer array; uses :func:`numpy.bitwise_count` when
    available and an exact 16-bit lookup-table fallback otherwise
    (property-tested equal in ``tests/test_quant_engine.py``).
    """
    words = np.asarray(words)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=axis, dtype=np.int64)
    flat = np.ascontiguousarray(np.moveaxis(words, axis, -1))
    as_bytes = flat.view(np.uint8).reshape(*flat.shape[:-1], -1)
    return _popcount_rows_lut(as_bytes)


def _prepare(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lhs = np.atleast_2d(np.asarray(first, dtype=float))
    rhs = np.atleast_2d(np.asarray(second, dtype=float))
    if lhs.shape[1] != rhs.shape[1]:
        raise ValueError(f"dimension mismatch: {lhs.shape[1]} vs {rhs.shape[1]}")
    return lhs, rhs


def cosine_similarity(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Cosine similarity (Equation 1) between batches of hypervectors.

    The 1-vs-many case (a single float64 query against a float64 reference
    matrix — the shape of every per-sample adaptive update and every
    single-window serving score) takes a fast path that skips the
    ``atleast_2d``/dtype-coercion plumbing.  It performs the *same*
    ``(1, dim) @ (dim, m)`` matmul, row norms, clip and division as the
    general path, so the result is bit-identical — asserted in
    ``tests/test_similarity.py``.
    """
    if (
        type(first) is np.ndarray
        and type(second) is np.ndarray
        and first.dtype == np.float64
        and second.dtype == np.float64
        and first.ndim == 1
        and second.ndim == 2
        and first.shape[0] == second.shape[1]
    ):
        lhs = first[None, :]
        lhs_norm = np.linalg.norm(lhs, axis=1)
        rhs_norm = np.linalg.norm(second, axis=1)
        denominator = np.maximum(lhs_norm[0] * rhs_norm, _EPS)
        return (lhs @ second.T)[0] / denominator
    lhs, rhs = _prepare(first, second)
    lhs_norm = np.linalg.norm(lhs, axis=1, keepdims=True)
    rhs_norm = np.linalg.norm(rhs, axis=1, keepdims=True)
    denominator = np.maximum(lhs_norm @ rhs_norm.T, _EPS)
    result = (lhs @ rhs.T) / denominator
    return _maybe_squeeze(result, first, second)


def hamming_similarity(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Fraction of matching elements between quantized hypervectors.

    Inputs are interpreted as sign patterns: any non-negative element counts
    as +1 and any negative element as -1, so the metric works for bipolar,
    binary and real-valued hypervectors alike.

    Computed as a sign matmul: for ±1 sign batches, ``S_l @ S_r.T`` counts
    ``matches − mismatches``, so the match fraction is ``(dim + S_l @
    S_r.T) / (2 · dim)``.  A broadcast comparison would materialise the full
    ``(n, m, dim)`` boolean tensor — ~6 GB for two 1024-row batches at the
    paper's ``D_total = 10000`` — where the matmul needs only the ``(n, m)``
    result.  Both numerator and denominator are exact integers in float64
    (for any realistic ``dim``), and IEEE division is correctly rounded, so
    the value is bit-identical to the mean-of-booleans formulation.

    This is the oracle of the bit-packed engine
    (:class:`~repro.engine.PackedBipolarModel`), whose per-learner XOR +
    popcount similarities equal it bitwise on the unpacked signs.
    """
    lhs, rhs = _prepare(first, second)
    dim = lhs.shape[1]
    lhs_sign = np.where(lhs >= 0.0, 1.0, -1.0)
    rhs_sign = np.where(rhs >= 0.0, 1.0, -1.0)
    matches = (dim + lhs_sign @ rhs_sign.T) / (2.0 * dim)
    return _maybe_squeeze(matches, first, second)


def pairwise_cosine(vectors: np.ndarray) -> np.ndarray:
    """Symmetric cosine-similarity matrix of a batch of hypervectors."""
    batch = np.atleast_2d(np.asarray(vectors, dtype=float))
    return cosine_similarity(batch, batch)


def _maybe_squeeze(result: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Squeeze the output back to the natural rank of the inputs."""
    first_is_vector = np.asarray(first).ndim == 1
    second_is_vector = np.asarray(second).ndim == 1
    if first_is_vector and second_is_vector:
        return float(result[0, 0])
    if first_is_vector:
        return result[0]
    if second_is_vector:
        return result[:, 0]
    return result
