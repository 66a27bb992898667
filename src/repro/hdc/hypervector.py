"""Hypervector primitives.

Hyperdimensional computing (HDC) represents information as very wide vectors
("hypervectors") and manipulates them with a small algebra:

* **bundling** (element-wise addition) superimposes hypervectors so that the
  result stays similar to each operand — this is the memorisation primitive,
* **binding** (element-wise multiplication) associates hypervectors and
  produces a result that is quasi-orthogonal to its operands,
* **permutation** (cyclic shift) encodes order/position.

The functions in this module operate on plain ``numpy`` arrays.  A hypervector
is a 1-D array of length ``dim``; batches of hypervectors are 2-D arrays of
shape ``(n, dim)``.  Three flavours of random hypervectors are supported:

* ``"gaussian"``  — dense real values drawn from N(0, 1),
* ``"bipolar"``   — entries in {-1, +1},
* ``"binary"``    — entries in {0, 1}.

These are the building blocks used by :mod:`repro.hdc.encoder` and the
classifiers built on top of it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "random_hypervector",
    "bundle",
    "bind",
    "permute",
    "normalize",
    "bipolarize",
    "binarize",
    "hard_quantize",
    "as_batch",
]

_FLAVOURS = ("gaussian", "bipolar", "binary")


def _as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed or
    ``None`` (fresh nondeterministic generator).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_hypervector(
    dim: int,
    count: int | None = None,
    *,
    flavour: str = "gaussian",
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw random hypervectors.

    Parameters
    ----------
    dim:
        Dimensionality of each hypervector.  Must be positive.
    count:
        Number of hypervectors.  ``None`` returns a single 1-D hypervector;
        an integer returns a ``(count, dim)`` batch.
    flavour:
        ``"gaussian"`` (default), ``"bipolar"`` or ``"binary"``.
    rng:
        Seed or generator for reproducibility.

    Returns
    -------
    numpy.ndarray
        A float64 array of shape ``(dim,)`` or ``(count, dim)``.
    """
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    if count is not None and count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if flavour not in _FLAVOURS:
        raise ValueError(f"flavour must be one of {_FLAVOURS}, got {flavour!r}")

    generator = _as_rng(rng)
    shape = (dim,) if count is None else (count, dim)
    if flavour == "gaussian":
        return generator.standard_normal(shape)
    if flavour == "bipolar":
        return generator.choice(np.array([-1.0, 1.0]), size=shape)
    return generator.integers(0, 2, size=shape).astype(float)


def as_batch(vectors: Iterable[np.ndarray] | np.ndarray) -> np.ndarray:
    """Stack hypervectors into a 2-D ``(n, dim)`` batch.

    A single 1-D hypervector becomes a batch of one.  All hypervectors must
    share the same dimensionality.
    """
    array = np.asarray(vectors, dtype=float)
    if array.ndim == 1:
        return array[None, :]
    if array.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got ndim={array.ndim}")
    return array


def bundle(vectors: Iterable[np.ndarray] | np.ndarray, weights: Sequence[float] | np.ndarray | None = None) -> np.ndarray:
    """Bundle (superimpose) hypervectors by weighted element-wise addition.

    Bundling is the HDC memorisation primitive: the bundled hypervector stays
    similar (high cosine similarity) to each of its operands.

    Parameters
    ----------
    vectors:
        Hypervectors to bundle, shape ``(n, dim)`` or an iterable of 1-D
        hypervectors.
    weights:
        Optional per-hypervector weights of length ``n``.

    Returns
    -------
    numpy.ndarray
        The bundled hypervector of shape ``(dim,)``.
    """
    batch = as_batch(vectors)
    if batch.shape[0] == 0:
        raise ValueError("cannot bundle an empty set of hypervectors")
    if weights is None:
        return batch.sum(axis=0)
    weight_array = np.asarray(weights, dtype=float)
    if weight_array.shape != (batch.shape[0],):
        raise ValueError(
            f"weights must have shape ({batch.shape[0]},), got {weight_array.shape}"
        )
    return weight_array @ batch


def bind(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Bind two hypervectors by element-wise multiplication.

    The bound hypervector is quasi-orthogonal to both operands, which makes
    binding suitable for associating key/value pairs.
    """
    lhs = np.asarray(first, dtype=float)
    rhs = np.asarray(second, dtype=float)
    if lhs.shape[-1] != rhs.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {lhs.shape[-1]} vs {rhs.shape[-1]}"
        )
    return lhs * rhs


def permute(vector: np.ndarray, shifts: int = 1) -> np.ndarray:
    """Cyclically shift a hypervector to encode sequence position."""
    array = np.asarray(vector, dtype=float)
    return np.roll(array, shifts, axis=-1)


def normalize(vector: np.ndarray, *, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Scale hypervectors to unit L2 norm along ``axis``.

    Zero hypervectors are returned unchanged (instead of dividing by zero).
    """
    array = np.asarray(vector, dtype=float)
    norms = np.linalg.norm(array, axis=axis, keepdims=True)
    safe = np.where(norms < eps, 1.0, norms)
    return array / safe


def bipolarize(vector: np.ndarray) -> np.ndarray:
    """Quantize a hypervector to {-1, +1} using the sign of each element.

    Zeros map to +1 so that the output is always a valid bipolar hypervector.
    """
    array = np.asarray(vector, dtype=float)
    return np.where(array >= 0.0, 1.0, -1.0)


def binarize(vector: np.ndarray) -> np.ndarray:
    """Quantize a hypervector to {0, 1} by thresholding at zero."""
    array = np.asarray(vector, dtype=float)
    return (array >= 0.0).astype(float)


def hard_quantize(vector: np.ndarray, *, scheme: str = "bipolar") -> np.ndarray:
    """Quantize with the requested ``scheme`` (``"bipolar"`` or ``"binary"``)."""
    if scheme == "bipolar":
        return bipolarize(vector)
    if scheme == "binary":
        return binarize(vector)
    raise ValueError(f"unknown quantization scheme {scheme!r}")
