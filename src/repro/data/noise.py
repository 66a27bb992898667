"""Bit-flip noise injection for the robustness experiment (Figure 8).

Wearable hardware stores model parameters in memory that can suffer bit
errors; the paper flips each stored bit independently with probability
``p_b`` and measures the accuracy degradation of DNN, OnlineHD and BoostHD.

Two injection modes are provided:

* :func:`flip_bits_fixed_point` — parameters are quantised to a signed
  fixed-point format (default 16 bit) and bits of the integer codes are
  flipped.  This is the hardware-realistic mode used by the experiments; a
  flip in a high-order bit causes a large bounded perturbation, a flip in a
  low-order bit a tiny one.
* :func:`flip_bits_float32` — bits of the IEEE-754 float32 representation are
  flipped.  Exponent-bit flips can produce huge or non-finite values, which
  mirrors what happens to an unprotected float model; non-finite results are
  kept (models must cope or fail, as they would on hardware).

:func:`perturb_model` applies the chosen mode to every parameter array of a
fitted classifier (HDC class hypervectors, MLP weight matrices) and returns a
perturbed deep copy, leaving the original model untouched.
"""

from __future__ import annotations

import copy

import numpy as np

from ..hdc.quantize import FixedPointFormat, bipolarize, from_fixed_point, to_fixed_point

__all__ = [
    "flip_bits_bipolar",
    "flip_bits_fixed_point",
    "flip_bits_float32",
    "perturb_array",
    "perturb_model",
]


def _as_generator(rng: int | np.random.Generator | None) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def flip_bits_fixed_point(
    values: np.ndarray,
    probability: float,
    *,
    bits: int = 16,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Flip bits of the fixed-point representation of ``values``.

    Each of the ``bits`` bits of every element is flipped independently with
    ``probability``.  The perturbed values are mapped back to floats with the
    same scale.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    array = np.asarray(values, dtype=float)
    if probability == 0.0 or array.size == 0:
        return array.copy()
    generator = _as_generator(rng)
    codes, fmt = to_fixed_point(array, bits=bits)
    # Work in unsigned space so XOR behaves as raw bit manipulation.
    offset = 1 << (fmt.bits - 1)
    unsigned = (codes + offset).astype(np.uint64)
    flip_mask = np.zeros_like(unsigned)
    for bit in range(fmt.bits):
        flips = generator.random(unsigned.shape) < probability
        flip_mask |= flips.astype(np.uint64) << np.uint64(bit)
    unsigned ^= flip_mask
    perturbed_codes = unsigned.astype(np.int64) - offset
    fmt_out = FixedPointFormat(bits=fmt.bits, scale=fmt.scale)
    # Apply only the *delta* caused by the flipped bits, so elements whose
    # bits were untouched keep their exact original value (no quantisation
    # error is introduced by the storage model itself).
    delta = from_fixed_point(perturbed_codes, fmt_out) - from_fixed_point(codes, fmt_out)
    return array + delta


def flip_bits_bipolar(
    values: np.ndarray,
    probability: float,
    *,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Flip signs of the 1-bit bipolar representation of ``values``.

    The bipolar storage model keeps exactly one bit per element (the sign),
    so a stored-bit flip *is* a sign flip: each element of ``bipolarize
    (values)`` is negated independently with ``probability`` — on the
    bit-packed engine (:class:`~repro.engine.PackedBipolarModel`), an XOR
    of the stored class words.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    array = bipolarize(np.asarray(values, dtype=float))
    if probability == 0.0 or array.size == 0:
        return array.copy()
    generator = _as_generator(rng)
    flips = generator.random(array.shape) < probability
    return np.where(flips, -array, array)


def flip_bits_float32(
    values: np.ndarray,
    probability: float,
    *,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Flip bits of the IEEE-754 float32 representation of ``values``."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    array = np.asarray(values, dtype=np.float32)
    if probability == 0.0 or array.size == 0:
        return array.astype(float)
    generator = _as_generator(rng)
    raw = array.view(np.uint32).copy()
    flip_mask = np.zeros_like(raw)
    for bit in range(32):
        flips = generator.random(raw.shape) < probability
        flip_mask |= flips.astype(np.uint32) << np.uint32(bit)
    raw ^= flip_mask
    return raw.view(np.float32).astype(float)


def perturb_array(
    values: np.ndarray,
    probability: float,
    *,
    mode: str = "fixed16",
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Dispatch to the requested bit-flip mode (``fixed16``, ``fixed8``,
    ``float32`` or ``bipolar``)."""
    if mode == "fixed16":
        return flip_bits_fixed_point(values, probability, bits=16, rng=rng)
    if mode == "fixed8":
        return flip_bits_fixed_point(values, probability, bits=8, rng=rng)
    if mode == "float32":
        return flip_bits_float32(values, probability, rng=rng)
    if mode == "bipolar":
        return flip_bits_bipolar(values, probability, rng=rng)
    raise ValueError(f"unknown bit-flip mode {mode!r}")


def _model_parameter_arrays(model: object) -> list[np.ndarray]:
    """Locate the parameter arrays of a fitted model, in a fixed order.

    Supports the three model families the robustness experiment perturbs:
    HDC classifiers (``class_hypervectors_``), BoostHD ensembles (the class
    hypervectors of every weak learner) and MLPs (``weights_``/``biases_``).
    """
    arrays: list[np.ndarray] = []
    if getattr(model, "class_hypervectors_", None) is not None:
        arrays.append(model.class_hypervectors_)
    learners = getattr(model, "learners_", None)
    if learners is not None:
        for learner in learners:
            if getattr(learner, "class_hypervectors_", None) is not None:
                arrays.append(learner.class_hypervectors_)
    if getattr(model, "weights_", None) is not None:
        arrays.extend(model.weights_)
    if getattr(model, "biases_", None) is not None:
        arrays.extend(model.biases_)
    return arrays


def perturb_model(
    model: object,
    probability: float,
    *,
    mode: str = "fixed16",
    rng: int | np.random.Generator | None = None,
) -> object:
    """Return a deep copy of ``model`` with bit-flip noise in its parameters.

    Raises ``ValueError`` when the model exposes no recognised parameter
    arrays (e.g. it has not been fitted yet).
    """
    generator = _as_generator(rng)
    perturbed = copy.deepcopy(model)
    arrays = _model_parameter_arrays(perturbed)
    if not arrays:
        raise ValueError(
            f"{type(model).__name__} exposes no parameter arrays to perturb; is it fitted?"
        )
    for array in arrays:
        array[...] = perturb_array(array, probability, mode=mode, rng=generator)
    return perturbed
