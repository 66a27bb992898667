"""Bit-flip noise injection for the robustness experiment (Figure 8).

Wearable hardware stores model parameters in memory that can suffer bit
errors; the paper flips each stored bit independently with probability
``p_b`` and measures the accuracy degradation of DNN, OnlineHD and BoostHD.

The stored form is the 16-bit fixed-point codes the model registry keeps
and the fixed16 engine scores (:func:`repro.hdc.quantize.quantize_codes`):
:func:`flip_bits_fixed_point` flips bits of those codes, so a flip in a
high-order bit causes a large bounded perturbation and a flip in a low-order
bit a tiny one.  :func:`perturb_model` applies it to every parameter array
of a fitted classifier (HDC class hypervectors, MLP weight matrices) and
returns a perturbed deep copy, leaving the original model untouched.
"""

from __future__ import annotations

import copy

import numpy as np

from ..hdc.quantize import from_fixed_point, quantize_codes

__all__ = ["flip_bits_fixed_point", "perturb_model"]


def _as_generator(rng: int | np.random.Generator | None) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def flip_bits_fixed_point(
    values: np.ndarray,
    probability: float,
    *,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Flip bits of the 16-bit fixed-point codes of ``values``.

    Each of the 16 bits of every code is flipped independently with
    ``probability`` (one uniform draw per element for each bit, lowest bit
    first).  Only the *delta* the flipped bits cause is added to
    ``values``, so elements whose bits were untouched keep their exact
    original value (the storage model adds no quantisation error).
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    array = np.asarray(values, dtype=float)
    if probability == 0.0 or array.size == 0:
        return array.copy()
    generator = _as_generator(rng)
    codes, scale = quantize_codes(array, "fixed16")
    flip_mask = np.zeros(codes.shape, dtype=np.uint16)
    for bit in range(16):
        flips = generator.random(codes.shape) < probability
        flip_mask |= flips.astype(np.uint16) << np.uint16(bit)
    flipped = codes ^ flip_mask.view(np.int16)
    return array + (from_fixed_point(flipped, scale) - from_fixed_point(codes, scale))


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
        array[...] = flip_bits_fixed_point(array, probability, rng=generator)
    return perturbed
