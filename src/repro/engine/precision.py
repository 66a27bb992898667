"""The one table of engine precisions, and the one engine builder.

A precision names how an engine stores and compares class hypervectors.
Every entry point that takes one — :func:`~repro.engine.compile_model`,
:meth:`~repro.serving.ModelRegistry.load_compiled`,
:class:`~repro.serving.AdaptiveModel` and the shared-memory transport of
:mod:`repro.serving.shm` — looks it up in :data:`PRECISIONS`, and every
engine is built by :func:`build_engine`:

* ``"float64"`` — :class:`~repro.engine.CompiledModel` over L2-normalised
  float class weights;
* ``"bipolar-packed"`` — :class:`~repro.engine.PackedBipolarModel` over
  sign bits;
* ``"fixed16"`` / ``"fixed8"`` — :class:`~repro.engine.FixedPointModel`
  over integer codes;
* ``"cascade-fixed16"`` — :class:`~repro.engine.CascadeModel`: a packed
  tier plus a fixed16 tier, built over the same components.

:func:`build_engine` takes :class:`~repro.engine.ModelComponents`, whose
learners hold either a fitted model's float hypervectors or an artifact's
stored fixed-point codes.  Stored codes are reused byte-for-byte when their
width fits the requested fixed-point tier (a wider tier reads the same
integers under the same scale), packed by sign for the bipolar tier, and
dequantized only for the float tier or requantized only when narrowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable

import numpy as np

from ..hdc.quantize import SCHEME_BITS, SCHEME_DTYPES, from_fixed_point, quantize_codes
from .cascade import CascadeModel
from .compile import _EPS, CompiledModel, EngineError, ModelComponents, stack_learners
from .quant import FixedPointModel, PackedBipolarModel, pack_words

__all__ = [
    "PRECISIONS",
    "Precision",
    "build_engine",
    "resolve_precision",
]


# ------------------------------------------------------------ class stacks
def _float_values(parts: ModelComponents) -> list[np.ndarray]:
    """Every learner's float class hypervectors (stored codes dequantized)."""
    if parts.scheme is None:
        return list(parts.hypervectors)
    return [
        from_fixed_point(codes, scale)
        for codes, scale in zip(parts.hypervectors, parts.scales)
    ]


def _float_stack(parts: ModelComponents, name: str, dtype) -> dict:
    normalised = [
        values / np.maximum(np.linalg.norm(values, axis=1, keepdims=True), _EPS)
        for values in _float_values(parts)
    ]
    return {"weights": stack_learners(normalised, dtype)}


def _packed_stack(parts: ModelComponents, name: str, dtype) -> dict:
    # Float values and stored codes have the same signs: pack either as is.
    signs = np.hstack(parts.hypervectors) >= 0
    return {"words": pack_words(signs, parts.spans)}


def _fixed_stack(parts: ModelComponents, name: str, dtype) -> dict:
    stored = parts.scheme
    if stored is not None and SCHEME_BITS[stored] <= SCHEME_BITS[name]:
        # Same width: the stored bytes; wider: the same integers, same scale.
        codes = parts.hypervectors
    else:
        codes = [quantize_codes(values, name)[0] for values in _float_values(parts)]
    codes = stack_learners(codes, SCHEME_DTYPES[name])
    norms = np.sqrt(
        np.einsum("ldk,ldk->lk", codes, codes, dtype=np.int64).astype(np.float64)
    )
    return {"codes": codes, "inv_norms": 1.0 / np.maximum(norms, _EPS)}


# -------------------------------------------------------------------- table
@dataclass(frozen=True)
class Precision:
    """One row of :data:`PRECISIONS`: what an engine of that name is made of.

    ``engine`` is the engine class.  A single tier also names ``make``, its
    constructor over prepared arrays (which :mod:`repro.serving.shm` calls
    with views of shared memory), and ``stack``, which builds the engine's
    learner-stacked class arrays — the keywords its ``STACK`` names — from
    the components.  A cascade instead names ``second``, its rerank tier;
    its first tier is always ``"bipolar-packed"``.
    """

    engine: type
    make: Callable | None = None
    stack: Callable | None = None
    second: str | None = None


def _fixed(name: str) -> Precision:
    return Precision(
        engine=FixedPointModel,
        make=partial(FixedPointModel, precision=name),
        stack=_fixed_stack,
    )


#: Every engine precision by name, in the order documentation lists them.
PRECISIONS = MappingProxyType({
    "float64": Precision(engine=CompiledModel, make=CompiledModel, stack=_float_stack),
    "bipolar-packed": Precision(
        engine=PackedBipolarModel, make=PackedBipolarModel, stack=_packed_stack
    ),
    "fixed16": _fixed("fixed16"),
    "fixed8": _fixed("fixed8"),
    "cascade-fixed16": Precision(engine=CascadeModel, second="fixed16"),
})

_ACCEPTED = ", ".join(repr(name) for name in PRECISIONS)


def resolve_precision(precision: str) -> str:
    """``precision`` itself when :data:`PRECISIONS` names it.

    Raises :class:`EngineError` naming every accepted precision otherwise.
    """
    if precision not in PRECISIONS:
        raise EngineError(
            f"unknown precision {precision!r}; accepted serving precisions: {_ACCEPTED}"
        )
    return precision


# ------------------------------------------------------------------ builder
def build_engine(
    components: ModelComponents, precision: str = "float64", *, dtype=np.float32
) -> CompiledModel:
    """Build the engine of ``precision`` over ``components``.

    ``dtype`` is the encoding dtype (and the float tier's class-weight
    dtype); ``float64`` is the loop-path oracle.  The projection is one
    ``(in_features + 1, D_total)`` array, the doubled transposed basis
    stacked over the phase bias.  A cascade's tiers share one set of
    projection arrays, and it starts at
    :data:`~repro.engine.cascade.DEFAULT_THRESHOLD`.
    """
    name = resolve_precision(precision)
    spec = PRECISIONS[name]
    dtype = np.dtype(dtype)
    basis, bias = components.basis, components.bias
    # Half-angle fusion: engines score sin([X, 1] @ [(2B)^T; b]) - sin(b),
    # twice encode(X) = 0.5*(sin(X @ (2B)^T + b) - sin(b)).
    basis2 = np.empty((basis.shape[1] + 1, len(bias)), dtype=dtype)
    basis2[:-1] = (2.0 * basis).T
    basis2[-1] = bias
    prepared = dict(
        basis2=basis2,
        sin_bias=np.sin(bias).astype(dtype),
        spans=components.spans,
        alphas=components.alphas,
        classes=components.classes,
        aggregation=components.aggregation,
        dtype=dtype,
    )
    if spec.second is None:
        return _build_tier(components, name, prepared)
    return CascadeModel(
        first=_build_tier(components, "bipolar-packed", prepared),
        second=_build_tier(components, spec.second, prepared),
    )


def _build_tier(parts: ModelComponents, name: str, prepared: dict):
    spec = PRECISIONS[name]
    stack = spec.stack(parts, name, prepared["dtype"])
    return spec.make(**stack, **prepared)
