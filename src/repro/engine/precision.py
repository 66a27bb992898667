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
* ``"cascade-fixed16"`` / ``"cascade-fixed8"`` / ``"cascade-float64"`` —
  :class:`~repro.engine.CascadeModel`: a packed tier plus the named tier,
  built over the same components.  ``"cascade"`` is short for
  ``"cascade-fixed16"`` (:func:`resolve_precision`).

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

from ..hdc.quantize import (
    SCHEME_BITS,
    SCHEME_DTYPES,
    FixedPointFormat,
    from_fixed_point,
    quantize_codes,
)
from .cascade import DEFAULT_THRESHOLD, CascadeModel
from .compile import _EPS, CompiledModel, EngineError, ModelComponents, stack_learners
from .quant import FixedPointModel, PackedBipolarModel, pack_words

__all__ = [
    "ENGINE_OPTIONS",
    "PRECISIONS",
    "Precision",
    "build_engine",
    "resolve_precision",
]

#: Keyword options of :func:`build_engine` — hence of ``compile_model`` and
#: ``ModelRegistry.load_compiled``.  ``threshold`` is for cascades only.
ENGINE_OPTIONS = ("dtype", "threshold")

#: Short names accepted wherever a precision is, and what they stand for.
_ALIASES = {"cascade": "cascade-fixed16"}


# ------------------------------------------------------------ class stacks
def _float_values(parts: ModelComponents) -> list[np.ndarray]:
    """Every learner's float class hypervectors (stored codes dequantized)."""
    if parts.scheme is None:
        return list(parts.hypervectors)
    return [
        from_fixed_point(
            codes.astype(np.int64),
            FixedPointFormat(bits=SCHEME_BITS[parts.scheme], scale=scale),
        )
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
    "cascade-fixed8": Precision(engine=CascadeModel, second="fixed8"),
    "cascade-float64": Precision(engine=CascadeModel, second="float64"),
})

_ACCEPTED = ", ".join(repr(name) for name in (*PRECISIONS, *_ALIASES))


def resolve_precision(precision: str) -> str:
    """The :data:`PRECISIONS` name ``precision`` stands for.

    Returns names from the table unchanged and expands ``"cascade"`` to
    ``"cascade-fixed16"``; raises :class:`EngineError` naming every
    accepted precision for anything else.
    """
    name = _ALIASES.get(precision, precision)
    if name not in PRECISIONS:
        raise EngineError(
            f"unknown precision {precision!r}; accepted serving precisions: {_ACCEPTED}"
        )
    return name


# ------------------------------------------------------------------ builder
def build_engine(
    components: ModelComponents, precision: str = "float64", **options
) -> CompiledModel:
    """Build the engine of ``precision`` over ``components``.

    ``options`` are the :data:`ENGINE_OPTIONS`: ``dtype`` (encoding dtype,
    default ``float32``) and, for a cascade, ``threshold`` (default
    :data:`~repro.engine.cascade.DEFAULT_THRESHOLD`).  Anything else raises
    :class:`EngineError`.  A cascade's tiers share one set of projection
    arrays.
    """
    name = resolve_precision(precision)
    spec = PRECISIONS[name]
    accepted = [key for key in ENGINE_OPTIONS if spec.second or key != "threshold"]
    stray = sorted(set(options) - set(accepted))
    if stray:
        raise EngineError(
            f"unexpected options {stray} for precision {name!r}; accepted: "
            f"{accepted} (threshold is for the cascade precisions)"
        )
    dtype = np.dtype(options.get("dtype", np.float32))
    basis, bias = components.basis, components.bias
    prepared = dict(
        # Half-angle fusion: encode(X) = 0.5*(sin(X @ (2B)^T + b) - sin(b)).
        basis2=np.ascontiguousarray((2.0 * basis).T, dtype=dtype),
        bias=bias.astype(dtype),
        sin_bias=np.sin(bias).astype(dtype),
        spans=components.spans,
        alphas=components.alphas,
        classes=components.classes,
        aggregation=components.aggregation,
        dtype=dtype,
        shared_projection=components.shared,
    )
    if spec.second is None:
        return _build_tier(components, name, prepared)
    return CascadeModel(
        first=_build_tier(components, "bipolar-packed", prepared),
        second=_build_tier(components, spec.second, prepared),
        threshold=options.get("threshold", DEFAULT_THRESHOLD),
    )


def _build_tier(parts: ModelComponents, name: str, prepared: dict):
    spec = PRECISIONS[name]
    stack = spec.stack(parts, name, prepared["dtype"])
    return spec.make(**stack, **prepared)
