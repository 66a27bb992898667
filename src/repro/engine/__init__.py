"""Fused batch-inference engine for HDC ensembles.

BoostHD's weak learners are independent at inference time, so an ensemble of
``n_learners`` small projections is algebraically one big projection: this
subpackage compiles a fitted :class:`~repro.core.BoostHD` (or a single
:class:`~repro.hdc.OnlineHD`) into a :class:`CompiledModel` that encodes a
batch once through a stacked ``(D_total, f)`` basis, evaluates the
trigonometric activation with a single fused transcendental, and scores
every learner at once against one learner-stacked class array (indexed
``[learner, element of the learner's span, class]``), one batched matmul
per bounded row step on every precision tier.  An engine is named by its
precision alone, plus the encoding ``dtype``; calls encode in row blocks
of at most 256 MiB, so memory stays flat at any batch size.

Layout:

* :mod:`repro.engine.compile` — model introspection and the fused scorer,
* :mod:`repro.engine.precision` — the one table of precision names
  (:data:`PRECISIONS`) and the one engine builder (:func:`build_engine`).
  Compiling a fitted model and loading a registry artifact both reduce to
  ``build_engine(components, precision, dtype=...)``:
  :func:`compile_model` decomposes the model with
  :func:`model_components`, :meth:`repro.serving.ModelRegistry.load_compiled`
  reads the same :class:`ModelComponents` straight from the stored arrays
  (fixed-point codes included, never dequantized for an integer tier), and
  :mod:`repro.serving.shm` rebuilds published engines from the same table,
* :mod:`repro.engine.quant` — integer-domain quantized inference: the
  bit-packed bipolar XOR + popcount scorer (:class:`PackedBipolarModel`,
  whose class ``words`` :func:`pack_words` lays out) and the fixed-point
  exact-matmul scorer (:class:`FixedPointModel`),
* :mod:`repro.engine.cascade` — early-exit cascade scoring: a packed first
  pass scores every row, top-2 margins route only ambiguous rows to a
  fixed16 second tier (:class:`CascadeModel`), with held-out threshold
  calibration (``calibrate_threshold``),
* :mod:`repro.engine.train` — the fused *training* engine: exact fast
  adaptive passes with cached norms, opt-in vectorised mini-batch training,
  sort-based initial bundling and per-learner training encoding.  Model fitting
  routes through it by default (see :meth:`repro.hdc.OnlineHD.fit`).

Quick start::

    model = BoostHD(total_dim=10_000, n_learners=10, seed=0).fit(X_train, y_train)
    engine = model.compile()            # float32 encoding
    predictions = engine.predict(X)     # identical to model.predict(X), much faster
    packed = model.compile(precision="bipolar-packed")   # 64x smaller classes
    packed.predict(X)                   # XOR + popcount scoring

The equivalence contract with the loop path is enforced by
``tests/test_engine.py`` across dtypes, encoding blocks, aggregation modes
and shared or independent projections; the quantized engines' contracts
live in ``tests/test_quant_engine.py`` and ``benchmarks/bench_quant.py``.
"""

from .cascade import CalibrationResult, CascadeModel, CascadeStats, top2_margin
from .compile import (
    CompiledModel,
    EngineError,
    ModelComponents,
    compile_model,
    model_components,
)
from .precision import PRECISIONS, Precision, build_engine, resolve_precision
from .quant import FixedPointModel, PackedBipolarModel, pack_words
from .train import (
    ExactPassState,
    adaptive_pass_exact,
    adaptive_pass_minibatch,
    bundle_classes,
    encode_ensemble,
    resolve_trainer,
)

__all__ = [
    "CompiledModel",
    "EngineError",
    "ModelComponents",
    "compile_model",
    "model_components",
    "PRECISIONS",
    "Precision",
    "build_engine",
    "resolve_precision",
    "CalibrationResult",
    "CascadeModel",
    "CascadeStats",
    "top2_margin",
    "FixedPointModel",
    "PackedBipolarModel",
    "pack_words",
    "ExactPassState",
    "adaptive_pass_exact",
    "adaptive_pass_minibatch",
    "bundle_classes",
    "encode_ensemble",
    "resolve_trainer",
]
