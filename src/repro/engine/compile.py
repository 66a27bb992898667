"""Compile fitted HDC ensembles into fused single-pass batch scorers.

The loop path in :meth:`repro.core.BoostHD.decision_function` runs, for each
of the ``n_learners`` weak learners, its own ``(n, f) @ (f, D/n)`` projection,
its own trigonometric activation and its own similarity matmul.  The learners
are independent at inference time (the paper's headline efficiency property),
so all of that fuses:

1. **Stacked projection** — every weak learner's pre-scaled projection basis
   and phase bias (:meth:`~repro.hdc.encoder.NonlinearEncoder.projection_params`)
   are stacked into one ``(f + 1, D_total)`` matrix: the doubled, transposed
   bases with the phase biases as the last row.  Each call's rows are cast
   into an ``(n, f + 1)`` block ending in a column of ones, so the whole
   ensemble projects a batch and adds its biases with a single ``(n, f + 1)
   @ (f + 1, D_total)`` matmul.  For a shared-projection fit the learners'
   row blocks stack back into the parent's scaled basis, bit for bit.
2. **Half-angle trig fusion** — the OnlineHD activation
   ``cos(p + b) * sin(p)`` is rewritten with the product-to-sum identity as
   ``0.5 * (sin(2p + b) - sin(b))``: one transcendental evaluation over the
   ``(n, D_total)`` matrix instead of two, with ``sin(b)`` precomputed.
   Scoring skips the ``0.5``: every tier's scores are exactly invariant
   under a power-of-two scale of the encoding (cosine ratios, the
   fixed-point tiers' per-row query scale, sign bits), so the engines score
   ``sin(2p + b) - sin(b)`` and only :meth:`CompiledModel.encode` halves it.
3. **Learner-stacked scoring** — the class representation is one array
   indexed ``[learner, element of the learner's span, class]`` (for the
   float tier, ``weights`` of shape ``(L, d_max, k)``: L2-normalised class
   hypervectors, zero past each learner's width).  Per row step, every
   learner's span of the encoding is copied into one zero-padded ``(L, m,
   d_max)`` buffer; one batched ``np.matmul`` scores all learners, one
   ``einsum`` takes the per-learner norms, and ``np.add.accumulate`` sums
   the learners in order, followed by the ``Σα`` normalisation.  Zero
   padding changes no dot product, no norm and no row maximum.  Steps
   keep the buffer within :data:`_STEP_BYTES`, for every tier.

Calls encode in row blocks whose ``(rows, D_total)`` encoding stays within
:data:`_ENCODE_BYTES`, so a call's memory stays flat whatever its size; a
call that fits is encoded in one block.

The compiled scorer reproduces the loop path's predictions exactly and its
scores to floating-point tolerance, for both aggregation modes, independent
and shared projections; ``tests/test_engine.py`` holds the equivalence
contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.boosthd import BoostHD, effective_alphas
from ..hdc.encoder import NonlinearEncoder
from ..hdc.onlinehd import OnlineHD
from ..obs import OBS

__all__ = [
    "CompiledModel",
    "EngineError",
    "ModelComponents",
    "assemble_components",
    "compile_model",
    "model_components",
    "stack_learners",
]

#: Denominator clip mirroring :func:`repro.hdc.similarity.cosine_similarity`.
_EPS = 1e-12

#: Upper bound on the temporary of one scoring step: the stacked query
#: buffer of the float and fixed tiers, the XOR words of the packed tier.
#: Rows are scored in steps that keep it within this budget, so a
#: whole-batch call allocates no more than a small chunk.
_STEP_BYTES = 1 << 20

#: Upper bound on the ``(rows, D_total)`` encoding of one row block:
#: :meth:`CompiledModel.encode` and :meth:`CompiledModel.decision_function`
#: encode a call in blocks within this budget.  Not folded into the
#: scoring steps: splitting the encoding matmul by rows changes float64
#: bits, so a call that fits is one block, one matmul.
_ENCODE_BYTES = 256 << 20


class EngineError(RuntimeError):
    """Raised when a model cannot be compiled into the fused engine."""


def stack_learners(arrays: Sequence[np.ndarray], dtype) -> np.ndarray:
    """Stack per-learner ``(k, d_i)`` class arrays into one ``(L, d_max, k)``.

    Learner ``i``'s array lands transposed in ``[i, :d_i]``; the rest of its
    row stays zero.
    """
    width = max(array.shape[1] for array in arrays)
    stack = np.zeros((len(arrays), width, arrays[0].shape[0]), dtype=dtype)
    for index, array in enumerate(arrays):
        stack[index, : array.shape[1]] = array.T
    return stack


def _check_finite(array: np.ndarray, name: str) -> None:
    """``ValueError`` unless every value of ``array`` is finite.

    One BLAS read in the common case: a sum of squares is finite when every
    value is.  Only a non-finite sum, which large finite values can also
    overflow to, is checked value by value.
    """
    flat = array.reshape(-1)
    if not math.isfinite(np.dot(flat, flat)) and not np.isfinite(array).all():
        raise ValueError(f"{name} contains NaN or infinite values")


def _row_steps(n: int, row_bytes: int, budget: int | None = None):
    """Row slices of a loop whose temporary is ``row_bytes`` per row.

    Each slice's temporary stays within ``budget`` bytes (default
    :data:`_STEP_BYTES`, read at call time) and holds at least one row.
    """
    step = max(1, (_STEP_BYTES if budget is None else budget) // row_bytes)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _votes(sims: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Each learner's ``alpha`` on its first best class of ``(L, m, k)`` sims."""
    winner = np.argmax(sims, axis=2)
    return (winner[..., None] == np.arange(sims.shape[2])) * alphas[:, None, None]


def _sum_learners(contributions: np.ndarray) -> np.ndarray:
    """Sum ``(L, m, k)`` per-learner contributions into ``(m, k)`` scores.

    ``accumulate`` adds learner after learner (a reduce may sum pairwise),
    the order of a per-learner ``+=`` loop from zeros; ``+ 0.0`` turns a
    cell where every learner adds ``-0.0`` into the ``+0.0`` that loop
    leaves.  So stacking the learners never changes a bit of the scores.
    """
    return np.add.accumulate(contributions, axis=0)[-1] + 0.0


class CompiledModel:
    """Fused batch scorer produced by :func:`compile_model`.

    Exposes the same inference surface as the source model —
    :meth:`decision_function`, :meth:`predict`, :meth:`predict_proba` — plus
    :meth:`encode` for the raw fused encoding.  All heavy lifting happens
    per batch.

    The constructor adopts already-derived arrays without copying them:
    ``basis2`` is the ``(in_features + 1, D_total)`` projection — the
    pre-doubled, pre-transposed basis with the phase bias as its last row —
    and ``sin_bias`` the bias's sine, both in the engine dtype; ``spans``
    the ``(L, 2)`` ``[start, stop)`` column ranges of the learners (they
    must tile ``[0, D_total)`` in order), ``alphas`` the raw learner
    weights, and the engine's
    learner-stacked class arrays, named in :attr:`STACK` — here
    ``weights``, the ``(L, d_max, k)`` L2-normalised class hypervectors in
    the engine dtype, zero past each learner's width.  Every learner scores
    every class, in the order of ``classes``.
    :func:`~repro.engine.build_engine` derives the arrays;
    :mod:`repro.serving.shm` passes views of shared memory.  Shapes and
    dtypes are validated, layout is the caller's.
    Instances are immutable by convention and safe to share across threads
    for read-only scoring.
    """

    #: Class-hypervector representation this engine scores against; the
    #: quantized variants (:mod:`repro.engine.quant`) override it.
    precision = "float64"

    #: The learner-stacked class arrays this engine scores from, by
    #: constructor keyword: what :mod:`repro.serving.shm` publishes and
    #: :meth:`class_memory_bytes` sums.
    STACK = ("weights",)

    def __init__(self, *, weights: np.ndarray, **options) -> None:
        self._adopt(**options)
        shape = (self.n_learners, self._width, len(self.classes_))
        self.weights = self._stacked("weights", weights, self.dtype, shape)
        self._row_bytes = self.n_learners * self._width * self.dtype.itemsize

    def _adopt(
        self,
        *,
        basis2: np.ndarray,
        sin_bias: np.ndarray,
        spans: np.ndarray,
        alphas: np.ndarray,
        classes: np.ndarray,
        aggregation: str,
        dtype: np.dtype,
    ) -> None:
        """Validate and adopt everything but the class stack (every tier's)."""
        basis2 = np.asarray(basis2)
        sin_bias = np.asarray(sin_bias)
        if basis2.ndim != 2 or len(basis2) < 2:
            raise EngineError(
                f"basis2 must be the (in_features + 1, D_total) transposed "
                f"projection ending in the bias row, got shape {basis2.shape}"
            )
        if sin_bias.shape != (basis2.shape[1],):
            raise EngineError(
                f"sin_bias of shape {sin_bias.shape} does not match "
                f"D_total={basis2.shape[1]}"
            )
        if aggregation not in ("vote", "score"):
            raise EngineError(f"unsupported aggregation {aggregation!r}")
        spans = np.asarray(spans, dtype=np.int64)
        if (
            spans.ndim != 2
            or spans.shape[1:] != (2,)
            or len(spans) == 0
            or spans[0, 0] != 0
            or spans[-1, 1] != basis2.shape[1]
            or np.any(spans[1:, 0] != spans[:-1, 1])
            or np.any(spans[:, 1] <= spans[:, 0])
        ):
            raise EngineError(
                f"spans must tile [0, {basis2.shape[1]}) in order with "
                f"non-empty learner ranges, got {spans.tolist()}"
            )
        alphas = np.asarray(alphas, dtype=float)
        if alphas.shape != (len(spans),):
            raise EngineError(
                f"alphas of shape {alphas.shape} do not match {len(spans)} learners"
            )
        self.dtype = np.dtype(dtype)
        self.classes_ = np.asarray(classes)
        self.aggregation = aggregation
        self.in_features = int(basis2.shape[0]) - 1
        self.total_dim = int(basis2.shape[1])
        self.spans = spans
        self.alphas = alphas

        self._basis2 = basis2
        self._sin_bias = sin_bias
        self._alphas, self._total_alpha = effective_alphas(alphas)
        self._bounds = tuple(map(tuple, spans.tolist()))
        self._width = int((spans[:, 1] - spans[:, 0]).max())

    @staticmethod
    def _stacked(name: str, array, dtype, shape: tuple) -> np.ndarray:
        """``array`` as is; :class:`EngineError` unless of ``dtype`` and ``shape``."""
        array = np.asarray(array)
        if array.dtype != np.dtype(dtype):
            raise EngineError(f"{name} must be {np.dtype(dtype)}, got {array.dtype}")
        if array.shape != shape:
            raise EngineError(
                f"{name} of shape {array.shape} do not match the learner stack {shape}"
            )
        return array

    # ---------------------------------------------------------------- infra
    @property
    def n_learners(self) -> int:
        return len(self.spans)

    def class_memory_bytes(self) -> int:
        """Bytes of the stored class representation: the :attr:`STACK` arrays."""
        return sum(getattr(self, name).nbytes for name in self.STACK)

    def __repr__(self) -> str:
        return (
            f"CompiledModel(n_learners={self.n_learners}, "
            f"total_dim={self.total_dim}, in_features={self.in_features}, "
            f"aggregation={self.aggregation!r}, dtype={self.dtype.name})"
        )

    def _validate(self, X: np.ndarray) -> np.ndarray:
        """``X`` cast into an ``(n, in_features + 1)`` block of the engine
        dtype that ends in a column of ones (the bias row's multiplier).

        Raises ``ValueError`` for a wrong shape and for a NaN or infinite
        value after the cast, so a float64 value beyond float32's range is
        refused too.
        """
        X = np.asarray(X)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError(f"X must be 1-D or 2-D, got ndim={X.ndim}")
        if X.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} features, got {X.shape[1]}"
            )
        rows = np.empty((len(X), self.in_features + 1), dtype=self.dtype)
        rows[:, :-1] = X
        rows[:, -1] = 1.0
        _check_finite(rows, "X")
        return rows

    # ------------------------------------------------------------- encoding
    def _blocks(self, n: int):
        """Row blocks of an ``n``-row call, each encoding within :data:`_ENCODE_BYTES`."""
        return _row_steps(n, self.total_dim * self.dtype.itemsize, _ENCODE_BYTES)

    def _encode_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """``sin(2p + b) - sin(b)`` of one validated row block: twice the
        learner encoding, which every tier scores as it scores the encoding.

        The block's ones column picks up the bias row of ``_basis2``, so the
        matmul adds the phase bias.
        """
        projected = chunk @ self._basis2
        np.sin(projected, out=projected)
        projected -= self._sin_bias
        return projected

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Fused ensemble encoding, shape ``(n_samples, D_total)``.

        Column block ``[start_i, stop_i)`` equals (to floating-point
        tolerance) what weak learner ``i``'s encoder produces on its own.
        Rows are encoded in the blocks :meth:`decision_function` uses, which
        scores twice these encodings, so ``score_encoded(encode(X))`` is
        bitwise ``decision_function(X)``.
        Materialises the full matrix — use :meth:`decision_function` for
        large batches, which keeps one block at a time instead.
        """
        X = self._validate(X)
        encoded = np.empty((len(X), self.total_dim), dtype=self.dtype)
        for rows in self._blocks(len(X)):
            np.multiply(self._encode_chunk(X[rows]), 0.5, out=encoded[rows])
        return encoded

    # -------------------------------------------------------------- scoring
    def _spread(self, encoded: np.ndarray, dtype) -> np.ndarray:
        """Every learner's span of ``encoded`` in one zero-padded ``(L, m, d_max)``."""
        buffer = np.zeros((self.n_learners, len(encoded), self._width), dtype=dtype)
        for row, (start, stop) in zip(buffer, self._bounds):
            row[:, : stop - start] = encoded[:, start:stop]
        return buffer

    def _score_chunk(self, encoded: np.ndarray) -> np.ndarray:
        scores = np.empty((len(encoded), len(self.classes_)), dtype=np.float64)
        for rows in _row_steps(len(encoded), self._row_bytes):
            scores[rows] = self._score_rows(encoded[rows])
        return scores / self._total_alpha

    def _score_rows(self, encoded: np.ndarray) -> np.ndarray:
        """Un-normalised ``(m, k)`` scores of one row step.

        One batched matmul gives every learner's similarities; the rows of
        the small ``(L, m, k)`` result are scaled by ``alpha_i / |h_i|`` (an
        ``einsum`` row reduction), so the ``(n, D_total)`` encoding is never
        mutated.
        """
        queries = self._spread(encoded, self.dtype)
        sims = np.matmul(queries, self.weights)
        if self.aggregation == "vote":
            # Cosine argmax is invariant to the per-sample norm |h|, so the
            # vote path never needs the norms.
            return _sum_learners(_votes(sims, self._alphas))
        norms = np.sqrt(np.einsum("lmd,lmd->lm", queries, queries, dtype=np.float64))
        scale = self._alphas[:, None] / np.maximum(norms, _EPS)
        return _sum_learners(sims * scale[..., None])

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Aggregated per-class scores, shape ``(n_samples, n_classes)``.

        Matches the source model's ``decision_function`` to floating-point
        tolerance (exactly the same aggregation semantics, including the
        degenerate-ensemble guard of :func:`repro.core.boosthd.effective_alphas`).
        """
        X = self._validate(X)
        scores = np.empty((len(X), len(self.classes_)), dtype=np.float64)
        if OBS.enabled:
            return self._decision_function_observed(X, scores)
        for rows in self._blocks(len(X)):
            scores[rows] = self._score_chunk(self._encode_chunk(X[rows]))
        return scores

    def _decision_function_observed(
        self, X: np.ndarray, scores: np.ndarray
    ) -> np.ndarray:
        """The :meth:`decision_function` loop plus telemetry.

        Identical arithmetic on identical blocks, so scores are bit-for-bit
        the same with telemetry on or off; only counters, a per-block
        latency histogram and an ``engine.score`` span are added.
        """
        # Labelled lookups cost ~0.5us each; bind them once per live registry
        # (the cache invalidates when a new capture() swaps the registry).
        instruments = getattr(self, "_obs_instruments", None)
        if instruments is None or instruments[0] is not OBS.metrics:
            metrics = OBS.metrics
            instruments = self._obs_instruments = (
                metrics,
                metrics.counter(
                    "repro_engine_rows_scored_total",
                    "Rows scored through fused engines.",
                    precision=self.precision,
                ),
                metrics.histogram(
                    "repro_engine_chunk_seconds",
                    "Per-chunk encode+score latency.",
                    precision=self.precision,
                ),
            )
        _, rows_scored, chunk_seconds = instruments
        rows_scored.inc(len(X))
        with OBS.recorder.span(
            "engine.score", rows=len(X), precision=self.precision
        ):
            for rows in self._blocks(len(X)):
                start = time.perf_counter()
                scores[rows] = self._score_chunk(self._encode_chunk(X[rows]))
                chunk_seconds.observe(time.perf_counter() - start)
        return scores

    def score_encoded(self, encoded: np.ndarray) -> np.ndarray:
        """Score a pre-encoded ``(n, D_total)`` matrix, skipping the encoder.

        The scoring stage of :meth:`decision_function` on its own — the
        pure class-comparison cost, in the same bounded row steps.  Used
        where one encoding is scored more than once (both cascade tiers
        during calibration) and by the quantized-engine throughput
        benchmarks, which compare scoring stages without the shared
        encoding cost.  Scores are invariant under a power-of-two scale of
        ``encoded``; a NaN or infinite value raises ``ValueError``.
        """
        encoded = np.asarray(encoded, dtype=self.dtype)
        if encoded.ndim == 1:
            encoded = encoded[None, :]
        if encoded.ndim != 2 or encoded.shape[1] != self.total_dim:
            raise ValueError(
                f"expected a (n, {self.total_dim}) encoded matrix, "
                f"got shape {encoded.shape}"
            )
        _check_finite(encoded, "encoded")
        return self._score_chunk(encoded)

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exponent = np.exp(shifted)
        return exponent / exponent.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- compilation
@dataclass(frozen=True)
class ModelComponents:
    """A model decomposed into what :func:`~repro.engine.build_engine` needs.

    Built from a fitted model by :func:`model_components`, or from a stored
    artifact by :meth:`repro.serving.ModelRegistry.load_compiled`, both
    through :func:`assemble_components`.  ``spans`` is the ``(L, 2)``
    array of each learner's ``[start, stop)`` column range in the stacked
    projection.  Every learner scores every class of ``classes``, in
    order, so ``hypervectors[i]`` holds learner ``i``'s ``(k, d_i)`` class
    hypervectors — float values, or, when ``scheme`` names a fixed-point
    format, that format's stored integer codes under the scale
    ``scales[i]``.
    """

    alphas: np.ndarray
    aggregation: str
    classes: np.ndarray
    basis: np.ndarray
    bias: np.ndarray
    spans: np.ndarray
    hypervectors: tuple[np.ndarray, ...]
    scheme: str | None = None
    scales: tuple[float, ...] = ()


def assemble_components(
    encoders: Sequence[NonlinearEncoder],
    learner_classes: Sequence[np.ndarray],
    hypervectors: Sequence[np.ndarray],
    *,
    alphas: np.ndarray,
    aggregation: str,
    classes: np.ndarray,
    scheme: str | None = None,
    scales: Sequence[float] = (),
) -> ModelComponents:
    """Stack encoder projections and collect per-learner class data.

    Raises :class:`EngineError` for a learner whose ``learner_classes`` are
    not ``classes``: the engines score every learner against every class
    column.
    """
    for index, local in enumerate(learner_classes):
        if not np.array_equal(local, classes):
            raise EngineError(
                f"learner {index} has classes {np.asarray(local).tolist()} but "
                f"the ensemble has {np.asarray(classes).tolist()}; every "
                "learner must score every class, in order"
            )
    params = [encoder.projection_params() for encoder in encoders]
    basis = np.vstack([block_basis for block_basis, _ in params])
    bias = np.concatenate([block_bias for _, block_bias in params])
    widths = np.array([encoder.dim for encoder in encoders], dtype=np.int64)
    stops = np.cumsum(widths)
    return ModelComponents(
        alphas=np.asarray(alphas, dtype=float),
        aggregation=aggregation,
        classes=classes,
        basis=basis,
        bias=bias,
        spans=np.stack([stops - widths, stops], axis=1),
        hypervectors=tuple(hypervectors),
        scheme=scheme,
        scales=tuple(float(scale) for scale in scales),
    )


def model_components(model: BoostHD | OnlineHD) -> ModelComponents:
    """Decompose a fitted model into engine components.

    Raises :class:`EngineError` when the model is unfitted or of an
    unsupported type.
    """
    if isinstance(model, BoostHD):
        if model.learners_ is None:
            raise EngineError("cannot compile an unfitted BoostHD; call fit() first")
        learners = model.learners_
        alphas = model.learner_weights_
        aggregation = model.aggregation
    elif isinstance(model, OnlineHD):
        if model.class_hypervectors_ is None:
            raise EngineError("cannot compile an unfitted OnlineHD; call fit() first")
        learners = [model]
        alphas = np.ones(1)
        aggregation = "score"
    else:
        raise EngineError(
            f"cannot compile {type(model).__name__}; expected BoostHD or OnlineHD"
        )
    return assemble_components(
        [learner.encoder for learner in learners],
        [learner.classes_ for learner in learners],
        [learner.class_hypervectors_ for learner in learners],
        alphas=alphas,
        aggregation=aggregation,
        classes=model.classes_,
    )


def compile_model(
    model: BoostHD | OnlineHD, *, precision: str = "float64", dtype=np.float32
) -> CompiledModel:
    """Compile a fitted ``BoostHD`` or ``OnlineHD`` into a fused scorer.

    ``build_engine(model_components(model), precision, dtype=dtype)`` — see
    :func:`repro.engine.build_engine` and :data:`repro.engine.PRECISIONS`.

    Parameters
    ----------
    model:
        A fitted ensemble or single OnlineHD model.
    precision:
        Class-hypervector domain of the scoring stage, a name from
        :data:`~repro.engine.PRECISIONS`.  ``"float64"`` (default) keeps
        the exact float engine; ``"bipolar-packed"`` returns a
        :class:`~repro.engine.quant.PackedBipolarModel` (1-bit sign
        patterns scored by XOR + popcount), ``"fixed16"`` / ``"fixed8"`` a
        :class:`~repro.engine.quant.FixedPointModel` (fixed-point matmuls,
        exact on integer-valued float64 operands), and ``"cascade-fixed16"``
        a :class:`~repro.engine.cascade.CascadeModel` (packed first pass,
        margin-routed fixed16 rerank).  All variants expose the same
        inference API.
    dtype:
        Arithmetic dtype of the fused float path — the encoding stage for
        every engine, plus class-weight storage and the scoring matmul for
        the default float engine (the quantized engines score in the
        integer domain, so ``dtype`` only affects their encoding).
        ``float32`` (default) halves memory traffic and roughly doubles
        BLAS/trig throughput on CPU while keeping predictions identical on
        non-degenerate data; pass ``float64`` for bit-for-bit tolerance
        testing against the loop path.

    Raises
    ------
    EngineError
        If the model is unfitted or of an unsupported type; for an unknown
        precision.
    """
    from .precision import build_engine

    if not OBS.enabled:
        return build_engine(model_components(model), precision, dtype=dtype)
    with OBS.recorder.span("engine.compile", precision=precision):
        engine = build_engine(model_components(model), precision, dtype=dtype)
    OBS.metrics.counter(
        "repro_engine_compiles_total",
        "Engines built through compile_model.",
        precision=engine.precision,
    ).inc()
    return engine
