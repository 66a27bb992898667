"""Integer-domain quantized inference engines.

The paper's deployment target stores class hypervectors in reduced precision
(bipolar / fixed8 / fixed16 — Section IV-D and the Figure 8 bit-flip study),
but the float engines in :mod:`repro.engine.compile` always score against
float64/float32 class weights.  This module scores against the integer
representation itself with exact arithmetic (XOR/popcount on integer words,
or float64 matmuls over operands that hold exact integers), in two
compiled-model variants that mirror the
:class:`~repro.engine.compile.CompiledModel` API exactly (``encode`` /
``decision_function`` / ``predict`` / ``predict_proba`` / ``score_encoded``):

Both keep their class representation in the learner-stacked layout every
engine tier shares (one array indexed by learner first, see
:mod:`repro.engine.compile`) and score all learners at once per row step,
the step temporary bounded by ``_STEP_BYTES``:

* :class:`PackedBipolarModel` — the classic 1-bit HDC model.  Class
  hypervectors are sign-quantized and bit-packed into ``words``, the
  ``(L, k, W)`` ``uint64`` stack of each learner's sign bits in its own
  ``W``-word window of the packed row (:func:`pack_words`; ~1 bit per
  element, a ~60x reduction over float64).  A query chunk is sign-packed
  with one ``packbits`` over whole rows into the same windows, and one XOR
  + one popcount (:func:`numpy.bitwise_count` on NumPy >= 2, a 16-bit
  lookup table otherwise) compares every learner's query bits with every
  class at once.  Per-learner similarities are *bit-identical* to
  :func:`repro.hdc.similarity.hamming_similarity` on the unpacked signs —
  both reduce to the correctly rounded quotient of the exact integers
  ``matches`` and ``dim``.
* :class:`FixedPointModel` — class hypervectors stored as ``codes``, the
  ``(L, d_max, k)`` stack of ``int8`` / ``int16`` fixed-point codes
  (:func:`repro.hdc.quantize.quantize_codes`), with their reciprocal code
  norms ``inv_norms``.  Each query row is quantized to the same bit width
  with a per-row, per-learner scale (scores never depend on batch
  composition) and scored with one batched float64 BLAS matmul whose
  operands hold exact integers: every product and partial sum is an
  integer below ``2**53``, so the dot products are exact in any summation
  order and under any zero padding (checked once per engine against the
  widest learner), and the per-class code norms are folded into a single
  final float rescale.  Because cosine similarity is scale-invariant in
  each argument, the fixed-point scales cancel: the result equals the
  float cosine of the *dequantized* query and class representatives to
  machine precision — the arithmetic is exact, the only error is the
  representation rounding itself.

Both are built by :func:`repro.engine.build_engine` — from a fitted model
through :func:`repro.engine.compile_model`, or *directly from stored
integer codes* through :meth:`repro.serving.ModelRegistry.load_compiled`.
Pad bits are zero in both XOR operands, so they cancel and never
contaminate the mismatch counts.

``benchmarks/bench_quant.py`` enforces the subsystem contracts: >= 8x class
memory reduction and >= 2x single-thread scoring throughput for the packed
engine versus the float64 engine at the paper's ``D_total = 10000``, >= 4x
memory reduction for fixed8, all gated on prediction parity against the
float engine on the Table I mini datasets.
"""

from __future__ import annotations

import numpy as np

from ..hdc.quantize import SCHEME_BITS, SCHEME_DTYPES
from ..hdc.similarity import popcount_rows
from .compile import _EPS, CompiledModel, EngineError, _row_steps, _sum_learners, _votes

__all__ = [
    "FixedPointModel",
    "PackedBipolarModel",
    "pack_words",
]

#: Integers of magnitude below this bound are exact in float64, so sums of
#: them that stay below it never round.
_EXACT_FLOAT = 2**53


def _pad_packed(packed: np.ndarray, words: int) -> np.ndarray:
    """Zero-pad uint8-packed rows to ``words`` whole ``uint64`` words.

    The pad bytes are zero in every row, so XOR between two padded rows is
    zero there and popcount never sees phantom mismatches.
    """
    rows, width = packed.shape
    buffer = np.zeros((rows, words * 8), dtype=np.uint8)
    buffer[:, :width] = packed
    return buffer.view(np.uint64)


def _word_windows(spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index, mask)`` of the packed layout over learner ``spans``.

    A bit row is packed once over all its elements (element ``j`` lands in
    word ``j // 64``).  Learner ``i`` reads the words ``index[i]`` of that
    row — its span, zero-padded to the widest learner's ``W`` words —
    ANDed with ``mask[i]``, its own bits.  Both are ``(L, W)``; a packed
    row needs ``index.max() + 1`` words.
    """
    first = spans[:, 0] // 64
    width = int((-(-spans[:, 1] // 64) - first).max())
    index = first[:, None] + np.arange(width)
    elements = np.arange(64 * (int(index.max()) + 1))
    inside = (elements >= spans[:, :1]) & (elements < spans[:, 1:])
    rows = np.packbits(inside, axis=1).view(np.uint64)
    return index, np.take_along_axis(rows, index, axis=1)


def _windowed(bits: np.ndarray, index: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``(L, W, n)`` words of ``(n, D_total)`` bit rows in the windows of
    :func:`_word_windows`."""
    row = _pad_packed(np.packbits(bits, axis=1), int(index.max()) + 1)
    words = np.take(row.T, index, axis=0)
    words &= mask[..., None]
    return words


def pack_words(bits: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Learner-stacked ``(L, n, W)`` ``uint64`` words of ``(n, D_total)`` bit rows.

    The layout of :class:`PackedBipolarModel`'s class ``words``: learner
    ``i``'s bits of a row sit in its ``W``-word window at their packed-row
    positions (element ``j`` in word ``j // 64 - spans[i, 0] // 64``), every
    other bit is zero.  Query words are packed the same way, with the batch
    on the last axis.
    """
    words = _windowed(bits, *_word_windows(np.asarray(spans)))
    return np.ascontiguousarray(words.transpose(0, 2, 1))


# ------------------------------------------------------------------ engines
class PackedBipolarModel(CompiledModel):
    """Bit-packed 1-bit HDC scorer: sign encode once, one XOR + popcount pass.

    Mirrors :class:`~repro.engine.compile.CompiledModel` (same constructor
    infrastructure and encoding path); only the class
    stack and the scoring stage differ.  ``words`` is the ``(L, k, W)``
    ``uint64`` stack of every learner's class sign bits in its word window
    (:func:`pack_words` of the ``(k, D_total)`` signs); a bit is 1 where
    the class hypervector is non-negative (zero maps to +1).  Each
    query row's sign pattern is compared against every learner's class
    patterns in one XOR + popcount, and the per-learner match fraction
    ``(dim - mismatches) / dim`` — bit-identical to ``hamming_similarity``
    on the unpacked signs — is aggregated exactly like the float engine
    aggregates cosine scores (``alpha``-weighted ``"score"`` accumulation
    or ``"vote"`` argmax), learner after learner.

    Note the 1-bit representation *is* lossy: scores are hamming rather
    than cosine similarities, so an argmax can legitimately move on
    borderline windows (accuracy parity on the Table I datasets is enforced
    by ``benchmarks/bench_quant.py``; exactness is defined — and tested —
    against the hamming reference).
    """

    precision = "bipolar-packed"
    STACK = ("words",)

    def __init__(self, *, words: np.ndarray, **options) -> None:
        self._adopt(**options)
        self._index, self._mask = _word_windows(self.spans)
        shape = (self.n_learners, len(self.classes_), self._index.shape[1])
        self.words = self._stacked("words", words, np.uint64, shape)
        self._dims = (self.spans[:, 1] - self.spans[:, 0])[:, None, None]
        # Query words keep the batch on the last axis, so the XOR/popcount
        # inner loops run along the rows; one step's XOR temporary holds
        # every learner's words against every class for each row.
        self._row_bytes = self.words.nbytes

    def __repr__(self) -> str:
        return (
            f"PackedBipolarModel(n_learners={self.n_learners}, "
            f"total_dim={self.total_dim}, in_features={self.in_features}, "
            f"aggregation={self.aggregation!r}, dtype={self.dtype.name}, "
            f"class_bytes={self.class_memory_bytes()})"
        )

    def _score_chunk(self, encoded: np.ndarray) -> np.ndarray:
        # (L, W, n) sign words of the chunk in every learner's window.
        words = _windowed(encoded >= 0, self._index, self._mask)
        n = words.shape[-1]
        scores = np.empty((n, len(self.classes_)), dtype=np.float64)
        classes = self.words[..., None]
        # The XOR/popcount/divide arithmetic is exact per row, so scoring in
        # bounded steps is bit-identical to one whole-batch pass.
        for part in _row_steps(n, self._row_bytes):
            # (L, k, W, m): every learner's words against its classes.
            mismatches = popcount_rows(words[:, None, :, part] ^ classes, axis=2)
            sims = ((self._dims - mismatches) / self._dims).transpose(0, 2, 1)
            if self.aggregation == "vote":
                scores[part] = _sum_learners(_votes(sims, self._alphas))
            else:
                scores[part] = _sum_learners(sims * self._alphas[:, None, None])
        return scores / self._total_alpha


class FixedPointModel(CompiledModel):
    """Fixed-point scorer: integer codes, exact float64 matmuls, one rescale.

    Class hypervectors live as ``codes``, the ``(L, d_max, k)`` stack of
    ``int8``/``int16`` codes (zero past each learner's width), with
    ``inv_norms``, the ``(L, k)`` reciprocal L2 norms of the code columns
    *in code units*.  Each encoded query row is quantized per learner to
    the same bit width (its own scale from the row's max magnitude over the
    learner's span — no clipping is ever needed, and a window's scores are
    identical whether it is scored alone or inside any batch) and scored
    with a float64 BLAS matmul over the integer-valued codes.  Cosine
    similarity is scale-invariant in both arguments, so neither the
    class-code scale nor the query scale appears in the result: the dot
    products are rescaled once by ``alpha / (|q| * |c_j|)`` with both norms
    computed in code units.

    Exactness comes from the operands, not from an integer dtype: every
    product and partial sum is an integer below ``2**53`` (checked against
    the widest learner at construction), so float64 holds it exactly and
    the dot products and norms come out the same for any BLAS summation
    order, chunking or zero padding.  Scores therefore equal the float
    cosine of the dequantized query and class representatives to machine
    precision — asserted in ``tests/test_quant_engine.py``.

    Constructed like :class:`CompiledModel`, plus the ``precision`` whose
    storage dtype ``codes`` must have.
    """

    STACK = ("codes", "inv_norms")

    def __init__(
        self, *, precision: str, codes: np.ndarray, inv_norms: np.ndarray, **options
    ) -> None:
        if precision not in SCHEME_BITS:
            raise EngineError(
                f"unsupported fixed-point precision {precision!r}; "
                f"available: {sorted(SCHEME_BITS)}"
            )
        self._adopt(**options)
        # The exactness bound and the query range below are sized from the
        # precision, so a mismatched code dtype would break them silently —
        # wrong scores, no error.  Refuse it up front.
        stack = (self.n_learners, self._width, len(self.classes_))
        self.codes = self._stacked(
            f"{precision} codes", codes, SCHEME_DTYPES[precision], stack
        )
        self.inv_norms = self._stacked(
            "inv_norms", inv_norms, np.float64, (self.n_learners, len(self.classes_))
        )
        self.precision = precision
        self.bits = SCHEME_BITS[precision]
        self._query_max = (1 << (self.bits - 1)) - 1
        # Worst-case |partial sum| over a learner: d_max * qmax * |min_code|,
        # where query codes stay in [-qmax, qmax] but stored class codes
        # reach the full signed minimum (qmax + 1); query norms are smaller.
        # Below 2**53 every such sum is an exact float64 integer.
        if self._width * self._query_max * (self._query_max + 1) >= _EXACT_FLOAT:
            raise EngineError(
                f"a {self._width}-element {precision} learner can reach dot "
                f"products of 2**53 or more, beyond exact float64 integers"
            )
        self._row_bytes = self.n_learners * self._width * 8

    def __repr__(self) -> str:
        return (
            f"FixedPointModel(precision={self.precision!r}, "
            f"n_learners={self.n_learners}, total_dim={self.total_dim}, "
            f"in_features={self.in_features}, aggregation={self.aggregation!r}, "
            f"dtype={self.dtype.name}, class_bytes={self.class_memory_bytes()})"
        )

    def _score_rows(self, encoded: np.ndarray) -> np.ndarray:
        # Widened to float64 (exact for float32) as it is spread.  Per-row,
        # per-learner query scale: each row's max magnitude maps to the top
        # of the signed range, so rounding can never leave it (no clip),
        # every row gets full qmax resolution, and a window's codes — hence
        # its scores — never depend on what else shares its chunk.
        queries = self._spread(encoded, np.float64)
        magnitude = np.abs(queries).max(axis=2)
        magnitude[magnitude <= 0.0] = 1.0
        queries *= (self._query_max / magnitude)[..., None]
        np.rint(queries, out=queries)
        # Integer-valued operands below 2**53: the BLAS matmul and the norms
        # are exact whatever the summation order.  The codes are cast per
        # step, so (possibly shared-memory) codes never get a persistent
        # float64 copy.
        sims = np.matmul(queries, self.codes.astype(np.float64))
        query_norms = np.sqrt(np.einsum("lmd,lmd->lm", queries, queries))
        rescale = self.inv_norms[:, None, :] / np.maximum(query_norms, _EPS)[..., None]
        cosine = sims * rescale
        if self.aggregation == "vote":
            return _sum_learners(_votes(cosine, self._alphas))
        return _sum_learners(self._alphas[:, None, None] * cosine)
