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

* :class:`PackedBipolarModel` — the classic 1-bit HDC model.  Class
  hypervectors are sign-quantized and bit-packed to ``uint8`` words
  (``dim / 8`` bytes per hypervector, a 64x reduction over float64).  A
  query chunk is sign-packed with one ``packbits`` over whole rows, its
  words are stacked across learners (each learner's words masked to its own
  bits and zero-padded to the widest learner), and one XOR + one popcount
  (:func:`numpy.bitwise_count` on NumPy >= 2, a 16-bit lookup table
  otherwise) compares every learner's query bits with every class at once.
  Per-block similarities are *bit-identical* to
  :func:`repro.hdc.similarity.hamming_similarity` on the unpacked signs —
  both reduce to the correctly rounded quotient of the exact integers
  ``matches`` and ``dim``.
* :class:`FixedPointModel` — class hypervectors stored as ``int8`` /
  ``int16`` fixed-point codes (:func:`repro.hdc.quantize.quantize_codes`).
  Each query row is quantized to the same bit width with a per-row,
  per-block scale (scores never depend on batch composition) and scored
  with a float64 BLAS matmul whose operands hold exact integers: every
  product and partial sum is an integer below ``2**53``, so the dot
  products are exact in any summation order (checked once per engine
  against the widest block), and the per-class code norms are folded into
  a single final float rescale.  Because cosine similarity is
  scale-invariant in each argument, the shared fixed-point scales cancel:
  the result equals the float cosine of the *dequantized* query and class
  representatives to machine precision — the arithmetic is exact, the only
  error is the representation rounding itself.

Both are built by :func:`repro.engine.build_engine` — from a fitted model
through :func:`repro.engine.compile_model`, or *directly from stored
integer codes* through :meth:`repro.serving.ModelRegistry.load_compiled`.
Packed words are zero-padded to ``uint64`` for the XOR + popcount (8x fewer
ufunc elements than ``uint8``); pad bits are zero in both operands, so they
cancel in the XOR and never contaminate the mismatch counts.

``benchmarks/bench_quant.py`` enforces the subsystem contracts: >= 8x class
memory reduction and >= 2x single-thread scoring throughput for the packed
engine versus the float64 engine at the paper's ``D_total = 10000``, >= 4x
memory reduction for fixed8, all gated on prediction parity against the
float engine on the Table I mini datasets.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..hdc.quantize import SCHEME_BITS, SCHEME_DTYPES
from ..hdc.similarity import popcount_rows
from .compile import _EPS, CompiledModel, EngineError

__all__ = [
    "FixedBlock",
    "FixedPointModel",
    "PackedBipolarModel",
    "PackedBlock",
    "PackedQueries",
    "fixed_block",
    "fixed_block_from_codes",
    "packed_block",
    "packed_block_from_words",
]

#: Upper bound on the XOR/popcount temporary of one packed scoring step.
#: Rows are scored in steps that keep it within this budget, so a
#: whole-batch ``score_packed`` call allocates no more than a small chunk.
_STEP_BYTES = 1 << 20

#: Integers of magnitude below this bound are exact in float64, so sums of
#: them that stay below it never round.
_EXACT_FLOAT = 2**53


def _pad_packed(packed: np.ndarray, words: int | None = None) -> np.ndarray:
    """Zero-pad uint8-packed rows to ``words`` whole ``uint64`` words.

    ``words`` defaults to the fewest that hold a row.  The pad bytes are zero
    in every row, so XOR between two padded rows is zero there and popcount
    never sees phantom mismatches.
    """
    rows, width = packed.shape
    words = -(-width // 8) if words is None else words
    buffer = np.zeros((rows, words * 8), dtype=np.uint8)
    buffer[:, :width] = packed
    return buffer.view(np.uint64)


# ------------------------------------------------------------------- blocks
@dataclass(frozen=True)
class PackedBlock:
    """One weak learner's bit-packed class sign patterns.

    ``words`` holds each class hypervector's sign bits zero-padded into
    ``uint64`` words; bit ``j`` of a row is 1 where element ``j`` of the
    class hypervector is non-negative (the :func:`~repro.hdc.pack_signs`
    convention).  ``columns`` maps local class order to global columns.
    """

    start: int
    stop: int
    alpha: float
    columns: np.ndarray
    words: np.ndarray

    @property
    def dim(self) -> int:
        return self.stop - self.start

    @property
    def packed(self) -> np.ndarray:
        """The canonical unpadded ``uint8`` rows (``ceil(dim / 8)`` bytes)."""
        width = (self.dim + 7) // 8
        return self.words.view(np.uint8)[:, :width]


@dataclass(frozen=True)
class FixedBlock:
    """One weak learner's fixed-point class codes.

    ``codes`` is the learner's ``(dim, n_classes)`` integer code matrix
    (transposed for chunk scoring, storage dtype ``int8``/``int16``);
    ``scale`` the shared fixed-point scale of the stored format, and
    ``inv_norms`` the reciprocal L2 norms of the code columns *in code
    units* — the scale cancels in cosine similarity, so scoring never
    multiplies it back in.
    """

    start: int
    stop: int
    alpha: float
    columns: np.ndarray
    codes: np.ndarray
    scale: float
    inv_norms: np.ndarray

    @property
    def dim(self) -> int:
        return self.stop - self.start


def packed_block(
    start: int,
    stop: int,
    alpha: float,
    columns: np.ndarray,
    packed_rows: np.ndarray,
) -> PackedBlock:
    """Build a :class:`PackedBlock` from unpadded ``uint8`` packed sign rows."""
    packed_rows = np.atleast_2d(np.asarray(packed_rows, dtype=np.uint8))
    width = (stop - start + 7) // 8
    if packed_rows.shape[1] != width:
        raise EngineError(
            f"packed rows are {packed_rows.shape[1]} bytes wide but the block "
            f"spans {stop - start} elements (expected {width} bytes)"
        )
    return PackedBlock(
        start=int(start),
        stop=int(stop),
        alpha=float(alpha),
        columns=np.asarray(columns),
        words=_pad_packed(packed_rows),
    )


def packed_block_from_words(
    start: int,
    stop: int,
    alpha: float,
    columns: np.ndarray,
    words: np.ndarray,
) -> PackedBlock:
    """Build a :class:`PackedBlock` over already-padded ``uint64`` sign words.

    The zero-copy sibling of :func:`packed_block`: ``words`` must be exactly
    the ``(n_classes, ceil(dim / 64))`` padded representation that
    :attr:`PackedBlock.words` stores, and is adopted as-is — no re-pack, no
    copy.  This is the construction path :mod:`repro.serving.shm` uses to
    build engines directly over shared-memory buffers.
    """
    words = np.asarray(words)
    if words.ndim != 2 or words.dtype != np.dtype(np.uint64):
        raise EngineError(
            f"padded sign words must be a 2-D uint64 array, got "
            f"ndim={words.ndim} dtype={words.dtype}"
        )
    expected = -(-(stop - start) // 64)
    if words.shape[1] != expected:
        raise EngineError(
            f"padded rows are {words.shape[1]} words wide but the block spans "
            f"{stop - start} elements (expected {expected} words)"
        )
    return PackedBlock(
        start=int(start),
        stop=int(stop),
        alpha=float(alpha),
        columns=np.asarray(columns),
        words=words,
    )


def fixed_block_from_codes(
    start: int,
    stop: int,
    alpha: float,
    columns: np.ndarray,
    codes: np.ndarray,
    scale: float,
    inv_norms: np.ndarray,
) -> FixedBlock:
    """Build a :class:`FixedBlock` over an already-transposed code matrix.

    The zero-copy sibling of :func:`fixed_block`: ``codes`` must be the
    ``(dim, n_classes)`` scoring-layout matrix that :attr:`FixedBlock.codes`
    stores and ``inv_norms`` the precomputed reciprocal column norms — both
    are adopted without transposing, copying, or recomputing norms, which is
    what lets :mod:`repro.serving.shm` map a stored artifact straight into
    worker engines.
    """
    codes = np.asarray(codes)
    if codes.dtype not in (np.dtype(np.int8), np.dtype(np.int16)):
        raise EngineError(
            f"fixed-point codes must be int8 or int16, got {codes.dtype}"
        )
    if codes.ndim != 2 or codes.shape[0] != stop - start:
        raise EngineError(
            f"transposed codes of shape {codes.shape} do not span the block's "
            f"{stop - start} elements"
        )
    inv_norms = np.asarray(inv_norms, dtype=np.float64)
    if inv_norms.shape != (codes.shape[1],):
        raise EngineError(
            f"inv_norms of shape {inv_norms.shape} do not match "
            f"{codes.shape[1]} class columns"
        )
    return FixedBlock(
        start=int(start),
        stop=int(stop),
        alpha=float(alpha),
        columns=np.asarray(columns),
        codes=codes,
        scale=float(scale),
        inv_norms=inv_norms,
    )


def fixed_block(
    start: int,
    stop: int,
    alpha: float,
    columns: np.ndarray,
    codes: np.ndarray,
    scale: float,
) -> FixedBlock:
    """Build a :class:`FixedBlock` from ``(n_classes, dim)`` integer codes."""
    codes = np.atleast_2d(np.asarray(codes))
    if codes.dtype not in (np.dtype(np.int8), np.dtype(np.int16)):
        raise EngineError(
            f"fixed-point codes must be int8 or int16, got {codes.dtype}"
        )
    if codes.shape[1] != stop - start:
        raise EngineError(
            f"codes span {codes.shape[1]} elements but the block spans "
            f"{stop - start}"
        )
    norms = np.sqrt(
        np.einsum("ij,ij->i", codes, codes, dtype=np.int64).astype(np.float64)
    )
    return FixedBlock(
        start=int(start),
        stop=int(stop),
        alpha=float(alpha),
        columns=np.asarray(columns),
        codes=np.ascontiguousarray(codes.T),
        scale=float(scale),
        inv_norms=1.0 / np.maximum(norms, _EPS),
    )


# ------------------------------------------------------------------ engines
class _WordStack:
    """Cross-learner scoring layout of a packed engine's class words.

    A query row is packed once over all its elements (element ``j`` lands in
    word ``j // 64``).  Learner ``i`` reads the words ``index[i]`` of that
    row — its span, zero-padded to the widest learner's ``W`` words — ANDed
    with ``mask[i]``, its own bits.  ``classes[i, c]`` holds learner ``i``'s
    signs for global class column ``c`` at the same bit positions (zero
    where ``valid[i, c]`` is false: a class the learner never saw).  Query
    words keep the batch on the last axis, so the XOR/popcount inner loops
    run along the rows; the trailing unit axes broadcast against it.
    """

    def __init__(self, blocks: Sequence[PackedBlock], n_columns: int) -> None:
        first = np.array([block.start // 64 for block in blocks], dtype=np.intp)
        last = np.array([-(-block.stop // 64) for block in blocks], dtype=np.intp)
        width = int((last - first).max())
        words = np.zeros((len(blocks), n_columns + 1, width), dtype=np.uint64)
        valid = np.zeros((len(blocks), n_columns, 1), dtype=bool)
        for i, block in enumerate(blocks):
            offset = block.start - 64 * first[i]
            # Bits at the block's offset inside its word window, one row per
            # global class column; the extra last row is the learner's mask.
            window = np.zeros((n_columns + 1, width * 64), dtype=bool)
            window[block.columns, offset : offset + block.dim] = np.unpackbits(
                block.packed, axis=1, count=block.dim
            )
            window[n_columns, offset : offset + block.dim] = True
            words[i] = _pad_packed(np.packbits(window, axis=1), width)
            valid[i, block.columns] = True
        self.index = first[:, None] + np.arange(width)  # (L, W)
        self.mask = words[:, n_columns, :, None].copy()  # (L, W, 1)
        self.classes = words[:, :n_columns, :, None].copy()  # (L, n_columns, W, 1)
        self.dims = np.array([[[block.dim]] for block in blocks], dtype=np.int64)  # (L, 1, 1)
        self.valid = valid  # (L, n_columns, 1)
        self.stop = max(block.stop for block in blocks)  # elements packed per row
        self.n_words = int(self.index.max()) + 1  # words per packed row


@dataclass(frozen=True)
class PackedQueries:
    """Pre-encoded, pre-packed query batch for repeated packed scoring.

    ``words`` holds the batch's ``uint64`` sign words stacked across
    learners exactly as the engine scores them: shape ``(n_learners, W,
    n)``, each learner's bits at their packed-row positions and zero-padded
    to the widest learner's ``W`` words, with the batch on the last axis.
    Produced by :meth:`PackedBipolarModel.prepack`, consumed by
    :meth:`PackedBipolarModel.score_packed`.  Packing the queries once is
    what makes many-trial workloads (the packed bit-flip sweep) cheap: each
    trial reuses the words and pays only XOR + popcount.
    """

    words: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.words.shape[-1]


class PackedBipolarModel(CompiledModel):
    """Bit-packed 1-bit HDC scorer: sign encode once, one XOR + popcount pass.

    Mirrors :class:`~repro.engine.compile.CompiledModel` (same constructor
    infrastructure, encoding path, chunking and cache); only the scoring
    stage differs.  Each query row's sign pattern is compared against every
    learner's class patterns in one XOR + popcount over words stacked
    across learners, and the per-block match fraction ``(dim - mismatches)
    / dim`` — bit-identical to ``hamming_similarity`` on the unpacked signs
    — is aggregated exactly like the float engine aggregates cosine scores
    (``alpha``-weighted ``"score"`` accumulation or ``"vote"`` argmax),
    learner after learner.

    Note the 1-bit representation *is* lossy: scores are hamming rather
    than cosine similarities, so an argmax can legitimately move on
    borderline windows (accuracy parity on the Table I datasets is enforced
    by ``benchmarks/bench_quant.py``; exactness is defined — and tested —
    against the hamming reference).
    """

    precision = "bipolar-packed"

    @property
    def blocks(self) -> tuple:
        return self._blocks

    @blocks.setter
    def blocks(self, blocks: Sequence[PackedBlock]) -> None:
        # The stacked scoring words derive from the blocks, so every
        # assignment rebuilds them: an engine (a flip_class_bits clone
        # included) can never score against another engine's class bits.
        self._blocks = tuple(blocks)
        self._stack = _WordStack(self._blocks, len(self.classes_))

    def __repr__(self) -> str:
        return (
            f"PackedBipolarModel(n_learners={self.n_learners}, "
            f"total_dim={self.total_dim}, in_features={self.in_features}, "
            f"aggregation={self.aggregation!r}, dtype={self.dtype.name}, "
            f"class_bytes={self.class_memory_bytes()})"
        )

    def class_memory_bytes(self) -> int:
        """Bytes of the stored class representation (padded packed words)."""
        return sum(block.words.nbytes for block in self.blocks)

    # ---------------------------------------------------------------- packing
    def _query_words(self, encoded: np.ndarray) -> np.ndarray:
        """Stacked ``(n_learners, W, n)`` sign words of an encoded matrix."""
        stack = self._stack
        bits = encoded[:, : stack.stop] >= 0
        row = _pad_packed(np.packbits(bits, axis=1), stack.n_words)
        words = np.take(row.T, stack.index, axis=0)
        words &= stack.mask
        return words

    def prepack(self, X: np.ndarray) -> PackedQueries:
        """Encode and bit-pack a query batch once for repeated scoring."""
        return PackedQueries(words=self._query_words(self.encode(X)))

    # ---------------------------------------------------------------- scoring
    def _score_words(self, words: np.ndarray) -> np.ndarray:
        stack = self._stack
        n = words.shape[-1]
        scores = np.empty((n, len(self.classes_)), dtype=np.float64)
        step = max(1, _STEP_BYTES // stack.classes.nbytes)
        vote = self.aggregation == "vote"
        weights = np.where(stack.valid, self._alphas[:, None, None], 0.0)
        # The XOR/popcount/divide arithmetic is exact per row, so scoring in
        # bounded steps is bit-identical to one whole-batch pass.
        for start in range(0, n, step):
            part = slice(start, min(start + step, n))
            # (L, n_classes, W, m): every learner's words against its classes.
            mismatches = popcount_rows(words[:, None, :, part] ^ stack.classes, axis=2)
            sims = (stack.dims - mismatches) / stack.dims
            if vote:
                # Each learner votes for its first best class; the classes
                # it never saw rank below every similarity in [0, 1].
                winner = np.argmax(np.where(stack.valid, sims, -1.0), axis=1)
                sims = winner[:, None, :] == np.arange(sims.shape[1])[:, None]
            # accumulate adds learner after learner (a reduce may sum
            # pairwise), the order of a per-learner ``+=`` loop, so stacking
            # the learners never changes a bit of the scores.
            scores[part] = np.add.accumulate(sims * weights, axis=0)[-1].T
        return scores / self._total_alpha

    def _score_chunk(self, encoded: np.ndarray) -> np.ndarray:
        return self._score_words(self._query_words(encoded))

    def score_packed(self, queries: PackedQueries) -> np.ndarray:
        """Per-class scores of a :meth:`prepack`-ed batch (XOR + popcount only)."""
        layout = self._stack.index.shape
        if queries.words.shape[:2] != layout:
            raise ValueError(
                f"queries were packed for a {queries.words.shape[:2]} "
                f"(learners, words) layout, engine has {layout}"
            )
        return self._score_words(queries.words)

    def predict_packed(self, queries: PackedQueries) -> np.ndarray:
        """Labels of a :meth:`prepack`-ed batch."""
        return self.classes_[np.argmax(self.score_packed(queries), axis=1)]

    # --------------------------------------------------------------- bit flips
    def flip_class_bits(
        self, probability: float, rng: np.random.Generator
    ) -> "PackedBipolarModel":
        """Copy of this engine with each stored class bit flipped i.i.d.

        Flips the *real stored bits*: an XOR mask sampled at ``probability``
        per bit is applied to the packed class words (pad bits are never
        flipped, so the padding invariant holds).  The clone shares the
        encoder arrays and cache with the original — only the class words
        (and the stacked scoring words derived from them) differ — which is
        what makes many-trial robustness sweeps cheap.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if probability == 0.0:
            # No bits can flip: skip the mask draws entirely, mirroring the
            # reference backend's early return so both backends consume the
            # same randomness per trial at a fixed seed.
            return copy.copy(self)
        blocks = []
        for block in self.blocks:
            mask_bits = rng.random((len(block.words), block.dim)) < probability
            mask = _pad_packed(np.packbits(mask_bits, axis=1))
            blocks.append(replace(block, words=block.words ^ mask))
        clone = copy.copy(self)
        clone.blocks = tuple(blocks)
        return clone


class FixedPointModel(CompiledModel):
    """Fixed-point scorer: integer codes, exact float64 matmuls, one rescale.

    Class hypervectors live as ``int8``/``int16`` codes; each encoded query
    row is quantized per block to the same bit width (its own scale from
    the row's max magnitude — no clipping is ever needed, and a window's
    scores are identical whether it is scored alone or inside any batch)
    and scored with a float64 BLAS matmul over the integer-valued codes.
    Cosine similarity is scale-invariant in both arguments, so neither the
    class-code scale nor the query scale appears in the result: the dot
    products are rescaled once by ``alpha / (|q| * |c_j|)`` with both norms
    computed in code units.

    Exactness comes from the operands, not from an integer dtype: every
    product and partial sum is an integer below ``2**53`` (checked against
    the widest block at construction), so float64 holds it exactly and the
    dot products and norms come out the same for any BLAS summation order
    or chunking.  Scores therefore equal the float cosine of the
    dequantized query and class representatives to machine precision —
    asserted in ``tests/test_quant_engine.py``.

    Constructed like :class:`CompiledModel`, plus the ``precision`` whose
    storage dtype every block's scoring-layout codes must have.
    """

    def __init__(self, *, precision: str, **options) -> None:
        if precision not in SCHEME_BITS:
            raise EngineError(
                f"unsupported fixed-point precision {precision!r}; "
                f"available: {sorted(SCHEME_BITS)}"
            )
        super().__init__(**options)
        # The exactness bound and the query range below are sized from the
        # precision, so mismatched block code dtypes would break them
        # silently — wrong scores, no error.  Refuse them up front.
        expected = np.dtype(SCHEME_DTYPES[precision])
        for block in self.blocks:
            if block.codes.dtype != expected:
                raise EngineError(
                    f"precision {precision!r} requires {expected} class codes, "
                    f"got {block.codes.dtype} in block [{block.start}, {block.stop})"
                )
        self.precision = precision
        self.bits = SCHEME_BITS[precision]
        self._query_max = (1 << (self.bits - 1)) - 1
        # Worst-case |partial sum| over a block: dim * qmax * |min_code|,
        # where query codes stay in [-qmax, qmax] but stored class codes
        # reach the full signed minimum (qmax + 1); query norms are smaller.
        # Below 2**53 every such sum is an exact float64 integer.
        widest = max(block.dim for block in self.blocks)
        if widest * self._query_max * (self._query_max + 1) >= _EXACT_FLOAT:
            raise EngineError(
                f"a {widest}-element {precision} block can reach dot products "
                f"of 2**53 or more, beyond exact float64 integers"
            )

    def __repr__(self) -> str:
        return (
            f"FixedPointModel(precision={self.precision!r}, "
            f"n_learners={self.n_learners}, total_dim={self.total_dim}, "
            f"in_features={self.in_features}, aggregation={self.aggregation!r}, "
            f"dtype={self.dtype.name}, class_bytes={self.class_memory_bytes()})"
        )

    def class_memory_bytes(self) -> int:
        """Bytes of the stored class representation (codes + folded norms)."""
        return sum(
            block.codes.nbytes + block.inv_norms.nbytes for block in self.blocks
        )

    def _score_chunk(self, encoded: np.ndarray) -> np.ndarray:
        n = len(encoded)
        scores = np.zeros((n, len(self.classes_)), dtype=np.float64)
        rows = np.arange(n) if self.aggregation == "vote" else None
        for block, alpha in zip(self.blocks, self._alphas):
            view = encoded[:, block.start : block.stop]
            # Per-row query scale: each row's max magnitude maps to the top
            # of the signed range, so rounding can never leave it (no clip),
            # every row gets full qmax resolution, and a window's codes —
            # hence its scores — never depend on what else shares its chunk.
            # The row is widened to float64 (exact for float32), scaled and
            # rounded to integer codes in place.
            quantized = view.astype(np.float64)
            magnitude = np.abs(quantized).max(axis=1)
            magnitude[magnitude <= 0.0] = 1.0
            quantized *= (self._query_max / magnitude)[:, None]
            np.rint(quantized, out=quantized)
            # Integer-valued operands below 2**53: the BLAS matmul and the
            # norms are exact whatever the summation order.  The codes are
            # cast one learner at a time, so (possibly shared-memory) codes
            # never get a persistent float64 copy.
            sims = quantized @ block.codes.astype(np.float64)
            query_norms = np.sqrt(np.einsum("ij,ij->i", quantized, quantized))
            rescale = block.inv_norms[None, :] / np.maximum(query_norms, _EPS)[:, None]
            cosine = sims * rescale
            if rows is not None:
                winner = np.argmax(cosine, axis=1)
                scores[rows, block.columns[winner]] += alpha
            else:
                scores[:, block.columns] += alpha * cosine
        return scores / self._total_alpha
