"""Early-exit cascade scoring: packed first pass, margin-routed reranking.

The packed engine (:class:`~repro.engine.quant.PackedBipolarModel`) scores a
batch several times faster than any other engine, and on most windows its
argmax already agrees with the float engine — the windows it gets wrong are
overwhelmingly the *low-margin* ones, where the best and second-best class
scores nearly tie.  The cascade exploits that structure:

1. **First tier** — every row is scored by the packed engine (XOR +
   popcount over 1-bit sign patterns).
2. **Margin routing** — each row's top-2 margin ``s_(1) - s_(2)`` is
   compared against a threshold; rows at or above it keep their packed
   scores ("early exit"), rows strictly below it are routed on.
3. **Second tier** — only the routed rows are rescored by a fixed16
   engine, whose scores replace the packed ones row-for-row.

Because the fixed-point tier quantizes each query row with its own scale,
its scores are batch-composition invariant — rescoring the routed subset
is bitwise identical to rescoring those rows inside the full batch, which is
what makes the routing property testable exactly (``tests/test_cascade.py``).
The degenerate thresholds are exact by construction: ``-inf`` routes nothing
(cascade ≡ packed tier bitwise) and ``+inf`` routes everything (cascade ≡
second tier bitwise).

A cascade starts at :data:`DEFAULT_THRESHOLD`;
:func:`CascadeModel.calibrate_threshold`, or assigning ``threshold``, sets
the cutoff after that.  Calibration picks it from held-out data: sort
validation rows by packed margin, then take the smallest prefix
of reranked rows whose resulting accuracy (or agreement with the second
tier, when no labels are given) meets a target fraction of the second
tier's.  Reranked rows score exactly like the second tier, so the achieved
parity is monotone nondecreasing in the threshold and the search is a
single prefix scan, no iteration.

:func:`repro.engine.build_engine` builds both tiers over one set of
components for ``precision="cascade-fixed16"`` — from a fitted model
through :func:`repro.engine.compile_model`, or from stored integer codes
without dequantizing through
:meth:`repro.serving.ModelRegistry.load_compiled`.  Serving paths
(:class:`~repro.serving.StreamingService`,
:class:`~repro.serving.MicroBatchScheduler`) accept a cascade wherever they
accept any compiled engine — it is a :class:`CompiledModel` with the same
inference surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs import OBS, Tally
from .compile import CompiledModel, EngineError
from .quant import FixedPointModel, PackedBipolarModel

__all__ = [
    "CalibrationResult",
    "CascadeModel",
    "CascadeStats",
    "DEFAULT_THRESHOLD",
    "top2_margin",
]

#: Default margin cutoff before calibration.  A placeholder wide enough to
#: catch genuinely ambiguous windows on the paper's datasets — production
#: cascades should replace it via :meth:`CascadeModel.calibrate_threshold`.
DEFAULT_THRESHOLD = 0.05


def top2_margin(scores: np.ndarray) -> np.ndarray:
    """Per-row top-2 margin ``s_(1) - s_(2)`` of a ``(n, k)`` score matrix.

    With fewer than two classes there is no runner-up and no ambiguity, so
    the margin is ``+inf`` (nothing ever reranks).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-D, got ndim={scores.ndim}")
    n, k = scores.shape
    if k < 2:
        return np.full(n, np.inf)
    top2 = np.partition(scores, k - 2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


class CascadeStats(Tally):
    """Running rerank accounting, updated by every scored chunk."""

    COUNTS = {
        "rows_scored": ("repro_cascade_rows_total", "Rows scored by the cascade."),
        "rows_reranked": (
            "repro_cascade_reranked_total",
            "Rows routed to the cascade's second tier.",
        ),
    }

    @property
    def rerank_fraction(self) -> float:
        """Fraction of scored rows that went to the second tier."""
        if self.rows_scored == 0:
            return 0.0
        return self.rows_reranked / self.rows_scored

    def record(self, rows: int, reranked: int) -> None:
        """Account one scored chunk: ``rows`` total, ``reranked`` routed on."""
        self.bump("rows_scored", rows)
        self.bump("rows_reranked", reranked)

    def __repr__(self) -> str:
        return (
            f"CascadeStats(rows_scored={self.rows_scored}, "
            f"rows_reranked={self.rows_reranked})"
        )


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of :meth:`CascadeModel.calibrate_threshold`.

    ``achieved`` is the validation accuracy (``mode="accuracy"``) or the
    agreement with the second tier (``mode="parity"``) of the cascade at
    ``threshold``; ``rerank_fraction`` the fraction of validation rows the
    threshold routes to the second tier.
    """

    threshold: float
    target: float
    achieved: float
    rerank_fraction: float
    n_validation: int
    mode: str


class CascadeModel(CompiledModel):
    """Two-tier compiled scorer: packed first pass, margin-routed rerank.

    The first tier is packed, the second fixed-point; both must be compiled
    from the same fitted model — same classes, same stacked projection, same
    aggregation — which is validated at construction.  The cascade reuses
    the first tier's encoder arrays (the tiers share one projection, so each
    row is encoded exactly once) and exposes the full :class:`CompiledModel`
    inference surface.

    ``threshold`` starts at :data:`DEFAULT_THRESHOLD` and may be reassigned
    at any time (it is an ordinary float attribute);
    :meth:`calibrate_threshold` sets it from held-out data.
    ``stats`` accumulates rerank counts across calls for observability.
    """

    #: The cascade holds no class stack of its own; its tiers do.
    STACK = ()

    def __init__(self, *, first: PackedBipolarModel, second: FixedPointModel) -> None:
        if not isinstance(first, PackedBipolarModel):
            raise EngineError(
                f"cascade first tier must be a PackedBipolarModel, "
                f"got {type(first).__name__}"
            )
        if not isinstance(second, FixedPointModel):
            raise EngineError(
                f"cascade second tier must be a FixedPointModel, "
                f"got {type(second).__name__}"
            )
        if (
            not np.array_equal(first.classes_, second.classes_)
            or first.total_dim != second.total_dim
            or first.in_features != second.in_features
            or first.aggregation != second.aggregation
            or not np.array_equal(first.spans, second.spans)
            or first._basis2.shape != second._basis2.shape
            or not np.array_equal(first._basis2, second._basis2)
            or not np.array_equal(first._bias, second._bias)
        ):
            raise EngineError(
                "cascade tiers were compiled from different models; both "
                "tiers must share classes, spans, projection and aggregation"
            )
        # Intentionally no super().__init__(): the cascade borrows the first
        # tier's compiled arrays wholesale instead of re-deriving them, so
        # the tiers provably share one encoder.
        self.first = first
        self.second = second
        self.threshold = DEFAULT_THRESHOLD
        self.stats = CascadeStats()

        self.dtype = first.dtype
        self.classes_ = first.classes_
        self.aggregation = first.aggregation
        self.spans = first.spans
        self.alphas = first.alphas
        self.in_features = first.in_features
        self.total_dim = first.total_dim
        self._basis2 = first._basis2
        self._bias = first._bias
        self._sin_bias = first._sin_bias
        self._alphas = first._alphas
        self._total_alpha = first._total_alpha
        self.precision = f"cascade-{second.precision}"

    def __repr__(self) -> str:
        return (
            f"CascadeModel(precision={self.precision!r}, "
            f"threshold={self.threshold!r}, n_learners={self.n_learners}, "
            f"total_dim={self.total_dim}, in_features={self.in_features}, "
            f"aggregation={self.aggregation!r}, dtype={self.dtype.name})"
        )

    def class_memory_bytes(self) -> int:
        """Bytes of both tiers' stored class representations."""
        return self.first.class_memory_bytes() + self.second.class_memory_bytes()

    # -------------------------------------------------------------- scoring
    def _score_chunk(self, encoded: np.ndarray) -> np.ndarray:
        if OBS.enabled:
            return self._score_chunk_observed(encoded)
        scores = self.first._score_chunk(encoded)
        margins = top2_margin(scores)
        rerank = margins < self.threshold
        n_rerank = int(np.count_nonzero(rerank))
        if n_rerank:
            scores[rerank] = self.second._score_chunk(encoded[rerank])
        self.stats.record(len(scores), n_rerank)
        return scores

    def _score_chunk_observed(self, encoded: np.ndarray) -> np.ndarray:
        """The same arithmetic as :meth:`_score_chunk` plus tier telemetry.

        Kept as a separate method so the disabled path stays a single
        attribute read; the computation is identical, so predictions are
        bit-for-bit the same with telemetry on or off.
        """
        metrics = OBS.metrics
        start = time.perf_counter()
        scores = self.first._score_chunk(encoded)
        margins = top2_margin(scores)
        rerank = margins < self.threshold
        n_rerank = int(np.count_nonzero(rerank))
        metrics.histogram(
            "repro_cascade_tier_seconds",
            "Per-chunk latency of each cascade tier.",
            tier="packed",
        ).observe(time.perf_counter() - start)
        if n_rerank:
            start = time.perf_counter()
            scores[rerank] = self.second._score_chunk(encoded[rerank])
            metrics.histogram(
                "repro_cascade_tier_seconds",
                "Per-chunk latency of each cascade tier.",
                tier="rerank",
            ).observe(time.perf_counter() - start)
        self.stats.record(len(scores), n_rerank)
        return scores

    # ---------------------------------------------------------- calibration
    def calibrate_threshold(
        self,
        X: np.ndarray,
        y: np.ndarray | None = None,
        *,
        target: float = 0.99,
    ) -> CalibrationResult:
        """Pick the smallest margin cutoff meeting an accuracy-parity target.

        Scores the validation batch with both tiers once, then scans rerank
        prefixes in increasing packed-margin order.  With labels ``y``
        (``mode="accuracy"``), the requirement is cascade accuracy >=
        ``target`` x second-tier accuracy; without labels
        (``mode="parity"``), it is argmax agreement with the second tier >=
        ``target``.  Reranking everything always meets either requirement
        (full rerank *is* the second tier and the accuracy target is
        relative), so a feasible prefix always exists; the scan returns the
        smallest one, extended through margin ties so a strict ``<``
        threshold reranks exactly the chosen rows.

        Assigns ``self.threshold`` and returns a :class:`CalibrationResult`.
        """
        if not 0.0 <= target <= 1.0:
            raise ValueError(f"target must be in [0, 1], got {target}")
        X = self._validate(X)
        if len(X) == 0:
            raise ValueError("cannot calibrate on an empty validation set")
        encoded = self.encode(X)
        first_scores = self.first.score_encoded(encoded)
        second_scores = self.second.score_encoded(encoded)
        first_pred = np.argmax(first_scores, axis=1)
        second_pred = np.argmax(second_scores, axis=1)
        margins = top2_margin(first_scores)
        n = len(margins)

        if y is None:
            mode = "parity"
            first_ok = first_pred == second_pred
            second_ok = np.ones(n, dtype=bool)
            required = target
        else:
            mode = "accuracy"
            y = np.asarray(y)
            if y.shape != (n,):
                raise ValueError(
                    f"y must have shape ({n},) to match X, got {y.shape}"
                )
            labels = np.searchsorted(self.classes_, y)
            valid = (labels < len(self.classes_)) & (
                self.classes_[np.minimum(labels, len(self.classes_) - 1)] == y
            )
            if not valid.all():
                raise ValueError(
                    "y contains labels the model was not trained on"
                )
            first_ok = first_pred == labels
            second_ok = second_pred == labels
            required = target * float(second_ok.mean())

        # Sort rows by packed margin: reranking a prefix of this order is
        # exactly what any threshold does.  correct(j) = (reranked prefix
        # scores as tier 2) + (suffix scores as tier 1).
        order = np.argsort(margins, kind="stable")
        first_sorted = first_ok[order].astype(np.int64)
        second_sorted = second_ok[order].astype(np.int64)
        suffix_first = np.concatenate(
            ([0], np.cumsum(first_sorted[::-1])))[::-1]
        prefix_second = np.concatenate(([0], np.cumsum(second_sorted)))
        correct = prefix_second + suffix_first  # correct[j]: rerank first j
        achieved_at = correct / n

        sorted_margins = margins[order]
        feasible = np.flatnonzero(achieved_at >= required - 1e-12)
        chosen = int(feasible[0]) if len(feasible) else n
        if chosen == 0:
            threshold = -np.inf
        elif chosen >= n:
            threshold = np.inf
            chosen = n
        else:
            boundary = sorted_margins[chosen]
            if boundary == sorted_margins[chosen - 1]:
                # Equal margins cannot be split by a strict `<` threshold:
                # extend the prefix through the tie so the threshold really
                # reranks exactly `chosen` rows.
                chosen = int(np.searchsorted(sorted_margins, boundary, side="right"))
                threshold = np.inf if chosen >= n else float(sorted_margins[chosen])
            else:
                threshold = float(boundary)

        achieved = float(achieved_at[min(chosen, n)])
        result = CalibrationResult(
            threshold=float(threshold),
            target=float(target),
            achieved=achieved,
            rerank_fraction=chosen / n,
            n_validation=n,
            mode=mode,
        )
        self.threshold = result.threshold
        return result
