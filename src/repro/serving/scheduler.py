"""Micro-batching scheduler: coalesce many sessions into one fused call.

Scoring a single 1-row window through :class:`~repro.engine.CompiledModel`
pays full per-call overhead (validation, chunk resolution, a BLAS call on a
degenerate ``(1, f)`` operand) for one prediction.  The engine's whole design
point — PR 1's >= 3x speedup — is that one ``(B, f)`` batch costs barely more
than one row, so a service juggling many concurrent
:class:`~repro.serving.session.StreamSession` streams should never score
windows one at a time.  :class:`MicroBatchScheduler` buffers ready windows
from any number of sessions and releases them in fused batches, bounded by

* ``max_batch`` — release as soon as this many windows are pending (caps
  per-window latency *and* the fused call's memory), and
* ``max_wait`` — release a partial batch once its oldest window has waited
  this long (bounds tail latency under light traffic).

The scheduler is synchronous and single-threaded by design: the event loop
of the host service calls :meth:`submit` as windows appear and :meth:`pump`
whenever it is willing to run a fused call (:meth:`flush` forces one at
shutdown).  All timing bookkeeping — queue waits, batch sizes, per-window
end-to-end latency — accumulates in :class:`SchedulerStats`, which the
serving benchmark reads for its throughput and p50/p99 report.

Failure semantics: a batch is popped off the queue only *after* its fused
call succeeds.  If ``scorer.decision_function`` raises, every window of the
batch stays queued with its original ``enqueued_at`` (so queue-wait
accounting and ``max_wait`` ordering survive the retry), the failure is
counted in :attr:`SchedulerStats.score_failures` (and the
``repro_scheduler_score_failures_total`` obs counter), and the exception
propagates to the caller — windows are never silently dropped.  Retries
are *bounded*: a window that has been part of more than ``max_retries``
failed fused calls is moved to :attr:`MicroBatchScheduler.dead_letters`
(counted in ``repro_scheduler_windows_dead_total``) instead of being
re-queued forever — a deterministically failing scorer can no longer wedge
the queue on one poisonous batch.

Overload semantics (:mod:`repro.resilience` wiring, all opt-in):

* ``max_pending`` bounds the admission queue.  When a submit would exceed
  it, the *oldest* pending window is shed — delivered as an explicit
  :data:`SHED` prediction (NaN scores, ``prediction.shed`` true, counted
  in ``repro_scheduler_windows_shed_total``) on the next :meth:`pump` /
  :meth:`flush`, never silently dropped.  Shedding oldest-first keeps the
  freshest signal flowing when a consumer cannot keep up.

The accounting identity ``windows_submitted == windows_scored +
windows_shed + windows_dead + pending`` holds at every quiescent point and
is asserted by ``tests/test_resilience.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs import OBS, Tally
from ..obs.metrics import Histogram
from ..resilience.chaos import CHAOS

__all__ = [
    "DeadLetter",
    "MicroBatchScheduler",
    "Prediction",
    "SchedulerStats",
    "SHED",
]


class _ShedLabel:
    """Singleton sentinel label of shed predictions (reprs as ``SHED``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SHED"

    def __reduce__(self):  # unpickles to the same singleton across processes
        return (_shed_label, ())


def _shed_label() -> "_ShedLabel":
    return SHED


#: The label carried by shed predictions — never a real class label.
SHED = _ShedLabel()


@dataclass(frozen=True, eq=False)
class Prediction:
    """Scored window routed back to its session.

    ``queue_seconds`` is the time the window spent waiting for its batch,
    ``score_seconds`` the duration of the fused call that scored it (shared
    by every window in the batch), and ``batch_size`` how many windows that
    call coalesced.

    ``scores`` is a read-only per-row *copy* of the fused call's score
    matrix: retaining a prediction never pins the whole ``(B, k)`` batch
    array in memory, and no write through one prediction can alias another.
    Equality compares identity and outcome only — ``session_id``,
    ``window_index``, ``label`` and the scores (with
    :func:`numpy.array_equal`; the dataclass auto-``__eq__`` would raise the
    ambiguous-ndarray ``ValueError`` for any ``k > 1``) — and the hash is
    that of ``(session_id, window_index)``.  Timings and batch size say how
    a window was served, not what it scored, so the same window scored
    alike in two runs compares equal, and predictions are safe to
    deduplicate and keep in sets/dicts.
    """

    session_id: str
    window_index: int
    label: object
    scores: np.ndarray
    queue_seconds: float
    score_seconds: float
    batch_size: int

    @property
    def latency_seconds(self) -> float:
        """End-to-end scheduler latency: queue wait plus fused-call time."""
        return self.queue_seconds + self.score_seconds

    @property
    def shed(self) -> bool:
        """Whether this window was shed under overload instead of scored."""
        return self.label is SHED

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prediction):
            return NotImplemented
        return (
            self.session_id == other.session_id
            and self.window_index == other.window_index
            and self.label == other.label
            and np.array_equal(self.scores, other.scores)
        )

    def __hash__(self) -> int:
        # Scores are unhashable; equal predictions share their identity.
        return hash((self.session_id, self.window_index))

    @property
    def status(self) -> str:
        """Explicit wire status: ``"shed"`` under overload, else ``"scored"``."""
        return "shed" if self.shed else "scored"

    def to_wire(self) -> dict:
        """A strict-JSON-safe dict of this prediction for network transports.

        SHED predictions carry NaN score rows and a sentinel label, which
        ``json.dumps`` renders as bare ``NaN`` tokens — *invalid* JSON that
        standards-compliant clients refuse to parse.  On the wire a shed
        window is instead an explicit ``status="shed"`` with ``label`` and
        ``scores`` null; scored windows get native Python numbers (numpy
        scalars don't serialize) with any non-finite score element nulled.
        The result always survives ``json.dumps(..., allow_nan=False)``.
        """
        if self.shed:
            label, scores = None, None
        else:
            label = self.label.item() if hasattr(self.label, "item") else self.label
            scores = [
                float(value) if math.isfinite(value) else None
                for value in self.scores.tolist()
            ]
        return {
            "session_id": self.session_id,
            "window_index": int(self.window_index),
            "status": self.status,
            "label": label,
            "scores": scores,
            "queue_seconds": float(self.queue_seconds),
            "score_seconds": float(self.score_seconds),
            "batch_size": int(self.batch_size),
        }


class SchedulerStats(Tally):
    """Accumulated timing/throughput statistics of one scheduler.

    Totals (window/batch counts, summed scoring time, mean batch size) and
    the per-window latency distribution cover the scheduler's whole
    lifetime, in O(1) memory.  Percentiles come from a fixed log-bucket
    :class:`repro.obs.metrics.Histogram` (bounded memory, provable
    relative-error bound).
    """

    COUNTS = {
        # Windows ever accepted by MicroBatchScheduler.submit.
        "windows_submitted": None,
        "windows_scored": (
            "repro_scheduler_windows_total",
            "Windows scored through the micro-batch scheduler.",
        ),
        "windows_shed": (
            "repro_scheduler_windows_shed_total",
            "Windows shed under overload (delivered as SHED predictions).",
        ),
        "windows_dead": (
            "repro_scheduler_windows_dead_total",
            "Windows dead-lettered after exhausting their retry budget.",
        ),
        "batches": (
            "repro_scheduler_batches_total",
            "Fused scoring calls released by the scheduler.",
        ),
        "score_failures": (
            "repro_scheduler_score_failures_total",
            "Fused scoring calls that raised (windows re-queued).",
        ),
        "total_score_seconds": None,
    }

    def __init__(self) -> None:
        super().__init__()
        self.latency_histogram = Histogram()

    @property
    def mean_batch_size(self) -> float:
        return self.windows_scored / self.batches if self.batches else 0.0

    def latency_percentile(self, percentile: float) -> float:
        """Per-window end-to-end latency percentile (e.g. 50, 99), seconds."""
        if not self.latency_histogram.count:
            return 0.0
        return self.latency_histogram.percentile(percentile)

    def __repr__(self) -> str:
        return (
            f"SchedulerStats(windows={self.windows_scored}, "
            f"batches={self.batches}, "
            f"mean_batch={self.mean_batch_size:.1f}, "
            f"p50={self.latency_percentile(50) * 1e3:.2f}ms, "
            f"p99={self.latency_percentile(99) * 1e3:.2f}ms, "
            f"failures={self.score_failures}, "
            f"shed={self.windows_shed}, dead={self.windows_dead})"
        )


@dataclass(frozen=True)
class DeadLetter:
    """A window removed from the queue after exhausting its retry budget.

    Dead letters keep the original features, so an operator (or a test) can
    replay them once the underlying scorer fault is fixed — removal from the
    queue is explicit and fully accounted, never silent loss.
    """

    session_id: str
    window_index: int
    features: np.ndarray
    enqueued_at: float
    attempts: int
    error: str

    def to_wire(self) -> dict:
        """Strict-JSON-safe identity/diagnostic fields (features stay local).

        Features are deliberately omitted: they are the replay payload, not
        an inspection field — :meth:`MicroBatchScheduler.replay_dead_letters`
        is the supported way to act on them.
        """
        return {
            "session_id": self.session_id,
            "window_index": int(self.window_index),
            "status": "dead",
            "attempts": int(self.attempts),
            "error": self.error,
        }


class _PendingWindow:
    __slots__ = ("session_id", "window_index", "features", "enqueued_at", "attempts")

    def __init__(self, session_id, window_index, features, enqueued_at):
        self.session_id = session_id
        self.window_index = window_index
        self.features = features
        self.enqueued_at = enqueued_at
        self.attempts = 0


class MicroBatchScheduler:
    """Coalesces ready windows from many sessions into fused scoring calls.

    Parameters
    ----------
    scorer:
        Any object exposing ``decision_function(X) -> (n, k)`` and
        ``classes_`` — a :class:`~repro.engine.CompiledModel` in production,
        or the loop-path model itself for a reference run.
    max_batch:
        Maximum windows per fused call; a full queue triggers release.
    max_wait:
        Seconds the oldest pending window may wait before a partial batch is
        released by :meth:`pump`.
    clock:
        Monotonic time source (injectable for deterministic tests).
    max_retries:
        How many *failed* fused calls a window may be part of before it is
        dead-lettered instead of re-queued (``None`` = retry forever, the
        pre-PR-9 behaviour).  The default of 5 tolerates transient faults
        while bounding the damage of a deterministically failing batch.
    max_pending:
        Admission-queue bound; a submit beyond it sheds the oldest pending
        window as an explicit :data:`SHED` prediction (``None`` = unbounded).
    """

    def __init__(
        self,
        scorer,
        *,
        max_batch: int = 64,
        max_wait: float = 0.010,
        clock: Callable[[], float] = time.perf_counter,
        max_retries: int | None = 5,
        max_pending: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_retries is not None and max_retries < 0:
            raise ValueError(f"max_retries must be >= 0 or None, got {max_retries}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1 or None, got {max_pending}")
        if not hasattr(scorer, "decision_function") or not hasattr(scorer, "classes_"):
            raise TypeError(
                f"{type(scorer).__name__} cannot score windows; expected an "
                "object with decision_function() and classes_"
            )
        self.scorer = scorer
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.clock = clock
        self.max_retries = None if max_retries is None else int(max_retries)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.stats = SchedulerStats()
        self.dead_letters: list[DeadLetter] = []
        self._queue: list[_PendingWindow] = []
        self._shed: list[Prediction] = []

    # ------------------------------------------------------------ inspection
    @property
    def pending(self) -> int:
        """Number of windows waiting for the next fused call."""
        return len(self._queue)

    def ready(self) -> bool:
        """Whether :meth:`pump` would release a batch right now."""
        if len(self._queue) >= self.max_batch:
            return True
        if not self._queue:
            return False
        return self.clock() - self._queue[0].enqueued_at >= self.max_wait

    # ------------------------------------------------------------- operation
    def submit(self, session_id: str, window_index: int, features: np.ndarray) -> None:
        """Enqueue one ready window (e.g. a :class:`~repro.serving.ReadyWindow`).

        With ``max_pending`` set, an over-bound submit sheds the *oldest*
        pending window into the shed buffer (delivered as a :data:`SHED`
        prediction by the next :meth:`pump` / :meth:`flush`) — admission
        never blocks and never silently drops.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise ValueError(
                f"features must be a flat vector, got ndim={features.ndim}"
            )
        self._queue.append(
            _PendingWindow(session_id, window_index, features, self.clock())
        )
        self.stats.bump("windows_submitted")
        if self.max_pending is not None:
            while len(self._queue) > self.max_pending:
                self._shed_window(self._queue.pop(0))

    def _shed_window(self, pending: _PendingWindow) -> None:
        scores = np.full(len(self.scorer.classes_), np.nan)
        scores.setflags(write=False)
        self._shed.append(
            Prediction(
                session_id=pending.session_id,
                window_index=pending.window_index,
                label=SHED,
                scores=scores,
                queue_seconds=self.clock() - pending.enqueued_at,
                score_seconds=0.0,
                batch_size=0,
            )
        )
        self.stats.bump("windows_shed")

    def _take_shed(self) -> list[Prediction]:
        if not self._shed:
            return []
        shed, self._shed = self._shed, []
        return shed

    def _score_batch(self, batch: list[_PendingWindow]) -> list[Prediction]:
        released_at = self.clock()
        scorer = self.scorer
        if CHAOS.enabled:
            CHAOS.hit("scheduler.score", batch=len(batch))
        features = np.stack([pending.features for pending in batch])
        with OBS.recorder.span("scheduler.batch", windows=len(batch)):
            start = self.clock()
            scores = scorer.decision_function(features)
            score_seconds = self.clock() - start
        labels = scorer.classes_[np.argmax(scores, axis=1)]

        predictions = []
        for row, pending in enumerate(batch):
            # Per-row copy: a view of scores[row] would pin the whole (B, k)
            # batch array for as long as any one prediction is retained, and
            # writes through it would alias across predictions.
            row_scores = scores[row].copy()
            row_scores.setflags(write=False)
            prediction = Prediction(
                session_id=pending.session_id,
                window_index=pending.window_index,
                label=labels[row],
                scores=row_scores,
                queue_seconds=released_at - pending.enqueued_at,
                score_seconds=score_seconds,
                batch_size=len(batch),
            )
            predictions.append(prediction)
        stats = self.stats
        stats.latency_histogram.observe_many(
            prediction.latency_seconds for prediction in predictions
        )
        stats.bump("windows_scored", len(batch))
        stats.bump("batches")
        stats.bump("total_score_seconds", float(score_seconds))
        if OBS.enabled:
            metrics = OBS.metrics
            metrics.histogram(
                "repro_scheduler_batch_size",
                "Windows coalesced per fused call.",
                lo=1.0,
                hi=100000.0,
            ).observe(len(batch))
            metrics.histogram(
                "repro_scheduler_score_seconds",
                "Fused-call duration per released batch.",
            ).observe(score_seconds)
            metrics.histogram(
                "repro_scheduler_queue_seconds",
                "Per-window wait between submit and batch release.",
            ).observe_many(released_at - pending.enqueued_at for pending in batch)
        return predictions

    def _release_one(self) -> list[Prediction]:
        """Score the head batch; pop it from the queue only on success.

        On failure the batch stays queued (original ``enqueued_at`` intact,
        still at the head, so nothing reorders), the failure is counted, and
        the exception propagates — a raising scorer can never silently drop
        windows (the pre-fix behaviour popped before scoring).  Windows that
        have now been part of more than ``max_retries`` failed calls are
        moved to :attr:`dead_letters` instead of staying queued, so one
        poisonous batch cannot wedge the scheduler forever.
        """
        batch = self._queue[: self.max_batch]
        try:
            predictions = self._score_batch(batch)
        except Exception as error:
            self.stats.bump("score_failures")
            self._dead_letter_exhausted(batch, error)
            raise
        del self._queue[: len(batch)]
        return predictions

    def _dead_letter_exhausted(self, batch: list[_PendingWindow], error) -> None:
        """Charge one failed attempt to ``batch``; evict exhausted windows."""
        for pending in batch:
            pending.attempts += 1
        if self.max_retries is None:
            return
        dead = [p for p in batch if p.attempts > self.max_retries]
        if not dead:
            return
        self._queue[: len(batch)] = [
            p for p in batch if p.attempts <= self.max_retries
        ]
        for pending in dead:
            self.dead_letters.append(
                DeadLetter(
                    session_id=pending.session_id,
                    window_index=pending.window_index,
                    features=pending.features,
                    enqueued_at=pending.enqueued_at,
                    attempts=pending.attempts,
                    error=repr(error),
                )
            )
        self.stats.bump("windows_dead", len(dead))

    def replay_dead_letters(self) -> int:
        """Re-submit every dead letter's preserved features; return the count.

        The supported recovery path once the underlying scorer fault is
        fixed: each :class:`DeadLetter` re-enters the admission queue as a
        *fresh* submission (new ``enqueued_at``, retry budget reset, counted
        again in ``windows_submitted`` — so the accounting identity
        ``submitted == scored + shed + dead + pending`` keeps holding with
        the dead count left as a permanent record of the original failure).
        Replays pass through the normal ``max_pending`` admission bound, so
        a mass replay under pressure sheds explicitly instead of flooding.
        """
        letters, self.dead_letters = self.dead_letters, []
        for letter in letters:
            self.submit(letter.session_id, letter.window_index, letter.features)
        if letters and OBS.enabled:
            OBS.metrics.counter(
                "repro_scheduler_dead_letters_replayed_total",
                "Dead-lettered windows re-submitted for scoring.",
            ).inc(len(letters))
        return len(letters)

    def flush(self) -> list[Prediction]:
        """Score everything pending (in fused calls of at most ``max_batch``).

        Any buffered :data:`SHED` predictions are delivered first; if a fused
        call raises they stay buffered for the next attempt — nothing drains
        into a lost exception.
        """
        predictions: list[Prediction] = []
        while self._queue:
            predictions.extend(self._release_one())
        return self._take_shed() + predictions

    def pump(self) -> list[Prediction]:
        """Release batches per the ``max_batch`` / ``max_wait`` policy.

        Call this from the service loop after submitting windows; it returns
        immediately with no work when neither bound has been reached (shed
        predictions buffered by an over-bound submit are still delivered).
        """
        predictions: list[Prediction] = []
        while self.ready():
            predictions.extend(self._release_one())
        return self._take_shed() + predictions
