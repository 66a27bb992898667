"""End-to-end streaming facade: sessions in, micro-batched predictions out.

:class:`StreamingService` wires the serving pieces together for the common
case — one scorer, many subjects:

* :meth:`open_session` registers a subject by id (a
  :class:`~repro.serving.session.StreamSession` per subject, all under the
  service's one windowing),
* :meth:`push` feeds raw samples for one subject, submits any completed
  windows to the shared :class:`~repro.serving.scheduler.MicroBatchScheduler`
  and returns whatever predictions the scheduler released,
* :meth:`drain` flushes the remaining partial batch (shutdown, or the end of
  a simulation tick).

The service itself is a thin loop over those parts; anything fancier
(per-session priorities, backpressure, an async transport) should compose
the parts directly rather than grow this facade.

Its calls and return types match :class:`~repro.serving.fabric.ServingFabric`,
so the gateway serves either backend directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import OBS
from .scheduler import MicroBatchScheduler, Prediction
from .session import StreamSession

__all__ = ["StreamingService", "SwapResult"]


@dataclass(frozen=True)
class SwapResult:
    """Outcome of a hot swap; ``flushed`` holds the old model's predictions."""

    promoted: bool
    generation: int
    flushed: tuple = ()
    reason: str = ""


class StreamingService:
    """Serve many concurrent physiological streams against one scorer.

    Parameters
    ----------
    scorer:
        Object with ``decision_function`` / ``classes_`` — typically a
        :class:`~repro.engine.CompiledModel` or
        :class:`~repro.serving.adaptation.AdaptiveModel`.
    n_channels, window_samples, step_samples, smoothing_window, statistics:
        The windowing/featurization of every session; must match what the
        scorer was trained on.  A bad value raises here, not on each
        :meth:`open_session`.
    max_batch, max_wait:
        Micro-batching policy, forwarded to the scheduler.
    transform:
        Optional callable applied to each window's ``(1, n_features)``
        feature row before scoring — typically the training dataset's fitted
        scaler (``dataset.scaler.transform``), since models are trained on
        standard-scaled features and live streams arrive raw.
    max_retries, max_pending:
        Scheduler bounds (see :class:`MicroBatchScheduler`): the retry
        budget before a window is dead-lettered, and the admission-queue
        bound beyond which the oldest window is shed as an explicit
        :data:`~repro.serving.scheduler.SHED` prediction.
    """

    #: An in-process service has no worker transport to trip.
    breakers = ()

    def __init__(
        self,
        scorer,
        *,
        n_channels: int,
        window_samples: int,
        step_samples: int | None = None,
        smoothing_window: int = 30,
        statistics: tuple[str, ...] = ("min", "max", "mean", "std"),
        max_batch: int = 64,
        max_wait: float = 0.010,
        transform=None,
        max_retries: int | None = 5,
        max_pending: int | None = None,
    ) -> None:
        self.scheduler = MicroBatchScheduler(
            scorer,
            max_batch=max_batch,
            max_wait=max_wait,
            max_retries=max_retries,
            max_pending=max_pending,
        )
        self.generation = 0
        self.n_channels = int(n_channels)
        self.window_samples = int(window_samples)
        self.step_samples = step_samples
        self.smoothing_window = int(smoothing_window)
        self.statistics = tuple(statistics)
        self.transform = transform
        self.sessions: dict[str, StreamSession] = {}
        self._stream("")  # every session shares this windowing: check it once

    def _stream(self, session_id: str) -> StreamSession:
        return StreamSession(
            session_id,
            n_channels=self.n_channels,
            window_samples=self.window_samples,
            step_samples=self.step_samples,
            smoothing_window=self.smoothing_window,
            statistics=self.statistics,
        )

    def open_session(self, session_id: str) -> StreamSession:
        """Register a subject's stream under the service's windowing.

        Raises :exc:`ValueError` when the id is already open, and for
        nothing else.
        """
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} is already open")
        session = self._stream(session_id)
        self.sessions[session_id] = session
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_serving_sessions_opened_total",
                "Stream sessions registered with the service.",
            ).inc()
            OBS.metrics.gauge(
                "repro_serving_open_sessions",
                "Currently registered stream sessions.",
            ).set(len(self.sessions))
        return session

    def close_session(self, session_id: str) -> StreamSession:
        """Deregister a subject (pending submitted windows still get scored)."""
        try:
            session = self.sessions.pop(session_id)
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_serving_sessions_closed_total",
                "Stream sessions deregistered from the service.",
            ).inc()
            OBS.metrics.gauge(
                "repro_serving_open_sessions",
                "Currently registered stream sessions.",
            ).set(len(self.sessions))
        return session

    def push(self, session_id: str, samples: np.ndarray) -> list[Prediction]:
        """Feed raw samples for one subject; return newly released predictions.

        Completed windows are featurized incrementally inside the session and
        submitted to the scheduler; the scheduler releases fused batches per
        its ``max_batch`` / ``max_wait`` policy, so the returned list may
        contain predictions for *other* sessions whose windows shared the
        batch — route them by ``Prediction.session_id``.
        """
        try:
            session = self.sessions[session_id]
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None
        for ready in session.push(samples):
            features = ready.features
            if self.transform is not None:
                features = np.asarray(self.transform(features[None]))[0]
            self.scheduler.submit(ready.session_id, ready.window_index, features)
        return self.scheduler.pump()

    def drain(self, *, deadline=None) -> list[Prediction]:
        """Force-score every pending window (end of tick / shutdown).

        ``deadline`` bounds nothing here: no worker process can wedge.
        """
        return self.scheduler.flush()

    @property
    def dead_letters(self):
        """Windows dead-lettered after exhausting their retry budget."""
        return self.scheduler.dead_letters

    def replay_dead_letters(self, *, flush: bool = True) -> tuple[int, list[Prediction]]:
        """Re-submit every dead letter's preserved features for scoring.

        The supported operator API over what used to be an internal detail
        (``scheduler.dead_letters[...].features``): once the scorer fault
        behind the dead-lettering is fixed, replaying re-enters each window
        into the normal admission queue (fresh retry budget, subject to the
        ``max_pending`` shed bound) and — with ``flush`` (the default) —
        scores it immediately.  Returns ``(replayed_count, predictions)``;
        with ``flush=False`` the windows ride along with the next regular
        batch instead and the prediction list only carries whatever
        :meth:`MicroBatchScheduler.pump` releases right away.  Replayed
        windows are counted in ``repro_scheduler_dead_letters_replayed_total``.
        """
        replayed = self.scheduler.replay_dead_letters()
        if replayed == 0:
            return 0, []
        if flush:
            return replayed, self.scheduler.flush()
        return replayed, self.scheduler.pump()

    def swap(self, scorer) -> SwapResult:
        """Atomically replace the scorer, flushing pending windows first.

        Every window already submitted is scored against the *old* scorer
        (their predictions are the result's ``flushed``), then the scheduler
        switches to the new one and ``generation`` counts the swap — no
        window is ever scored against a half-swapped model.  This is the
        in-process primitive under the fabric's blue/green hot swap
        (:meth:`repro.serving.fabric.ServingFabric.swap`).
        """
        flushed = self.scheduler.flush()
        self.scheduler.scorer = scorer
        self.generation += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_serving_scorer_swaps_total",
                "Hot scorer replacements performed by the service.",
            ).inc()
        return SwapResult(
            promoted=True,
            generation=self.generation,
            flushed=tuple(flushed),
            reason="promoted",
        )

    def shutdown(self) -> None:
        """No-op: the service owns no processes; :meth:`drain` flushes."""

    @property
    def stats(self):
        """The scheduler's accumulated :class:`SchedulerStats`."""
        return self.scheduler.stats
