"""Drift monitoring and opt-in online adaptation for served models.

Physiological baselines drift — circadian temperature cycles, sensor
re-placement, habituation to a stressor — so a model that was accurate at
deployment time degrades silently.  Serving-side, drift shows up *before*
labels do, as shrinking decision confidence: the margin between the best and
second-best class score contracts when queries move away from the training
distribution.  :class:`DriftMonitor` tracks a rolling mean of that margin
against the baseline established right after deployment and flags when it
collapses.

When labeled feedback *is* available (periodic self-reports, a clinician
annotating flagged episodes), :class:`AdaptiveModel` applies OnlineHD-style
adaptive updates — the same rule the weak learners were trained with, via
:meth:`repro.hdc.OnlineHD.partial_fit` — to the served model without a
retrain, and invalidates/recompiles the fused engine so subsequent
micro-batches score against the updated class hypervectors.  Adaptation is
strictly opt-in: :meth:`AdaptiveModel.feedback` is the only mutating entry
point, and a monitor-only deployment never touches the model.

``partial_fit`` routes through the fused training engine
(:mod:`repro.engine.train`): each BoostHD weak learner encodes the feedback
batch itself, in turn, and adapts with the exact fast pass — bit-identical
to the historical per-learner loop, just cheaper, which matters because
feedback runs inline with serving.  A model constructed with ``batch_size``
set applies its feedback epochs with the vectorised mini-batch trainer
instead.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.boosthd import BoostHD
from ..engine.cascade import top2_margin
from ..hdc.onlinehd import OnlineHD
from ..obs import OBS

__all__ = ["DriftMonitor", "AdaptiveModel"]

#: Recent margins in the drift monitor's rolling mean.
_WINDOW = 256
#: Initial margins frozen into the drift monitor's baseline.
_BASELINE_WINDOW = 256
#: Fraction of the baseline margin below which drift is declared.
_RATIO = 0.5


class DriftMonitor:
    """Rolling score-margin monitor flagging confidence collapse.

    The *margin* of one scored window is ``top1 - top2`` of its per-class
    scores (for cosine-similarity scores this is scale-free).  The first 256
    margins (``_BASELINE_WINDOW``) define the deployment baseline;
    afterwards the monitor reports drift when the mean margin over the last
    256 scores (``_WINDOW``) falls below half the baseline (``_RATIO``).
    """

    def __init__(self) -> None:
        self.observed = 0
        self._recent: deque[float] = deque(maxlen=_WINDOW)
        self._baseline_sum = 0.0
        self._baseline_count = 0

    @staticmethod
    def margins(scores: np.ndarray) -> np.ndarray:
        """Per-row ``top1 - top2`` margins of a ``(n, n_classes)`` score matrix.

        :func:`~repro.engine.top2_margin`, plus one 1-D row; fewer than two
        classes raise instead of giving ``+inf``.
        """
        scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        if scores.shape[1] < 2:
            raise ValueError("need at least two classes to compute a margin")
        return top2_margin(scores)

    def update(self, scores: np.ndarray) -> None:
        """Fold a batch of per-class scores into the rolling statistics."""
        for margin in self.margins(scores):
            value = float(margin)
            self.observed += 1
            if self._baseline_count < _BASELINE_WINDOW:
                self._baseline_sum += value
                self._baseline_count += 1
            self._recent.append(value)

    @property
    def baseline_margin(self) -> float | None:
        """Mean margin of the deployment baseline (None until established)."""
        if self._baseline_count < _BASELINE_WINDOW:
            return None
        return self._baseline_sum / self._baseline_count

    @property
    def rolling_margin(self) -> float | None:
        """Mean margin over the most recent ``_WINDOW`` scores."""
        if not self._recent:
            return None
        return float(np.mean(self._recent))

    @property
    def drifted(self) -> bool:
        """True when recent confidence fell below the configured floor."""
        rolling = self.rolling_margin
        baseline = self.baseline_margin
        if rolling is None or baseline is None:
            return False
        return rolling < _RATIO * baseline

    def reset_baseline(self) -> None:
        """Re-anchor the baseline on the next ``_BASELINE_WINDOW`` scores.

        Call after adapting the model: the old confidence level no longer
        describes the updated class hypervectors.
        """
        self._baseline_sum = 0.0
        self._baseline_count = 0

    def __repr__(self) -> str:
        baseline = self.baseline_margin
        rolling = self.rolling_margin
        return (
            f"DriftMonitor(observed={self.observed}, "
            f"baseline={'-' if baseline is None else f'{baseline:.4f}'}, "
            f"rolling={'-' if rolling is None else f'{rolling:.4f}'}, "
            f"drifted={self.drifted})"
        )


class AdaptiveModel:
    """A served model plus its compiled engine, drift monitor and update path.

    Wraps a fitted :class:`~repro.hdc.OnlineHD` or
    :class:`~repro.core.BoostHD`.  :attr:`compiled` lazily builds (and after
    feedback, rebuilds) the fused :class:`~repro.engine.CompiledModel`;
    :meth:`decision_function` routes a feature batch through the engine
    while feeding its :class:`DriftMonitor`; :meth:`feedback` applies one
    adaptive epoch of labeled feedback and marks the engine stale.  A
    :class:`~repro.serving.scheduler.MicroBatchScheduler` can point directly
    at an ``AdaptiveModel`` (it exposes ``decision_function``/``classes_``),
    so adaptation slots into a running service without rewiring.

    Parameters
    ----------
    model:
        Fitted model to serve, through the default float engine of
        :func:`~repro.engine.compile_model`.
    """

    def __init__(self, model: BoostHD | OnlineHD) -> None:
        if not isinstance(model, (BoostHD, OnlineHD)):
            raise TypeError(
                f"expected BoostHD or OnlineHD, got {type(model).__name__}"
            )
        self.model = model
        self.monitor = DriftMonitor()
        self._compiled = None
        self.recompiles = 0
        self.feedback_samples = 0
        self._drift_flagged = False

    # ------------------------------------------------------------ the engine
    @property
    def compiled(self):
        """The fused engine for the *current* model state (rebuilt if stale)."""
        if self._compiled is None:
            from ..engine import compile_model

            self._compiled = compile_model(self.model)
            self.recompiles += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_serving_recompiles_total",
                    "Engine (re)builds by adaptive serving models.",
                ).inc()
        return self._compiled

    @property
    def classes_(self) -> np.ndarray:
        return self.model.classes_

    # --------------------------------------------------------------- scoring
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Fused per-class scores; every call also feeds the drift monitor."""
        scores = self.compiled.decision_function(X)
        self.monitor.update(scores)
        if OBS.enabled:
            drifted = self.monitor.drifted
            if drifted and not self._drift_flagged:
                OBS.metrics.counter(
                    "repro_serving_drift_events_total",
                    "Drift-monitor transitions into the drifted state.",
                ).inc()
            self._drift_flagged = drifted
        return scores

    # ------------------------------------------------------------ adaptation
    def feedback(self, X: np.ndarray, y: np.ndarray) -> None:
        """Apply one adaptive epoch of labeled feedback and invalidate the engine.

        One ``partial_fit`` epoch on the served model — a single
        :meth:`~repro.hdc.OnlineHD.partial_fit` for OnlineHD, or
        :meth:`~repro.core.BoostHD.partial_fit` (every weak learner, fixed
        boosting importances) for an ensemble.  Either way the epoch runs on
        the fused training engine (:mod:`repro.engine.train`): one ensemble
        encoding of the feedback batch, exact fast adaptive passes.

        The compiled engine is dropped and rebuilt on next use, and the drift
        baseline re-anchors so post-adaptation confidence defines the new
        normal.
        """
        X = np.asarray(X, dtype=np.float64)
        with OBS.recorder.span("serving.feedback", samples=len(X)):
            self.model.partial_fit(X, y)
        self.feedback_samples += len(X)
        self._compiled = None
        self.monitor.reset_baseline()
        if OBS.enabled:
            metrics = OBS.metrics
            metrics.counter(
                "repro_serving_feedback_batches_total",
                "Labeled feedback batches applied to served models.",
            ).inc()
            metrics.counter(
                "repro_serving_feedback_samples_total",
                "Labeled feedback samples applied to served models.",
            ).inc(len(X))
