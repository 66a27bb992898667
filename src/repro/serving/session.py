"""Per-subject streaming sessions with incremental featurization.

A :class:`StreamSession` accepts raw multi-channel samples one at a time (or
in chunks), maintains the sliding-window layout of the offline pipeline, and
emits the *same* feature vectors :func:`repro.data.features.extract_features`
would compute on the materialised windows — without ever re-running the
length-30 moving-average convolution or re-scanning a window for its
statistics.

How the incremental math matches the batch pipeline
---------------------------------------------------

The batch pipeline smooths each window with a *causal* moving average whose
prefix grows from 1 to ``min(smoothing_window, window_samples)`` samples
(:func:`repro.data.features.moving_average`), then reduces the smoothed
window to per-channel min/max/mean/std.  Two observations make this
incremental:

1.  The smoothed value at in-window position ``t`` is the mean of the last
    ``c = min(effective, t + 1)`` *raw* samples, where ``effective =
    min(smoothing_window, window_samples)``.  For ``t >= effective - 1``
    those samples are simply the stream's most recent ``effective`` samples —
    one shared ring-buffer rolling sum serves every overlapping window.  For
    the prefix (``t < effective - 1``) the mean is over samples since *that
    window's* start, so each open window keeps its own prefix accumulator —
    a per-sample scalar add, not a convolution.
2.  The window statistics cover the *whole* smoothed window (nothing ever
    slides out), so running min/max and a Welford mean/variance accumulator
    per open window are exact O(1)-per-sample reductions.

Overlapping windows (``step_samples < window_samples``) simply mean several
windows are open at once — at most ``ceil(window / step)`` — and each sample
updates all of them.  Equality with the batch pipeline to ``<= 1e-9`` is
enforced by a property-based test in ``tests/test_serving.py``; the rolling
sum is periodically re-synchronised from the ring buffer so float drift
cannot accumulate over unbounded streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ReadyWindow", "StreamSession"]

#: Re-sum the ring buffer after this many rolling add/subtract updates, so
#: floating-point drift in the rolling sum stays bounded on infinite streams.
_RESYNC_INTERVAL = 4096


@dataclass(frozen=True)
class ReadyWindow:
    """One completed window's features, ready for scoring.

    Attributes
    ----------
    session_id:
        Identifier of the emitting session (opaque to the serving layer).
    window_index:
        0-based index of the window within the session's stream.
    features:
        Flat feature vector, identical in layout and value to one row of
        :func:`repro.data.features.extract_features`.
    end_sample:
        Stream index (0-based, inclusive) of the window's last raw sample —
        the deadline-relevant timestamp for latency accounting.
    """

    session_id: str
    window_index: int
    features: np.ndarray
    end_sample: int


class _OpenWindow:
    """Accumulators for one in-flight window (vectorised across channels)."""

    __slots__ = ("index", "count", "prefix_sum", "mean", "m2", "minimum", "maximum")

    def __init__(self, index: int, n_channels: int) -> None:
        self.index = index
        self.count = 0
        self.prefix_sum = np.zeros(n_channels)
        self.mean = np.zeros(n_channels)
        self.m2 = np.zeros(n_channels)
        self.minimum = np.full(n_channels, np.inf)
        self.maximum = np.full(n_channels, -np.inf)

    def update(self, smoothed: np.ndarray) -> None:
        """Welford mean/variance plus running min/max on one smoothed sample."""
        self.count += 1
        delta = smoothed - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (smoothed - self.mean)
        np.minimum(self.minimum, smoothed, out=self.minimum)
        np.maximum(self.maximum, smoothed, out=self.maximum)


@dataclass
class StreamSession:
    """Incremental featurizer for one subject's raw multi-channel stream.

    Parameters
    ----------
    session_id:
        Opaque identifier attached to every emitted :class:`ReadyWindow`.
    n_channels:
        Channels per sample (e.g. ``len(repro.data.CHANNELS)``).
    window_samples:
        Samples per emitted window (the offline pipeline's window length).
    step_samples:
        Stride between consecutive window starts; defaults to
        ``window_samples`` (non-overlapping).  Values smaller than
        ``window_samples`` produce overlapping windows, larger values leave
        gaps — both match the batch windowing they imitate.
    smoothing_window:
        Moving-average length of the feature pipeline (paper: 30).

    Each window emits min, max, mean and std per channel, channel-major:
    the layout of :func:`repro.data.features.extract_features`.
    """

    session_id: str
    n_channels: int
    window_samples: int
    step_samples: int | None = None
    smoothing_window: int = 30
    _samples_seen: int = field(init=False, default=0, repr=False)
    _windows_emitted: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {self.n_channels}")
        if self.window_samples < 1:
            raise ValueError(f"window_samples must be >= 1, got {self.window_samples}")
        if self.step_samples is None:
            self.step_samples = self.window_samples
        if self.step_samples < 1:
            raise ValueError(f"step_samples must be >= 1, got {self.step_samples}")
        if self.smoothing_window < 1:
            raise ValueError(
                f"smoothing_window must be >= 1, got {self.smoothing_window}"
            )
        self._effective = min(self.smoothing_window, self.window_samples)
        self._ring = np.zeros((self._effective, self.n_channels))
        self._rolling_sum = np.zeros(self.n_channels)
        self._carry = np.zeros(self.n_channels)  # Kahan compensation
        self._since_resync = 0
        self._open: list[_OpenWindow] = []

    @property
    def windows_emitted(self) -> int:
        return self._windows_emitted

    # -------------------------------------------------------------- internals
    def _finalize(self, window: _OpenWindow, end_sample: int) -> ReadyWindow:
        features = np.stack(
            [window.minimum, window.maximum, window.mean, np.sqrt(window.m2 / window.count)],
            axis=1,
        ).reshape(-1)
        ready = ReadyWindow(
            session_id=self.session_id,
            window_index=window.index,
            features=features,
            end_sample=end_sample,
        )
        self._windows_emitted += 1
        return ready

    def _push_one(self, sample: np.ndarray) -> ReadyWindow | None:
        position = self._samples_seen
        if position % self.step_samples == 0:
            self._open.append(
                _OpenWindow(position // self.step_samples, self.n_channels)
            )

        # Shared ring-buffer moving average over the raw stream.  The update
        # is Kahan-compensated: the increment itself is exact when old and
        # new sample are of similar magnitude (Sterbenz), and compensation
        # keeps the accumulated error O(eps * |sum|) regardless of stream
        # length instead of random-walking with every update.
        slot = position % self._effective
        increment = (sample - self._ring[slot]) - self._carry
        updated = self._rolling_sum + increment
        self._carry = (updated - self._rolling_sum) - increment
        self._rolling_sum = updated
        self._ring[slot] = sample
        self._since_resync += 1
        if self._since_resync >= _RESYNC_INTERVAL:
            self._rolling_sum = self._ring.sum(axis=0)
            self._carry[:] = 0.0
            self._since_resync = 0
        shared_smoothed = self._rolling_sum / self._effective

        completed: ReadyWindow | None = None
        survivors: list[_OpenWindow] = []
        for window in self._open:
            t = window.count  # in-window position of this sample
            if t < self._effective - 1:
                window.prefix_sum += sample
                smoothed = window.prefix_sum / (t + 1)
            else:
                # The stream's last `effective` samples all lie inside this
                # window, so the shared rolling mean is this window's causal
                # moving average here.
                smoothed = shared_smoothed
            window.update(smoothed)
            if window.count == self.window_samples:
                completed = self._finalize(window, position)
            else:
                survivors.append(window)
        self._open = survivors
        self._samples_seen += 1
        return completed

    # ------------------------------------------------------------------- API
    def push(self, samples: np.ndarray) -> list[ReadyWindow]:
        """Feed raw samples; return the windows they completed, in order.

        ``samples`` is one multi-channel sample of shape ``(n_channels,)`` or
        a chunk of shape ``(n_channels, k)`` — the layout produced by
        :meth:`repro.data.SignalSimulator.stream_chunks`.  At most one window
        completes per sample (windows are distinct in their end sample), so a
        ``k``-sample chunk yields at most ``k`` ready windows.
        """
        array = np.asarray(samples, dtype=np.float64)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2 or array.shape[0] != self.n_channels:
            raise ValueError(
                f"samples must have shape ({self.n_channels},) or "
                f"({self.n_channels}, k), got {np.shape(samples)}"
            )
        if not np.all(np.isfinite(array)):
            raise ValueError("samples contain NaN or infinite values")
        ready: list[ReadyWindow] = []
        for column in array.T:
            completed = self._push_one(column)
            if completed is not None:
                ready.append(completed)
        return ready
