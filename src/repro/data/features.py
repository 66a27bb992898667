"""Feature-extraction pipeline matching the paper's preprocessing.

The paper preprocesses each dataset with "a moving average filter with a
window size of 30, extracting statistical features such as minimum, maximum,
mean, and standard deviation", followed by normalisation.  This module
implements exactly that pipeline on the raw windows produced by
:mod:`repro.data.signals`:

1. smooth every channel with a length-30 moving-average filter,
2. compute per-channel statistics (min, max, mean and std),
3. flatten into one feature vector per window.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "moving_average",
    "STATISTICS",
    "extract_features",
    "feature_names",
]

#: Statistical summaries computed per channel, in feature order.
STATISTICS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "min": lambda window: window.min(axis=-1),
    "max": lambda window: window.max(axis=-1),
    "mean": lambda window: window.mean(axis=-1),
    "std": lambda window: window.std(axis=-1),
}


def moving_average(signal: np.ndarray, window_size: int = 30) -> np.ndarray:
    """Causal moving-average filter applied along the last axis.

    The output has the same length as the input; the first ``window_size - 1``
    samples average over the (shorter) available history, which avoids edge
    artefacts without shrinking the window.

    The filter is computed from a cumulative sum of the *mean-centred* signal
    (the mean is added back afterwards, which is exact for an averaging
    filter).  A raw cumulative sum of a long stream with a large DC offset —
    e.g. hours of skin temperature around 33 °C — grows to ``n · offset`` and
    the difference of two nearby cumsum entries cancels catastrophically;
    centring keeps the accumulator bounded by the signal's variation instead.
    """
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    array = np.asarray(signal, dtype=np.float64)
    if window_size == 1:
        return array.copy()
    offset = array.mean(axis=-1, keepdims=True)
    cumulative = np.cumsum(array - offset, axis=-1)
    length = array.shape[-1]
    effective = min(window_size, length)
    smoothed = np.empty_like(array)
    # Full windows.
    smoothed[..., effective - 1 :] = (
        cumulative[..., effective - 1 :]
        - np.concatenate(
            [np.zeros(array.shape[:-1] + (1,)), cumulative[..., : length - effective]],
            axis=-1,
        )
    ) / effective
    # Growing prefix windows.
    prefix_counts = np.arange(1, effective)
    smoothed[..., : effective - 1] = cumulative[..., : effective - 1] / prefix_counts
    smoothed += offset
    return smoothed


def extract_features(windows: np.ndarray, *, smoothing_window: int = 30) -> np.ndarray:
    """Feature matrix for a batch of windows ``(n_windows, n_channels, n_samples)``:
    each channel's :data:`STATISTICS`, channel-major."""
    array = np.asarray(windows, dtype=float)
    if array.ndim != 3:
        raise ValueError(
            f"windows must be 3-D (windows, channels, samples), got ndim={array.ndim}"
        )
    smoothed = moving_average(array, smoothing_window)
    columns = [statistic(smoothed) for statistic in STATISTICS.values()]
    stacked = np.stack(columns, axis=2)  # (windows, channels, statistics)
    return stacked.reshape(array.shape[0], -1)


def feature_names(channels: Sequence[str]) -> list[str]:
    """Column names matching the layout of :func:`extract_features`."""
    return [f"{channel}_{statistic}" for channel in channels for statistic in STATISTICS]
