"""Seeded window streams for the serving workloads, and their correctness gates.

A cohort is ``n_sessions`` simulated subjects, each with a pool of distinct
raw windows (state drawn per window) that its stream replays cyclically, one
window-sized chunk per push.  Chunks are window-aligned and windows do not
overlap, so window ``w`` of session ``s`` carries pool window ``w % pool``.

The gates:

* exactly once -- every ``(session_id, window_index)`` fed is delivered once;
* features -- a fresh :class:`~repro.serving.StreamSession` replaying a
  session's stream emits features within ``FEATURE_TOL`` of
  :func:`~repro.data.features.extract_features` on the materialised windows;
* scores -- served scores are bit-identical to one direct
  ``decision_function`` call on those replayed (transformed) features.  The
  replay pushes exactly the served stream, so its features are the served
  session features; fixed16 scoring is batch-composition invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import CHANNELS, WESAD_STATES, SignalSimulator
from repro.data.features import extract_features
from repro.data.wesad import make_wesad_subjects
from repro.serving import StreamSession

SMOOTHING = 30
FEATURE_TOL = 1e-9


@dataclass
class Cohort:
    session_ids: list
    windows: np.ndarray  # (sessions, pool, channels, samples)
    labels: np.ndarray  # (sessions, pool) true state index

    @property
    def pool(self) -> int:
        return self.windows.shape[1]

    @property
    def window_samples(self) -> int:
        return self.windows.shape[3]

    def chunk(self, session: int, window_index: int) -> np.ndarray:
        return self.windows[session, window_index % self.pool]

    def label(self, session: int, window_index: int) -> int:
        return int(self.labels[session, window_index % self.pool])

    def features(self) -> np.ndarray:
        """Offline features of every pool window, one row each."""
        flat = self.windows.reshape((-1,) + self.windows.shape[2:])
        return extract_features(flat, smoothing_window=SMOOTHING)


def make_cohort(
    seed: int,
    *,
    n_sessions: int,
    pool: int,
    sampling_rate: float,
    window_seconds: float,
) -> Cohort:
    """Simulate the cohort's windows with the WESAD simulator settings."""
    rng = np.random.default_rng([seed, 7])
    subjects = make_wesad_subjects(n_sessions, rng=rng)
    simulator = SignalSimulator(
        sampling_rate=sampling_rate,
        window_seconds=window_seconds,
        noise_level=0.9,
        class_overlap=0.03,
        rng=rng,
    )
    labels = rng.integers(0, len(WESAD_STATES), size=(n_sessions, pool))
    windows = np.stack(
        [
            np.stack(
                [
                    simulator.generate_window(WESAD_STATES[label], subject.physiology)
                    for label in row
                ]
            )
            for subject, row in zip(subjects, labels)
        ]
    )
    return Cohort([f"s{index:02d}" for index in range(n_sessions)], windows, labels)


def replay_reference(cohort: Cohort, counts: dict, engine, transform):
    """Replay each session's served stream; return reference scores and feature error.

    ``counts`` maps a session index to how many windows it was fed.  Returns
    ``({(session_id, window_index): (label, scores)}, max_feature_error)``.
    """
    keys, features, offline = [], [], []
    for session, count in counts.items():
        session_id = cohort.session_ids[session]
        stream = StreamSession(
            session_id,
            n_channels=len(CHANNELS),
            window_samples=cohort.window_samples,
            smoothing_window=SMOOTHING,
        )
        for window_index in range(count):
            (ready,) = stream.push(cohort.chunk(session, window_index))
            keys.append((session_id, ready.window_index))
            features.append(ready.features)
        indices = np.arange(count) % cohort.pool
        offline.append(
            extract_features(cohort.windows[session, indices], smoothing_window=SMOOTHING)
        )
    if not keys:
        return {}, 0.0
    features = np.vstack(features)
    error = float(np.max(np.abs(features - np.vstack(offline))))
    scores = engine.decision_function(transform(features))
    labels = engine.classes_[np.argmax(scores, axis=1)]
    reference = {
        key: (int(label), tuple(row.tolist()))
        for key, label, row in zip(keys, labels, scores)
    }
    return reference, error


def check_exactly_once(outcome, fed: set, delivered: list) -> None:
    """Every fed key delivered once: no loss, no duplicate, nothing unexpected."""
    seen = set(delivered)
    duplicates = len(delivered) - len(seen)
    missing = len(fed - seen)
    extra = len(seen - fed)
    outcome.check(
        "exactly_once",
        duplicates == missing == extra == 0,
        f"{len(fed)} fed, {len(delivered)} delivered, {duplicates} duplicate, "
        f"{missing} missing, {extra} unexpected",
        failures=duplicates + missing + extra,
    )


def check_against_reference(outcome, served: dict, reference: dict, error: float) -> None:
    """Feature tolerance and bit-identical scores on the replayed sessions."""
    outcome.check(
        "features_1e-9",
        error <= FEATURE_TOL,
        f"max |streamed - extract_features| = {error:.3g} over {len(reference)} windows",
        failures=len(reference),
    )
    mismatched = sum(1 for key, value in reference.items() if served.get(key) != value)
    outcome.check(
        "scores_bitwise",
        mismatched == 0,
        f"{len(reference) - mismatched}/{len(reference)} windows bit-identical "
        "to one direct decision_function call",
        failures=mismatched,
    )


def accuracy(cohort: Cohort, served: dict) -> float:
    """Share of served labels equal to the simulated state of their window."""
    index = {session_id: session for session, session_id in enumerate(cohort.session_ids)}
    hits = [
        label == cohort.label(index[session_id], window_index)
        for (session_id, window_index), (label, _) in served.items()
    ]
    return float(np.mean(hits)) if hits else 0.0
