"""Shared fixtures: small, fast synthetic classification problems.

Classifier unit tests use a tiny, well-separated Gaussian-blob problem so
every model can be fitted in milliseconds; dataset-level and experiment-level
tests use a miniature WESAD-like dataset generated once per session.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.data import load_nurse_stress, load_wesad, nurse_stress
from repro.experiments import ExperimentScale


def make_blobs(
    n_per_class: int = 30,
    n_classes: int = 3,
    n_features: int = 6,
    separation: float = 3.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated Gaussian blobs for fast classifier sanity checks."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, n_features)) * separation
    X = np.vstack(
        [centers[label] + rng.standard_normal((n_per_class, n_features)) for label in range(n_classes)]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    order = rng.permutation(len(y))
    return X[order], y[order]


@pytest.fixture(scope="session")
def blobs() -> tuple[np.ndarray, np.ndarray]:
    """A 3-class, 6-feature blob problem (90 samples)."""
    return make_blobs()


@pytest.fixture(scope="session")
def blobs_split(blobs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 70/30 split of the blob problem."""
    X, y = blobs
    rng = np.random.default_rng(1)
    order = rng.permutation(len(y))
    cut = int(0.7 * len(y))
    train, test = order[:cut], order[cut:]
    return X[train], X[test], y[train], y[test]


@pytest.fixture(scope="session")
def mini_wesad():
    """A miniature WESAD-like dataset (4 subjects, 5 windows per state)."""
    return load_wesad(n_subjects=4, windows_per_state=5, window_seconds=8.0, seed=0)


@pytest.fixture(scope="session")
def mini_wesad_split(mini_wesad):
    """Subject-wise split of the miniature WESAD-like dataset."""
    return mini_wesad.split(test_fraction=0.3, rng=0)


@pytest.fixture(scope="session")
def mini_cohort():
    """A 10-subject WESAD-like cohort (4 windows of 8 s per state): enough
    subjects that several Table III groups can be split subject-wise."""
    return load_wesad(n_subjects=10, windows_per_state=4, window_seconds=8.0, seed=0)


@pytest.fixture(scope="session")
def mini_nurse():
    """A miniature Nurse-Stress-like dataset (4 subjects, 4 windows of 8 s per state)."""
    with mock.patch.object(nurse_stress, "_WINDOW_SECONDS", 8.0):
        return load_nurse_stress(n_subjects=4, windows_per_state=4, seed=1)


@pytest.fixture(scope="session")
def suite_datasets(mini_wesad, mini_nurse):
    """Two-dataset mapping shared by runtime/suite-level tests.

    Generated once per session: suite tests should reuse this instead of
    regenerating their own datasets, which is what keeps tier-1 wall time
    flat as the runtime test matrix grows.
    """
    return {"WESAD": mini_wesad, "Nurse Stress Dataset": mini_nurse}


#: Tiny experiment scale for suite-level tests: every code path identical to
#: the quick scale, all sizes shrunk to milliseconds.
TINY_SCALE = ExperimentScale(
    name="tiny",
    total_dim=120,
    n_learners=4,
    n_runs=2,
    hd_epochs=2,
    dnn_hidden=(16,),
    dnn_epochs=5,
    wesad_subjects=4,
    nurse_subjects=4,
    stress_predict_subjects=4,
    windows_per_state=4,
    bitflip_trials=2,
    sweep_runs=2,
)


@pytest.fixture(scope="session")
def tiny_scale() -> ExperimentScale:
    """Millisecond-sized scale for suite-level and runtime tests."""
    return TINY_SCALE
