"""Dataset container and shared generation machinery.

Each synthetic dataset (:mod:`repro.data.wesad`, :mod:`repro.data.nurse_stress`,
:mod:`repro.data.stress_predict`) produces a :class:`TabularDataset`: a feature
matrix, integer labels, per-sample subject identifiers and per-subject
metadata.  The container knows how to perform the paper's subject-wise
train/test split and how to restrict itself to a demographic group (used by
the Table III person-specific evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..baselines.preprocessing import StandardScaler, subject_train_test_split
from .features import extract_features, feature_names
from .signals import CHANNELS, SignalSimulator, StatePhysiology, SubjectPhysiology

__all__ = ["SubjectRecord", "TabularDataset", "generate_subject_dataset"]


@dataclass(frozen=True)
class SubjectRecord:
    """Demographic and physiological description of one subject."""

    subject_id: int
    hand: str = "right"
    gender: str = "male"
    age: int = 25
    height: float = 175.0
    physiology: SubjectPhysiology = field(default_factory=SubjectPhysiology)


@dataclass
class TabularDataset:
    """Feature matrix + labels + subject structure for one dataset.

    Attributes
    ----------
    name:
        Human-readable dataset name.
    X:
        Feature matrix of shape ``(n_samples, n_features)`` (already scaled).
    y:
        Integer class labels of shape ``(n_samples,)``.
    subjects:
        Subject identifier for every sample.
    subject_records:
        Mapping from subject id to :class:`SubjectRecord`.
    class_names:
        Class label names indexed by the integer label.
    feature_names:
        Column names of ``X``.
    scaler:
        The fitted :class:`~repro.baselines.preprocessing.StandardScaler`
        that produced ``X`` from raw features (``None`` for a dataset built
        by hand).  A serving process must apply the *same*
        transform to live features before scoring
        (``StreamingService(..., transform=dataset.scaler.transform)``), so
        the scaler travels with the dataset.
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    subjects: np.ndarray
    subject_records: Mapping[int, SubjectRecord]
    class_names: Sequence[str]
    feature_names: Sequence[str]
    scaler: StandardScaler | None = None

    def __post_init__(self) -> None:
        if not (len(self.X) == len(self.y) == len(self.subjects)):
            raise ValueError("X, y and subjects must have the same number of samples")

    # ------------------------------------------------------------ accessors
    @property
    def n_samples(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def subject_ids(self) -> np.ndarray:
        return np.unique(self.subjects)

    # ----------------------------------------------------------------- views
    def subset(self, mask: np.ndarray, *, name: str | None = None) -> "TabularDataset":
        """Return a new dataset restricted to samples where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_samples,):
            raise ValueError(f"mask must have shape ({self.n_samples},), got {mask.shape}")
        kept_subjects = {int(s) for s in np.unique(self.subjects[mask])}
        return TabularDataset(
            name=name or self.name,
            X=self.X[mask],
            y=self.y[mask],
            subjects=self.subjects[mask],
            subject_records={
                sid: record for sid, record in self.subject_records.items() if sid in kept_subjects
            },
            class_names=self.class_names,
            feature_names=self.feature_names,
            scaler=self.scaler,
        )

    def filter_subjects(
        self, predicate: Callable[[SubjectRecord], bool], *, name: str | None = None
    ) -> "TabularDataset":
        """Keep only samples whose subject satisfies ``predicate``.

        This is the primitive behind the Table III person-specific groups
        (left-handed subjects, female subjects, age/height bands, ...).
        """
        selected = {sid for sid, record in self.subject_records.items() if predicate(record)}
        if not selected:
            raise ValueError("no subjects satisfy the predicate")
        mask = np.isin(self.subjects, sorted(selected))
        return self.subset(mask, name=name)

    def split(
        self,
        *,
        test_fraction: float = 0.3,
        rng: int | np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Subject-wise train/test split (whole subjects held out for test)."""
        return subject_train_test_split(
            self.X, self.y, self.subjects, test_fraction=test_fraction, rng=rng
        )


def generate_subject_dataset(
    *,
    name: str,
    states: Sequence[StatePhysiology],
    subject_records: Sequence[SubjectRecord],
    windows_per_state: int = 25,
    simulator: SignalSimulator,
    smoothing_window: int = 30,
) -> TabularDataset:
    """Generate a full dataset: raw windows → features → scaled matrix.

    For every subject and every state, ``windows_per_state`` raw windows are
    simulated, filtered and summarised into statistical features; features are
    standard-scaled over the whole dataset (the paper normalises features to
    account for varying sensor ranges).
    """
    if windows_per_state < 1:
        raise ValueError("windows_per_state must be >= 1")
    if not states:
        raise ValueError("states must not be empty")
    if not subject_records:
        raise ValueError("subject_records must not be empty")

    feature_rows: list[np.ndarray] = []
    labels: list[int] = []
    subject_column: list[int] = []
    for record in subject_records:
        for label, state in enumerate(states):
            windows = simulator.generate_windows(state, windows_per_state, record.physiology)
            features = extract_features(windows, smoothing_window=smoothing_window)
            feature_rows.append(features)
            labels.extend([label] * windows_per_state)
            subject_column.extend([record.subject_id] * windows_per_state)

    scaler = StandardScaler()
    X = scaler.fit_transform(np.vstack(feature_rows))
    return TabularDataset(
        name=name,
        X=X,
        y=np.asarray(labels, dtype=int),
        subjects=np.asarray(subject_column, dtype=int),
        subject_records={record.subject_id: record for record in subject_records},
        class_names=[state.name for state in states],
        feature_names=feature_names(CHANNELS),
        scaler=scaler,
    )
