"""Person-specific (demographic-group) evaluation — Section IV-E, Table III.

The paper segments WESAD subjects by hand preference, gender, age and height
and evaluates every model within each group to check that performance is
equitable across subject characteristics.  This module defines the paper's six
groups as subject predicates and evaluates a model factory group by group,
training and testing inside the group with a subject-wise split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..baselines.base import BaseClassifier
from ..baselines.metrics import accuracy
from ..data.loaders import SubjectRecord, TabularDataset

__all__ = ["PAPER_GROUPS", "GroupResult", "evaluate_groups", "group_accuracy_table"]

#: The demographic groups of Table III as predicates over SubjectRecord.
PAPER_GROUPS: Mapping[str, Callable[[SubjectRecord], bool]] = {
    "Left hands": lambda record: record.hand == "left",
    "Female": lambda record: record.gender == "female",
    "Age <= 25": lambda record: record.age <= 25,
    "Age >= 30": lambda record: record.age >= 30,
    "Height <= 170": lambda record: record.height <= 170.0,
    "Height >= 185": lambda record: record.height >= 185.0,
}


@dataclass(frozen=True)
class GroupResult:
    """Accuracy of one model within one demographic group."""

    group: str
    n_subjects: int
    n_samples: int
    accuracy: float


def evaluate_groups(
    build_model: Callable[[int], BaseClassifier],
    dataset: TabularDataset,
    *,
    groups: Mapping[str, Callable[[SubjectRecord], bool]] | None = None,
    seed: int = 0,
) -> list[GroupResult]:
    """Evaluate a model family within each demographic group.

    For every group, the dataset is restricted to matching subjects, split
    subject-wise, and a fresh model from ``build_model(seed)`` is trained and
    scored.  Groups whose subject pool is too small for a subject-wise split
    (fewer than two subjects) are skipped — with synthetic cohorts this can
    legitimately happen for rare attributes.
    """
    groups = groups or PAPER_GROUPS
    results: list[GroupResult] = []
    for index, (group_name, predicate) in enumerate(groups.items()):
        try:
            subset = dataset.filter_subjects(predicate, name=f"{dataset.name} / {group_name}")
        except ValueError:
            continue
        if len(subset.subject_ids) < 2:
            continue
        X_train, X_test, y_train, y_test = subset.split(rng=seed + index)
        if len(np.unique(y_train)) < dataset.n_classes:
            # A split that dropped a class entirely is not a fair evaluation.
            continue
        model = build_model(seed + index)
        model.fit(X_train, y_train)
        results.append(
            GroupResult(
                group=group_name,
                n_subjects=len(subset.subject_ids),
                n_samples=subset.n_samples,
                accuracy=float(accuracy(y_test, model.predict(X_test))),
            )
        )
    return results


def group_accuracy_table(
    model_builders: Mapping[str, Callable[[int], BaseClassifier]],
    dataset: TabularDataset,
    *,
    groups: Mapping[str, Callable[[SubjectRecord], bool]] | None = None,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Table III structure: ``{model: {group: accuracy, ..., "AVERAGE": mean}}``."""
    table: dict[str, dict[str, float]] = {}
    for model_name, builder in model_builders.items():
        results = evaluate_groups(builder, dataset, groups=groups, seed=seed)
        row = {result.group: result.accuracy for result in results}
        if row:
            row["AVERAGE"] = float(np.mean(list(row.values())))
        table[model_name] = row
    return table
