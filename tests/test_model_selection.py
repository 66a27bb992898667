"""Unit tests for model-selection helpers."""

import numpy as np
import pytest

from repro.baselines import (
    DecisionTreeClassifier,
    accuracy,
    cross_val_score,
    kfold_indices,
    leave_one_subject_out,
)
from repro.experiments import run_model


class TestKFold:
    def test_folds_partition_all_samples(self):
        folds = list(kfold_indices(20, 4, rng=0))
        assert len(folds) == 4
        test_union = np.sort(np.concatenate([test for _, test in folds]))
        np.testing.assert_array_equal(test_union, np.arange(20))

    def test_train_test_disjoint(self):
        for train, test in kfold_indices(17, 5, rng=0):
            assert not set(train) & set(test)
            assert len(train) + len(test) == 17

    def test_too_many_folds_raises(self):
        with pytest.raises(ValueError):
            list(kfold_indices(3, 5))

    def test_single_fold_raises(self):
        with pytest.raises(ValueError):
            list(kfold_indices(10, 1))


class TestCrossValScore:
    def test_scores_shape_and_range(self, blobs):
        X, y = blobs
        scores = cross_val_score(DecisionTreeClassifier(max_depth=4, seed=0), X, y, n_folds=3, rng=0)
        assert scores.shape == (3,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_high_accuracy_on_easy_problem(self, blobs):
        X, y = blobs
        scores = cross_val_score(DecisionTreeClassifier(max_depth=5, seed=0), X, y, n_folds=3, rng=0)
        assert scores.mean() > 0.8


class TestLeaveOneSubjectOut:
    def test_each_subject_held_out_once(self):
        subjects = np.array([0, 0, 1, 1, 2, 2])
        splits = list(leave_one_subject_out(subjects))
        assert [held for _, _, held in splits] == [0, 1, 2]
        for train, test, held in splits:
            assert np.all(subjects[test] == held)
            assert not np.any(subjects[train] == held)


class TestRepeatedRuns:
    """The paper's independent-runs protocol is
    :func:`repro.experiments.run_model`: run ``r`` fits ``build(r)``."""

    def test_mean_and_std(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        result = run_model(
            lambda run: DecisionTreeClassifier(max_depth=4, seed=run),
            X_train,
            y_train,
            X_test,
            y_test,
            n_runs=3,
            engine=False,
        )
        expected = [
            accuracy(
                y_test,
                DecisionTreeClassifier(max_depth=4, seed=run)
                .fit(X_train, y_train)
                .predict(X_test),
            )
            for run in range(3)
        ]
        np.testing.assert_array_equal(result.accuracies, expected)
        assert result.mean_accuracy == np.mean(expected)
        assert result.std_accuracy == np.std(expected)

    def test_invalid_run_count_raises(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        with pytest.raises(ValueError, match="n_runs"):
            run_model(
                lambda run: DecisionTreeClassifier(seed=run),
                X_train,
                y_train,
                X_test,
                y_test,
                n_runs=0,
            )
