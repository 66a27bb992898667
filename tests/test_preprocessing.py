"""Unit tests for preprocessing: feature scaling and subject-wise splits."""

import numpy as np
import pytest

from repro.baselines import StandardScaler, subject_train_test_split


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, (200, 4))
        transformed = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(transformed.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(transformed.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_no_nan(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        transformed = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(transformed))

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((3, 2)))

    def test_transform_uses_training_statistics(self):
        scaler = StandardScaler().fit(np.array([[0.0], [10.0]]))
        np.testing.assert_allclose(scaler.transform(np.array([[5.0]])), [[0.0]])


class TestSubjectSplit:
    def test_no_subject_overlap(self):
        rng = np.random.default_rng(0)
        subjects = np.repeat(np.arange(6), 10)
        X = rng.standard_normal((60, 3))
        y = rng.integers(0, 2, 60)
        X_train, X_test, y_train, y_test = subject_train_test_split(
            X, y, subjects, test_fraction=0.3, rng=0
        )
        train_rows = {tuple(row) for row in X_train}
        test_rows = {tuple(row) for row in X_test}
        assert not train_rows & test_rows
        assert len(X_train) + len(X_test) == 60

    def test_at_least_one_subject_each_side(self):
        subjects = np.repeat([0, 1], 5)
        X = np.random.default_rng(0).standard_normal((10, 2))
        y = np.zeros(10)
        X_train, X_test, _, _ = subject_train_test_split(X, y, subjects, test_fraction=0.9, rng=0)
        assert len(X_train) > 0 and len(X_test) > 0

    def test_single_subject_raises(self):
        subjects = np.zeros(10)
        with pytest.raises(ValueError):
            subject_train_test_split(np.ones((10, 2)), np.ones(10), subjects)

    def test_invalid_fraction_raises(self):
        subjects = np.repeat([0, 1], 5)
        with pytest.raises(ValueError):
            subject_train_test_split(np.ones((10, 2)), np.ones(10), subjects, test_fraction=0.0)
