"""Unit tests for evaluation metrics."""

import numpy as np
import pytest

from repro.baselines import accuracy, macro_accuracy, median_absolute_deviation


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_zero(self):
        assert accuracy(np.array([1, 1]), np.array([2, 2])) == 0.0

    def test_partial(self):
        assert accuracy(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 1])) == 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, 2]), np.array([1]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestMacroAccuracy:
    def test_equals_accuracy_when_balanced_and_symmetric(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 1, 1, 0])
        assert macro_accuracy(y_true, y_pred) == pytest.approx(accuracy(y_true, y_pred))

    def test_insensitive_to_majority_inflation(self):
        # 90 majority correct, minority completely wrong: plain accuracy looks
        # high, macro accuracy exposes the collapse.
        y_true = np.array([0] * 90 + [1] * 10)
        y_pred = np.array([0] * 100)
        assert accuracy(y_true, y_pred) == pytest.approx(0.9)
        assert macro_accuracy(y_true, y_pred) == pytest.approx(0.5)

    def test_perfect_prediction(self):
        y = np.array([0, 1, 2, 2, 1])
        assert macro_accuracy(y, y) == 1.0

    def test_ignores_classes_absent_from_truth(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 2, 1, 2])
        assert macro_accuracy(y_true, y_pred) == pytest.approx(0.5)


class TestMedianAbsoluteDeviation:
    def test_constant_array_is_zero(self):
        assert median_absolute_deviation(np.full(10, 3.0)) == 0.0

    def test_known_value(self):
        assert median_absolute_deviation(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == 1.0

    def test_robust_to_outlier(self):
        base = np.ones(99)
        with_outlier = np.concatenate([base, [1000.0]])
        assert median_absolute_deviation(with_outlier) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_absolute_deviation(np.array([]))
