"""Unit tests for the shared estimator API."""

import numpy as np
import pytest

from repro.baselines import DecisionTreeClassifier
from repro.baselines.base import BaseClassifier, NotFittedError


class TestValidation:
    def test_validate_fit_rejects_1d_X(self):
        with pytest.raises(ValueError):
            BaseClassifier._validate_fit_args(np.ones(5), np.ones(5))

    def test_validate_fit_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            BaseClassifier._validate_fit_args(np.ones((5, 2)), np.ones(4))

    def test_validate_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            BaseClassifier._validate_fit_args(np.empty((0, 2)), np.empty(0))

    def test_validate_fit_rejects_nan(self):
        X = np.ones((3, 2))
        X[1, 1] = np.inf
        with pytest.raises(ValueError):
            BaseClassifier._validate_fit_args(X, np.ones(3))

    def test_validate_predict_promotes_vector(self):
        assert BaseClassifier._validate_predict_args(np.ones(4)).shape == (1, 4)

    def test_sample_weight_default_uniform(self):
        weights = BaseClassifier._validate_sample_weight(None, 4)
        np.testing.assert_allclose(weights, 0.25)

    def test_sample_weight_normalised(self):
        weights = BaseClassifier._validate_sample_weight(np.array([1.0, 3.0]), 2)
        np.testing.assert_allclose(weights, [0.25, 0.75])

    def test_sample_weight_negative_raises(self):
        with pytest.raises(ValueError):
            BaseClassifier._validate_sample_weight(np.array([1.0, -1.0]), 2)

    def test_sample_weight_zero_sum_raises(self):
        with pytest.raises(ValueError):
            BaseClassifier._validate_sample_weight(np.zeros(3), 3)

    def test_sample_weight_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            BaseClassifier._validate_sample_weight(np.ones(3), 4)

    def test_not_fitted_error(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.ones((2, 3)))


class TestScore:
    def test_score_is_accuracy(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = DecisionTreeClassifier(max_depth=5, seed=0).fit(X_train, y_train)
        predictions = model.predict(X_test)
        assert model.score(X_test, y_test) == pytest.approx(np.mean(predictions == y_test))
