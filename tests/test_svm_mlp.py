"""Unit tests for the linear SVM and MLP (DNN) baselines."""

import numpy as np
import pytest

from repro.baselines import LinearSVM, MLPClassifier


class TestLinearSVM:
    def test_separates_linear_problem(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-2, 0.5, (50, 3)), rng.normal(2, 0.5, (50, 3))])
        y = np.repeat([0, 1], 50)
        svm = LinearSVM(regularization=1e-3, epochs=20, seed=0).fit(X, y)
        assert svm.score(X, y) > 0.95

    def test_multiclass_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        svm = LinearSVM(regularization=1e-3, epochs=30, seed=0).fit(X_train, y_train)
        assert svm.score(X_test, y_test) > 0.8

    def test_decision_function_shape(self, blobs):
        X, y = blobs
        svm = LinearSVM(epochs=5, seed=0).fit(X, y)
        assert svm.decision_function(X).shape == (len(X), 3)

    def test_weight_matrix_shape_with_intercept(self, blobs):
        X, y = blobs
        svm = LinearSVM(epochs=5, seed=0).fit(X, y)
        assert svm.weights_.shape == (3, X.shape[1] + 1)

    def test_deterministic_with_seed(self, blobs):
        X, y = blobs
        first = LinearSVM(epochs=5, seed=1).fit(X, y)
        second = LinearSVM(epochs=5, seed=1).fit(X, y)
        np.testing.assert_allclose(first.weights_, second.weights_)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            LinearSVM(regularization=0.0)
        with pytest.raises(ValueError):
            LinearSVM(epochs=0)
        with pytest.raises(ValueError):
            LinearSVM(batch_size=0)


class TestMLPClassifier:
    def test_fits_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        mlp = MLPClassifier(hidden_layers=(32, 16), epochs=40, dropout=0.0, seed=0)
        mlp.fit(X_train, y_train)
        assert mlp.score(X_test, y_test) > 0.85

    def test_layer_shapes_match_architecture(self, blobs):
        X, y = blobs
        mlp = MLPClassifier(hidden_layers=(16, 8), epochs=2, seed=0).fit(X, y)
        shapes = [weight.shape for weight in mlp.weights_]
        assert shapes == [(X.shape[1], 16), (16, 8), (8, 3)]

    def test_dropout_path_trains(self, blobs):
        X, y = blobs
        mlp = MLPClassifier(hidden_layers=(16,), lr=1e-2, epochs=40, dropout=0.3, seed=0).fit(X, y)
        assert mlp.score(X, y) > 0.6

    def test_predict_proba_normalised(self, blobs):
        X, y = blobs
        mlp = MLPClassifier(hidden_layers=(16,), epochs=5, seed=0).fit(X, y)
        probabilities = mlp.predict_proba(X)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_deterministic_with_seed(self, blobs):
        X, y = blobs
        first = MLPClassifier(hidden_layers=(16,), epochs=3, seed=7).fit(X, y)
        second = MLPClassifier(hidden_layers=(16,), epochs=3, seed=7).fit(X, y)
        np.testing.assert_allclose(first.weights_[0], second.weights_[0])

    def test_training_reduces_error(self, blobs):
        X, y = blobs
        untrained = MLPClassifier(hidden_layers=(32,), epochs=1, dropout=0.0, seed=0).fit(X, y)
        trained = MLPClassifier(hidden_layers=(32,), epochs=60, dropout=0.0, seed=0).fit(X, y)
        assert trained.score(X, y) >= untrained.score(X, y)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            MLPClassifier(lr=0.0)
        with pytest.raises(ValueError):
            MLPClassifier(epochs=0)
        with pytest.raises(ValueError):
            MLPClassifier(dropout=1.0)
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layers=(0,))
