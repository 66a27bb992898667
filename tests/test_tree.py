"""Unit tests for decision trees (classification and gradient regression)."""

import numpy as np
import pytest

from repro.baselines import DecisionTreeClassifier, GradientTreeRegressor


class TestDecisionTreeClassifier:
    def test_fits_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        tree = DecisionTreeClassifier(max_depth=5, seed=0).fit(X_train, y_train)
        assert tree.score(X_test, y_test) > 0.85

    def test_perfect_on_training_data_without_depth_limit(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert tree.score(X, y) == 1.0

    def test_max_depth_respected(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=2, seed=0).fit(X, y)
        assert tree.depth() <= 2

    def test_stump_separates_simple_threshold(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(int)
        stump = DecisionTreeClassifier(max_depth=1, seed=0).fit(X, y)
        assert stump.score(X, y) == 1.0

    def test_predict_proba_rows_sum_to_one(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y)
        probabilities = tree.predict_proba(X)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_sample_weight_shifts_decision(self):
        # Two overlapping points; weighting decides which label wins.
        X = np.array([[0.0], [0.0]])
        y = np.array([0, 1])
        heavy_zero = DecisionTreeClassifier(seed=0).fit(X, y, sample_weight=np.array([10.0, 1.0]))
        heavy_one = DecisionTreeClassifier(seed=0).fit(X, y, sample_weight=np.array([1.0, 10.0]))
        assert heavy_zero.predict(np.array([[0.0]]))[0] == 0
        assert heavy_one.predict(np.array([[0.0]]))[0] == 1

    def test_min_samples_leaf_limits_splits(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(min_samples_leaf=20, seed=0).fit(X, y)
        deep = DecisionTreeClassifier(min_samples_leaf=1, seed=0).fit(X, y)
        assert tree.root_.count_leaves() <= deep.root_.count_leaves()

    def test_constant_features_produce_leaf(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert tree.root_.is_leaf

    def test_single_class_is_leaf(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        y = np.zeros(10)
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert tree.root_.is_leaf
        assert np.all(tree.predict(X) == 0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features="log2")

    def test_max_features_sqrt(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        tree = DecisionTreeClassifier(max_features="sqrt", seed=0).fit(X_train, y_train)
        assert tree.score(X_test, y_test) > 0.7


class TestGradientTreeRegressor:
    def test_fits_piecewise_constant_target(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        target = np.where(X[:, 0] > 0.5, 2.0, -1.0)
        # Squared loss: gradient = prediction - target with prediction 0.
        tree = GradientTreeRegressor(max_depth=2, reg_lambda=0.0).fit(X, -target, np.ones(100))
        predictions = tree.predict(X)
        assert np.mean((predictions - target) ** 2) < 0.05

    def test_leaf_value_is_regularised_newton_step(self):
        X = np.zeros((4, 1))
        gradient = np.array([1.0, 1.0, 1.0, 1.0])
        hessian = np.ones(4)
        tree = GradientTreeRegressor(max_depth=1, reg_lambda=1.0).fit(X, gradient, hessian)
        assert tree.predict(np.zeros((1, 1)))[0] == pytest.approx(-4.0 / 5.0)

    def test_gamma_suppresses_weak_splits(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 1))
        gradient = rng.normal(0, 0.01, 50)
        tree = GradientTreeRegressor(max_depth=3, gamma=10.0).fit(X, gradient, np.ones(50))
        assert tree.root_.is_leaf

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            GradientTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            GradientTreeRegressor(reg_lambda=-1.0)

    def test_shape_validation(self):
        tree = GradientTreeRegressor()
        with pytest.raises(ValueError):
            tree.fit(np.ones((5, 2)), np.ones(4), np.ones(5))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientTreeRegressor().predict(np.ones((2, 2)))
