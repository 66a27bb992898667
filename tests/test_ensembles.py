"""Unit tests for the classical ensemble baselines (RF, AdaBoost, XGBoost-style)."""

import numpy as np
import pytest

from repro.baselines import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)


class TestRandomForest:
    def test_fits_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(X_train, y_train)
        assert forest.score(X_test, y_test) > 0.85

    def test_number_of_trees(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(n_estimators=7, seed=0).fit(X, y)
        assert len(forest.trees_) == 7

    def test_predict_proba_normalised(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(X, y)
        probabilities = forest.predict_proba(X)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_deterministic_with_seed(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        first = RandomForestClassifier(n_estimators=5, seed=3).fit(X_train, y_train)
        second = RandomForestClassifier(n_estimators=5, seed=3).fit(X_train, y_train)
        np.testing.assert_array_equal(first.predict(X_test), second.predict(X_test))

    def test_without_bootstrap(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        forest = RandomForestClassifier(n_estimators=5, bootstrap=False, seed=0).fit(
            X_train, y_train
        )
        assert forest.score(X_test, y_test) > 0.8

    def test_invalid_estimator_count_raises(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


class TestAdaBoost:
    def test_fits_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        boost = AdaBoostClassifier(n_estimators=10, max_depth=2, seed=0).fit(X_train, y_train)
        assert boost.score(X_test, y_test) > 0.85

    def test_boosting_beats_single_stump_on_hard_problem(self):
        # XOR-like structure that a single stump cannot solve.
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (300, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        stump = DecisionTreeClassifier(max_depth=1, seed=0).fit(X, y)
        boost = AdaBoostClassifier(n_estimators=25, max_depth=2, seed=0).fit(X, y)
        assert boost.score(X, y) > stump.score(X, y) + 0.1

    def test_estimator_weights_positive(self, blobs):
        X, y = blobs
        boost = AdaBoostClassifier(n_estimators=5, max_depth=2, seed=0).fit(X, y)
        assert np.all(boost.estimator_weights_ > 0)

    def test_early_stop_on_perfect_learner(self, blobs):
        X, y = blobs
        boost = AdaBoostClassifier(n_estimators=10, max_depth=None, seed=0).fit(X, y)
        # A full-depth tree is perfect on blobs, so boosting stops after it.
        assert len(boost.estimators_) == 1

    def test_decision_function_shape(self, blobs):
        X, y = blobs
        boost = AdaBoostClassifier(n_estimators=5, max_depth=1, seed=0).fit(X, y)
        assert boost.decision_function(X).shape == (len(X), 3)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            AdaBoostClassifier(learning_rate=0.0)


class TestGradientBoosting:
    def test_fits_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        booster = GradientBoostingClassifier(n_estimators=10).fit(X_train, y_train)
        assert booster.score(X_test, y_test) > 0.85

    def test_training_accuracy_improves_with_rounds(self, blobs):
        X, y = blobs
        few = GradientBoostingClassifier(n_estimators=1, learning_rate=0.3).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=15, learning_rate=0.3).fit(X, y)
        assert many.score(X, y) >= few.score(X, y)

    def test_predict_proba_normalised(self, blobs):
        X, y = blobs
        booster = GradientBoostingClassifier(n_estimators=3).fit(X, y)
        probabilities = booster.predict_proba(X)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        assert np.all(probabilities >= 0)

    def test_one_tree_per_class_per_round(self, blobs):
        X, y = blobs
        booster = GradientBoostingClassifier(n_estimators=4).fit(X, y)
        assert len(booster.rounds_) == 4
        assert all(len(round_trees) == 3 for round_trees in booster.rounds_)

    def test_binary_problem(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-1, 1, (40, 3)), rng.normal(1, 1, (40, 3))])
        y = np.repeat([0, 1], 40)
        booster = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        assert booster.score(X, y) > 0.9

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=2.0)
