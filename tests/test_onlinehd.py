"""Unit tests for the OnlineHD classifier, single-pass (``epochs=0``) included."""

import numpy as np
import pytest

from repro.baselines.base import NotFittedError
from repro.hdc import NonlinearEncoder, OnlineHD
from repro.serving import ModelRegistry


class TestCentroidHD:
    """The single-pass centroid classifier: ``OnlineHD(epochs=0)``."""

    def test_fits_and_predicts_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = OnlineHD(dim=400, epochs=0, seed=0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.8

    def test_class_hypervector_shape(self, blobs_split):
        X_train, _, y_train, _ = blobs_split
        model = OnlineHD(dim=300, epochs=0, seed=0).fit(X_train, y_train)
        assert model.class_hypervectors_.shape == (3, 300)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            OnlineHD(dim=100, epochs=0).predict(np.ones((2, 4)))

    def test_decision_function_shape(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        model = OnlineHD(dim=200, epochs=0, seed=0).fit(X_train, y_train)
        assert model.decision_function(X_test).shape == (len(X_test), 3)

    def test_sample_weight_changes_model(self, blobs):
        X, y = blobs
        uniform = OnlineHD(dim=200, epochs=0, seed=0).fit(X, y)
        weights = np.where(y == 0, 10.0, 1.0)
        weighted = OnlineHD(dim=200, epochs=0, seed=0).fit(X, y, sample_weight=weights)
        assert not np.allclose(uniform.class_hypervectors_, weighted.class_hypervectors_)


class TestOnlineHD:
    def test_fits_and_predicts_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = OnlineHD(dim=400, epochs=3, seed=0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.85

    def test_adaptive_refit_improves_or_matches_centroid(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        encoder = NonlinearEncoder(X_train.shape[1], 300, rng=0)
        centroid = OnlineHD(dim=300, epochs=0, encoder=encoder, seed=0).fit(X_train, y_train)
        online = OnlineHD(dim=300, epochs=5, encoder=encoder, seed=0).fit(X_train, y_train)
        assert online.score(X_train, y_train) >= centroid.score(X_train, y_train) - 1e-9

    def test_deterministic_with_seed(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        first = OnlineHD(dim=200, epochs=2, seed=5).fit(X_train, y_train)
        second = OnlineHD(dim=200, epochs=2, seed=5).fit(X_train, y_train)
        np.testing.assert_array_equal(first.predict(X_test), second.predict(X_test))

    def test_zero_epochs_is_pure_bundling(self, blobs_split):
        """Each class hypervector is the (weighted) sum of its encoded samples."""
        X_train, _, y_train, _ = blobs_split
        for weights in (None, np.where(y_train == 0, 10.0, 1.0)):
            model = OnlineHD(dim=150, epochs=0, seed=0).fit(X_train, y_train, weights)
            encoded = model.encoder.encode(X_train)
            if weights is not None:
                encoded = (weights * len(weights) / weights.sum())[:, None] * encoded
            centroids = np.stack([encoded[y_train == c].sum(axis=0) for c in range(3)])
            np.testing.assert_allclose(model.class_hypervectors_, centroids, rtol=1e-12)

    def test_predict_proba_rows_sum_to_one(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        model = OnlineHD(dim=200, epochs=2, seed=0).fit(X_train, y_train)
        probabilities = model.predict_proba(X_test)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        assert np.all(probabilities >= 0.0)

    def test_predictions_are_known_classes(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        model = OnlineHD(dim=200, epochs=2, seed=0).fit(X_train, y_train)
        assert set(np.unique(model.predict(X_test))) <= set(model.classes_)

    def test_string_labels_supported(self, blobs):
        X, y = blobs
        labels = np.array(["neutral", "stress", "amusement"])[y]
        model = OnlineHD(dim=200, epochs=2, seed=0).fit(X, labels)
        assert set(np.unique(model.predict(X))) <= set(labels)

    def test_sample_weight_bootstrap_path(self, blobs):
        X, y = blobs
        weights = np.random.default_rng(0).uniform(0.1, 1.0, size=len(y))
        model = OnlineHD(dim=150, epochs=2, bootstrap=True, seed=0)
        model.fit(X, y, sample_weight=weights)
        assert model.score(X, y) > 0.7

    def test_sample_weight_scaled_path(self, blobs):
        X, y = blobs
        weights = np.random.default_rng(0).uniform(0.1, 1.0, size=len(y))
        model = OnlineHD(dim=150, epochs=2, bootstrap=False, seed=0)
        model.fit(X, y, sample_weight=weights)
        assert model.score(X, y) > 0.7

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            OnlineHD(dim=100).predict(np.ones((2, 3)))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            OnlineHD(dim=100, lr=0.0)
        with pytest.raises(ValueError):
            OnlineHD(dim=100, epochs=-1)
        with pytest.raises(ValueError):
            OnlineHD(dim=100, bandwidth=-1.0)

    def test_mismatched_xy_raises(self):
        with pytest.raises(ValueError):
            OnlineHD(dim=50).fit(np.ones((10, 3)), np.zeros(9))

    def test_nan_features_raise(self):
        X = np.ones((10, 3))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            OnlineHD(dim=50).fit(X, np.zeros(10))

    def test_two_class_problem(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-2, 1, (30, 4)), rng.normal(2, 1, (30, 4))])
        y = np.repeat([0, 1], 30)
        model = OnlineHD(dim=300, epochs=3, seed=0).fit(X, y)
        assert model.score(X, y) > 0.9


class TestPartialFit:
    def test_one_epoch_matches_one_adaptive_epoch_of_fit(self, blobs_split):
        """fit(epochs=k) + partial_fit == fit(epochs=k+1), bit for bit."""
        X_train, _, y_train, _ = blobs_split
        for k in (0, 2):
            reference = OnlineHD(dim=80, epochs=k + 1, seed=7).fit(X_train, y_train)
            incremental = OnlineHD(dim=80, epochs=k, seed=7).fit(X_train, y_train)
            incremental.partial_fit(X_train, y_train)
            np.testing.assert_array_equal(
                incremental.class_hypervectors_, reference.class_hypervectors_
            )

    def test_repeated_partial_fit_keeps_accuracy(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = OnlineHD(dim=100, epochs=1, seed=0).fit(X_train, y_train)
        baseline = model.score(X_test, y_test)
        for _ in range(3):
            model.partial_fit(X_train, y_train)
        assert model.score(X_test, y_test) >= baseline - 0.1

    def test_unseen_class_grows_model(self, blobs_split):
        X_train, _, y_train, _ = blobs_split
        model = OnlineHD(dim=80, epochs=1, seed=1).fit(X_train, y_train)
        n_before = len(model.classes_)
        novel = np.full(5, 99)
        model.partial_fit(X_train[:5], novel)
        assert len(model.classes_) == n_before + 1
        assert 99 in model.classes_
        assert model.class_hypervectors_.shape[0] == n_before + 1
        # The new class is reachable: its own samples now score highest on it.
        assert set(model.predict(X_train[:5])) <= set(model.classes_)

    def test_partial_fit_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            OnlineHD(dim=50).partial_fit(np.ones((4, 3)), np.zeros(4))

    def test_feature_mismatch_raises(self, blobs_split):
        X_train, _, y_train, _ = blobs_split
        model = OnlineHD(dim=50, epochs=0, seed=0).fit(X_train, y_train)
        with pytest.raises(ValueError, match="features"):
            model.partial_fit(np.ones((4, X_train.shape[1] + 1)), np.zeros(4))


def test_an_explicit_encoder_states_the_width_and_bandwidth(blobs, tmp_path):
    """With an encoder, ``dim`` and ``bandwidth`` are the encoder's, after a
    fit and after a registry round trip."""
    X, y = blobs
    encoder = NonlinearEncoder(X.shape[1], 64, bandwidth=1.0, rng=0)
    model = OnlineHD(dim=50, bandwidth=3.0, encoder=encoder, epochs=1, seed=0)
    assert (model.dim, model.bandwidth) == (64, 1.0)
    model.fit(X, y)
    assert model.class_hypervectors_.shape == (3, 64)
    assert (model.dim, model.bandwidth) == (64, 1.0)
    registry = ModelRegistry(tmp_path)
    registry.save("m", model)
    loaded = registry.load("m")
    assert (loaded.dim, loaded.bandwidth, loaded.encoder.bandwidth) == (64, 1.0, 1.0)


class TestEncoderFromParams:
    def test_round_trip_is_bit_identical(self, blobs):
        X, _ = blobs
        original = NonlinearEncoder(X.shape[1], 64, bandwidth=1.7, rng=0)
        rebuilt = NonlinearEncoder.from_params(
            original.basis, original.bias, bandwidth=original.bandwidth
        )
        np.testing.assert_array_equal(rebuilt.encode(X), original.encode(X))
        assert rebuilt.dim == original.dim
        assert rebuilt.in_features == original.in_features

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            NonlinearEncoder.from_params(np.ones(4), np.ones(4))
        with pytest.raises(ValueError):
            NonlinearEncoder.from_params(np.ones((4, 2)), np.ones(3))
        with pytest.raises(ValueError):
            NonlinearEncoder.from_params(np.ones((4, 2)), np.ones(4), bandwidth=0.0)
