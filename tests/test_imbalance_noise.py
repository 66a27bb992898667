"""Unit tests for imbalance induction (Eq. 8) and bit-flip noise injection."""

import numpy as np
import pytest

from repro.data import (
    flip_bits_fixed_point,
    imbalance_indices,
    make_imbalanced,
    perturb_model,
)
from repro.hdc import OnlineHD


class TestImbalance:
    def setup_method(self):
        self.y = np.repeat([0, 1, 2], 20)
        self.X = np.arange(len(self.y) * 2, dtype=float).reshape(-1, 2)

    def test_target_class_fully_kept(self):
        indices = imbalance_indices(self.y, target_class=0, keep_fraction=0.3, rng=0)
        kept_labels = self.y[indices]
        assert np.sum(kept_labels == 0) == 20

    def test_other_classes_shrunk(self):
        indices = imbalance_indices(self.y, target_class=0, keep_fraction=0.25, rng=0)
        kept_labels = self.y[indices]
        assert np.sum(kept_labels == 1) == 5
        assert np.sum(kept_labels == 2) == 5

    def test_keep_fraction_one_is_identity(self):
        indices = imbalance_indices(self.y, target_class=1, keep_fraction=1.0, rng=0)
        np.testing.assert_array_equal(indices, np.arange(len(self.y)))

    def test_no_class_disappears(self):
        indices = imbalance_indices(self.y, target_class=2, keep_fraction=0.0, rng=0)
        assert set(np.unique(self.y[indices])) == {0, 1, 2}

    def test_make_imbalanced_consistent_pairs(self):
        X_new, y_new = make_imbalanced(self.X, self.y, target_class=0, keep_fraction=0.5, rng=0)
        assert len(X_new) == len(y_new)
        # Every kept row must be one of the original rows with its own label.
        for row, label in zip(X_new, y_new):
            original = int(row[0] // 2)
            assert self.y[original] == label

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            imbalance_indices(self.y, 0, 1.5)

    def test_missing_target_class_raises(self):
        with pytest.raises(ValueError):
            imbalance_indices(self.y, 99, 0.5)


class TestBitflipArrays:
    def test_zero_probability_is_identity(self):
        values = np.random.default_rng(0).standard_normal(100)
        np.testing.assert_array_equal(flip_bits_fixed_point(values, 0.0), values)

    def test_small_probability_small_change(self):
        values = np.random.default_rng(0).standard_normal(2000)
        perturbed = flip_bits_fixed_point(values, 1e-4, rng=0)
        changed = np.mean(perturbed != values)
        assert changed < 0.05

    def test_probability_one_changes_everything(self):
        values = np.random.default_rng(0).standard_normal(50)
        perturbed = flip_bits_fixed_point(values, 1.0, rng=0)
        assert np.any(perturbed != values)

    def test_higher_probability_more_distortion(self):
        values = np.random.default_rng(1).standard_normal(3000)
        low = np.abs(flip_bits_fixed_point(values, 1e-4, rng=0) - values).mean()
        high = np.abs(flip_bits_fixed_point(values, 1e-2, rng=0) - values).mean()
        assert high > low

    def test_fixed_point_perturbation_bounded(self):
        values = np.random.default_rng(0).standard_normal(500)
        perturbed = flip_bits_fixed_point(values, 0.01, rng=0)
        # Values stay within twice the representable range.
        assert np.max(np.abs(perturbed)) < 4 * np.max(np.abs(values)) + 1.0

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            flip_bits_fixed_point(np.ones(3), -0.1)
        with pytest.raises(ValueError):
            flip_bits_fixed_point(np.ones(3), 1.5)

    def test_deterministic_with_seed(self):
        values = np.random.default_rng(0).standard_normal(200)
        first = flip_bits_fixed_point(values, 0.01, rng=42)
        second = flip_bits_fixed_point(values, 0.01, rng=42)
        np.testing.assert_array_equal(first, second)


class TestPerturbModel:
    def test_original_model_untouched(self, blobs):
        X, y = blobs
        model = OnlineHD(dim=100, epochs=1, seed=0).fit(X, y)
        original = model.class_hypervectors_.copy()
        perturb_model(model, 0.05, rng=0)
        np.testing.assert_array_equal(model.class_hypervectors_, original)

    def test_perturbed_copy_differs(self, blobs):
        X, y = blobs
        model = OnlineHD(dim=100, epochs=1, seed=0).fit(X, y)
        noisy = perturb_model(model, 0.1, rng=0)
        assert not np.allclose(noisy.class_hypervectors_, model.class_hypervectors_)

    def test_perturbed_model_still_predicts(self, blobs):
        X, y = blobs
        model = OnlineHD(dim=100, epochs=1, seed=0).fit(X, y)
        noisy = perturb_model(model, 1e-3, rng=0)
        assert noisy.predict(X).shape == y.shape

    def test_mlp_parameters_perturbed(self, blobs):
        from repro.baselines import MLPClassifier

        X, y = blobs
        mlp = MLPClassifier(hidden_layers=(8,), epochs=1, seed=0).fit(X, y)
        noisy = perturb_model(mlp, 0.05, rng=0)
        assert not np.allclose(noisy.weights_[0], mlp.weights_[0])

    def test_boosthd_learners_perturbed(self, blobs):
        from repro.core import BoostHD

        X, y = blobs
        model = BoostHD(total_dim=100, n_learners=2, epochs=1, seed=0).fit(X, y)
        noisy = perturb_model(model, 0.1, rng=0)
        assert not np.allclose(
            noisy.learners_[0].class_hypervectors_, model.learners_[0].class_hypervectors_
        )

    def test_unfitted_model_raises(self):
        with pytest.raises(ValueError):
            perturb_model(OnlineHD(dim=10), 0.1)
