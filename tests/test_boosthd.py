"""Unit tests for the BoostHD ensemble, partitioning and BaggedHD."""

import numpy as np
import pytest

from repro.baselines.base import NotFittedError
from repro.core import BaggedHD, BoostHD, split_dimensions
from repro.core.partition import partition_encoders
from repro.hdc import NonlinearEncoder


class TestSplitDimensions:
    def test_even_split(self):
        assert split_dimensions(1000, 10) == [100] * 10

    def test_uneven_split_sums_to_total(self):
        chunks = split_dimensions(1003, 10)
        assert sum(chunks) == 1003
        assert max(chunks) - min(chunks) <= 1

    def test_single_learner(self):
        assert split_dimensions(512, 1) == [512]

    def test_more_learners_than_dims_raises(self):
        with pytest.raises(ValueError):
            split_dimensions(5, 10)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            split_dimensions(0, 1)
        with pytest.raises(ValueError):
            split_dimensions(10, 0)


def _encoders(n_features, total_dim, n_learners, *, bandwidth=1.5, shared=False):
    return partition_encoders(
        n_features,
        total_dim,
        n_learners,
        bandwidth=bandwidth,
        rng=np.random.default_rng(0),
        shared=shared,
    )


class TestPartitioners:
    """``partition_encoders``: independent or shared weak-learner encoders."""

    def test_independent_factory_dims(self):
        for shared in (False, True):
            assert [e.dim for e in _encoders(5, 300, 3, shared=shared)] == [100] * 3
            widths = [e.dim for e in _encoders(5, 302, 3, shared=shared)]
            assert widths == [101, 101, 100]

    def test_independent_encoders_differ(self):
        first, second = _encoders(4, 200, 2)
        assert first.basis.base is None and second.basis.base is None
        assert not np.allclose(first.basis, second.basis)

    def test_shared_slices_cover_parent(self):
        """Shared encoders are consecutive row views of one parent."""
        encoders = _encoders(4, 90, 3, shared=True)
        basis, bias = encoders[0].basis.base, encoders[0].bias.base
        assert basis.shape == (90, 4)
        assert all(encoder.basis.base is basis for encoder in encoders)
        assert all(encoder.bias.base is bias for encoder in encoders)
        parent = NonlinearEncoder.from_params(basis, bias, bandwidth=1.5)
        sample = np.array([0.1, 0.2, 0.3, 0.4])
        concatenated = np.concatenate([encoder.encode(sample) for encoder in encoders])
        np.testing.assert_allclose(concatenated, parent.encode(sample))

    def test_bandwidth_forwarded(self):
        for shared in (False, True):
            encoders = _encoders(4, 100, 2, bandwidth=2.5, shared=shared)
            assert [encoder.bandwidth for encoder in encoders] == [2.5, 2.5]

    def test_invalid_bandwidth_raises(self):
        for shared in (False, True):
            with pytest.raises(ValueError):
                _encoders(4, 100, 2, bandwidth=0.0, shared=shared)

    def test_seeds_are_drawn_in_learner_order(self):
        """Independent encoders take one seed each, in learner order, and a
        shared parent takes one; the caller's next draw follows them."""
        rng = np.random.default_rng(0)
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(3)]
        after = [int(rng.integers(0, 2**31 - 1)) for _ in range(3)]
        for shared, used in ((False, 3), (True, 1)):
            rng = np.random.default_rng(0)
            encoders = partition_encoders(
                4, 30, 3, bandwidth=1.5, rng=rng, shared=shared
            )
            assert int(rng.integers(0, 2**31 - 1)) == (seeds + after)[used]
            if shared:
                parent = NonlinearEncoder(4, 30, bandwidth=1.5, rng=seeds[0])
                expected = [parent.basis[start : start + 10] for start in (0, 10, 20)]
            else:
                expected = [
                    NonlinearEncoder(4, 10, bandwidth=1.5, rng=seed).basis
                    for seed in seeds
                ]
            for encoder, basis in zip(encoders, expected):
                np.testing.assert_array_equal(encoder.basis, basis)


class TestBoostHD:
    def test_fits_blobs_accurately(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = BoostHD(total_dim=400, n_learners=4, epochs=3, seed=0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.85

    def test_learner_count_and_dim(self, blobs):
        X, y = blobs
        model = BoostHD(total_dim=300, n_learners=5, epochs=1, seed=0).fit(X, y)
        assert len(model.learners_) == 5
        assert model.learner_dim == 60
        assert all(learner.class_hypervectors_.shape[1] == 60 for learner in model.learners_)

    def test_learner_weights_and_errors_recorded(self, blobs):
        X, y = blobs
        model = BoostHD(total_dim=200, n_learners=4, epochs=1, seed=0).fit(X, y)
        assert model.learner_weights_.shape == (4,)
        assert model.learner_errors_.shape == (4,)
        assert np.all(model.learner_weights_ >= 0)
        assert np.all((model.learner_errors_ >= 0) & (model.learner_errors_ <= 1))

    def test_deterministic_with_seed(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        first = BoostHD(total_dim=200, n_learners=4, epochs=1, seed=9).fit(X_train, y_train)
        second = BoostHD(total_dim=200, n_learners=4, epochs=1, seed=9).fit(X_train, y_train)
        np.testing.assert_array_equal(first.predict(X_test), second.predict(X_test))

    def test_vote_and_score_aggregation_both_work(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        for aggregation in ("vote", "score"):
            model = BoostHD(
                total_dim=300, n_learners=3, epochs=2, aggregation=aggregation, seed=0
            ).fit(X_train, y_train)
            assert model.score(X_test, y_test) > 0.8

    def test_decision_function_shape(self, blobs):
        X, y = blobs
        model = BoostHD(total_dim=200, n_learners=2, epochs=1, seed=0).fit(X, y)
        assert model.decision_function(X).shape == (len(X), 3)

    def test_predict_proba_normalised(self, blobs):
        X, y = blobs
        model = BoostHD(total_dim=200, n_learners=2, epochs=1, seed=0).fit(X, y)
        probabilities = model.predict_proba(X)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_class_hypervectors_concatenate_to_total_dim(self, blobs):
        X, y = blobs
        model = BoostHD(total_dim=240, n_learners=4, epochs=1, seed=0).fit(X, y)
        assert model.class_hypervectors().shape == (3, 240)

    def test_single_learner_degenerates_to_onlinehd_like(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = BoostHD(total_dim=300, n_learners=1, epochs=2, seed=0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.85

    def test_uniform_blend_extremes(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        for blend in (0.0, 1.0):
            model = BoostHD(
                total_dim=200, n_learners=3, epochs=1, uniform_blend=blend, seed=0
            ).fit(X_train, y_train)
            assert model.score(X_test, y_test) > 0.7

    def test_shared_partitioner_supported(self, blobs_split):
        """``shared_projection=True``: the learners slice one projection."""
        X_train, X_test, y_train, y_test = blobs_split
        model = BoostHD(
            total_dim=300, n_learners=3, epochs=2, shared_projection=True, seed=0
        ).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.8
        parent = model.learners_[0].encoder.basis.base
        assert parent is not None and parent.shape == (300, X_train.shape[1])
        for learner in model.learners_:
            assert np.shares_memory(learner.encoder.basis, parent)
            assert learner.encoder.bias.base is model.learners_[0].encoder.bias.base

    def test_indivisible_total_dim_gives_each_learner_its_encoder_width(self, blobs):
        X, y = blobs
        model = BoostHD(total_dim=1005, n_learners=10, epochs=1, seed=0).fit(X, y)
        widths = [learner.encoder.dim for learner in model.learners_]
        assert widths == [101] * 5 + [100] * 5
        assert [learner.dim for learner in model.learners_] == widths
        bagged = BaggedHD(total_dim=1005, n_learners=10, epochs=1, seed=0).fit(X, y)
        assert [learner.dim for learner in bagged.learners_] == widths

    def test_sample_weight_accepted(self, blobs):
        X, y = blobs
        weights = np.random.default_rng(0).uniform(0.5, 1.5, len(y))
        model = BoostHD(total_dim=200, n_learners=2, epochs=1, seed=0)
        model.fit(X, y, sample_weight=weights)
        assert model.score(X, y) > 0.7

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BoostHD(total_dim=100, n_learners=2).predict(np.ones((2, 4)))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            BoostHD(total_dim=5, n_learners=10)
        with pytest.raises(ValueError):
            BoostHD(n_learners=0)
        with pytest.raises(ValueError):
            BoostHD(aggregation="mean")
        with pytest.raises(ValueError):
            BoostHD(uniform_blend=1.5)
        with pytest.raises(ValueError):
            BoostHD(learning_rate=0.0)
        with pytest.raises(ValueError):
            BoostHD(bandwidth=-1.0)

    def test_boosting_reweights_hard_samples(self, blobs):
        # After fitting, learners that came later should have been exposed to
        # re-weighted data; the recorded errors must not be identical across
        # all learners (which would indicate the weights never changed).
        X, y = blobs
        model = BoostHD(total_dim=300, n_learners=5, epochs=1, uniform_blend=0.0, seed=0).fit(X, y)
        assert len(set(np.round(model.learner_errors_, 6))) > 1


class TestBaggedHD:
    def test_fits_blobs(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = BaggedHD(total_dim=300, n_learners=3, epochs=2, seed=0).fit(X_train, y_train)
        assert model.score(X_test, y_test) > 0.85

    def test_learner_count(self, blobs):
        X, y = blobs
        model = BaggedHD(total_dim=200, n_learners=4, epochs=1, seed=0).fit(X, y)
        assert len(model.learners_) == 4

    def test_decision_function_is_vote_fraction(self, blobs):
        X, y = blobs
        model = BaggedHD(total_dim=200, n_learners=4, epochs=1, seed=0).fit(X, y)
        scores = model.decision_function(X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0)

    def test_without_bootstrap(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = BaggedHD(total_dim=200, n_learners=3, epochs=1, bootstrap=False, seed=0).fit(
            X_train, y_train
        )
        assert model.score(X_test, y_test) > 0.8

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            BaggedHD(total_dim=5, n_learners=10)
        with pytest.raises(ValueError):
            BaggedHD(bandwidth=0.0)


class TestBoostHDPartialFit:
    def test_updates_every_learner_and_keeps_alphas(self, blobs_split):
        X_train, _, y_train, _ = blobs_split
        model = BoostHD(total_dim=120, n_learners=4, epochs=1, seed=9).fit(
            X_train, y_train
        )
        alphas = model.learner_weights_.copy()
        snapshots = [learner.class_hypervectors_.copy() for learner in model.learners_]
        model.partial_fit(X_train, y_train)
        np.testing.assert_array_equal(model.learner_weights_, alphas)
        for learner, snapshot in zip(model.learners_, snapshots):
            assert not np.array_equal(learner.class_hypervectors_, snapshot)

    def test_unseen_class_grows_ensemble(self, blobs_split):
        X_train, _, y_train, _ = blobs_split
        model = BoostHD(total_dim=120, n_learners=3, epochs=1, seed=1).fit(
            X_train, y_train
        )
        n_before = len(model.classes_)
        model.partial_fit(X_train[:5], np.full(5, 99))
        assert len(model.classes_) == n_before + 1 and 99 in model.classes_
        for learner in model.learners_:
            assert 99 in learner.classes_
        # Inference still works over the grown class set (loop + fused).
        scores = model.decision_function(X_train[:5])
        assert scores.shape == (5, n_before + 1)
        engine = model.compile(dtype=np.float64)
        np.testing.assert_allclose(
            engine.decision_function(X_train[:5]), scores, atol=1e-9
        )

    def test_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BoostHD(total_dim=40, n_learners=2).partial_fit(
                np.ones((4, 3)), np.zeros(4)
            )
