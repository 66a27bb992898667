"""Equivalence contract of the fused batch-inference engine.

The engine (:mod:`repro.engine`) must reproduce the per-learner loop path of
``BoostHD.decision_function`` / ``OnlineHD.decision_function``: identical
predictions and scores within floating-point tolerance, across dtypes,
encoding row blocks, both aggregation modes, independent and shared
projections.
"""

import contextlib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BoostHD
from repro.core.boosthd import effective_alphas
from repro.engine import CompiledModel, EngineError, compile_model, model_components
from repro.engine import compile as compile_module
from repro.hdc import NonlinearEncoder, OnlineHD

TOTAL_DIM = 120
N_LEARNERS = 4


def make_boosthd(blobs_split, *, aggregation="score", shared=False, **kwargs):
    X_train, _, y_train, _ = blobs_split
    model = BoostHD(
        total_dim=TOTAL_DIM,
        n_learners=N_LEARNERS,
        epochs=2,
        aggregation=aggregation,
        shared_projection=shared,
        seed=3,
        **kwargs,
    )
    return model.fit(X_train, y_train)


def encode_blocks(engine, rows):
    """Shrink the encoding budget so ``engine`` encodes ``rows`` rows a block.

    ``rows=None`` leaves the budget alone: a small call is one block.
    """
    if rows is None:
        return contextlib.nullcontext()
    budget = rows * engine.total_dim * engine.dtype.itemsize
    return mock.patch.object(compile_module, "_ENCODE_BYTES", budget)


class TestBoostHDEquivalence:
    @pytest.mark.parametrize("aggregation", ["score", "vote"])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("block_rows", [None, 1, 7])
    def test_matches_loop_path_float64(self, blobs_split, aggregation, shared, block_rows):
        _, X_test, _, _ = blobs_split
        model = make_boosthd(blobs_split, aggregation=aggregation, shared=shared)
        engine = model.compile(dtype=np.float64)
        with encode_blocks(engine, block_rows):
            scores = engine.decision_function(X_test)
            predictions = engine.predict(X_test)
        np.testing.assert_allclose(scores, model.decision_function(X_test), atol=1e-9)
        assert np.array_equal(predictions, model.predict(X_test))

    @pytest.mark.parametrize("aggregation", ["score", "vote"])
    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_loop_path_float32(self, blobs_split, aggregation, shared):
        _, X_test, _, _ = blobs_split
        model = make_boosthd(blobs_split, aggregation=aggregation, shared=shared)
        engine = model.compile(dtype=np.float32)
        np.testing.assert_allclose(
            engine.decision_function(X_test), model.decision_function(X_test), atol=1e-4
        )
        assert np.array_equal(engine.predict(X_test), model.predict(X_test))

    def test_predict_proba_matches(self, blobs_split):
        _, X_test, _, _ = blobs_split
        model = make_boosthd(blobs_split)
        engine = model.compile(dtype=np.float64)
        np.testing.assert_allclose(
            engine.predict_proba(X_test), model.predict_proba(X_test), atol=1e-9
        )

    def test_encode_matches_per_learner_encoders(self, blobs_split):
        _, X_test, _, _ = blobs_split
        model = make_boosthd(blobs_split)
        engine = model.compile(dtype=np.float64)
        encoded = engine.encode(X_test)
        start = 0
        for learner in model.learners_:
            stop = start + learner.encoder.dim
            np.testing.assert_allclose(
                encoded[:, start:stop], learner.encoder.encode(X_test), atol=1e-9
            )
            start = stop
        assert stop == engine.total_dim

    def test_shared_projection_stacks_to_the_parent_basis(self, blobs_split):
        """Stacking a shared fit's row blocks rebuilds the parent's scaled
        basis and bias bit for bit."""
        model = make_boosthd(blobs_split, shared=True)
        first = model.learners_[0].encoder
        parent = NonlinearEncoder.from_params(
            first.basis.base, first.bias.base, bandwidth=first.bandwidth
        )
        basis, bias = parent.projection_params()
        engine = model.compile(dtype=np.float64)
        np.testing.assert_array_equal(engine._basis2[:-1], (2.0 * basis).T)
        np.testing.assert_array_equal(engine._basis2[-1], bias)
        components = model_components(model)
        np.testing.assert_array_equal(components.basis, basis)
        np.testing.assert_array_equal(components.bias, bias)

    def test_single_sample_vector_input(self, blobs_split):
        _, X_test, _, _ = blobs_split
        model = make_boosthd(blobs_split)
        engine = model.compile(dtype=np.float64)
        np.testing.assert_allclose(
            engine.decision_function(X_test[0]),
            model.decision_function(X_test[0]),
            atol=1e-9,
        )

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        block_rows=st.sampled_from([None, 3, 8]),
        aggregation=st.sampled_from(["score", "vote"]),
        shared=st.booleans(),
    )
    def test_property_equivalence(self, seed, block_rows, aggregation, shared):
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((3, 5)) * 3.0
        X = np.vstack([center + rng.standard_normal((12, 5)) for center in centers])
        y = np.repeat(np.arange(3), 12)
        model = BoostHD(
            total_dim=60,
            n_learners=3,
            epochs=1,
            aggregation=aggregation,
            shared_projection=shared,
            seed=seed,
        ).fit(X, y)
        engine = model.compile(dtype=np.float64)
        with encode_blocks(engine, block_rows):
            scores = engine.decision_function(X)
            predictions = engine.predict(X)
        np.testing.assert_allclose(scores, model.decision_function(X), atol=1e-9)
        assert np.array_equal(predictions, model.predict(X))


class TestOnlineHDEquivalence:
    def test_matches_decision_function(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        model = OnlineHD(dim=100, epochs=2, seed=1).fit(X_train, y_train)
        engine = model.compile(dtype=np.float64)
        np.testing.assert_allclose(
            engine.decision_function(X_test), model.decision_function(X_test), atol=1e-9
        )
        assert np.array_equal(engine.predict(X_test), model.predict(X_test))

    def test_compile_model_function(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        model = OnlineHD(dim=80, epochs=1, seed=0).fit(X_train, y_train)
        engine = compile_model(model, dtype=np.float32)
        assert isinstance(engine, CompiledModel)
        assert np.array_equal(engine.predict(X_test), model.predict(X_test))


class TestDegenerateEnsembleGuard:
    def test_effective_alphas_normal(self):
        alphas = np.array([0.5, 1.5])
        weights, total = effective_alphas(alphas)
        np.testing.assert_allclose(weights, alphas)
        assert total == 2.0

    def test_effective_alphas_degenerate_falls_back_to_uniform(self):
        weights, total = effective_alphas(np.full(4, 1e-10))
        np.testing.assert_allclose(weights, 0.25)
        assert total == 1.0

    def test_all_worse_than_chance_scores_stay_bounded(self, blobs_split):
        """Regression: scores must not be amplified by dividing by ~1e-9.

        When every learner is worse than chance all stored importances are
        the 1e-10 sentinel; the old ``scores / total_alpha`` normalisation
        multiplied the aggregated scores by ~1e9.  The guard now averages the
        learners uniformly, keeping cosine-scale scores in [-1, 1].
        """
        model = make_boosthd(blobs_split)
        model.learner_weights_ = np.full(N_LEARNERS, 1e-10)
        _, X_test, _, _ = blobs_split
        scores = model.decision_function(X_test)
        assert np.all(np.abs(scores) <= 1.0 + 1e-9)
        expected = np.mean(
            [
                learner.decision_function(X_test)[
                    :, np.searchsorted(model.classes_, learner.classes_)
                ]
                for learner in model.learners_
            ],
            axis=0,
        )
        np.testing.assert_allclose(scores, expected, atol=1e-12)

    def test_engine_matches_degenerate_loop_path(self, blobs_split):
        model = make_boosthd(blobs_split)
        model.learner_weights_ = np.full(N_LEARNERS, 1e-10)
        _, X_test, _, _ = blobs_split
        engine = model.compile(dtype=np.float64)
        np.testing.assert_allclose(
            engine.decision_function(X_test), model.decision_function(X_test), atol=1e-9
        )


class TestCompileErrors:
    def test_unfitted_boosthd_raises(self):
        with pytest.raises(EngineError, match="unfitted"):
            compile_model(BoostHD(total_dim=40, n_learners=2))

    def test_unfitted_onlinehd_raises(self):
        with pytest.raises(EngineError, match="unfitted"):
            compile_model(OnlineHD(dim=40))

    def test_unsupported_model_raises(self):
        with pytest.raises(EngineError, match="expected BoostHD or OnlineHD"):
            compile_model(object())

    def test_feature_mismatch_raises(self, blobs_split):
        model = make_boosthd(blobs_split)
        engine = model.compile()
        with pytest.raises(ValueError, match="features"):
            engine.predict(np.zeros((3, 99)))


class TestEncodingBlocks:
    """Calls encode in row blocks within ``_ENCODE_BYTES``; no option sets it."""

    def test_a_call_that_fits_is_one_block(self, blobs_split):
        engine = make_boosthd(blobs_split).compile()
        fits = compile_module._ENCODE_BYTES // (engine.total_dim * engine.dtype.itemsize)
        assert list(engine._blocks(fits)) == [slice(0, fits)]
        assert list(engine._blocks(fits + 1)) == [slice(0, fits), slice(fits, fits + 1)]

    def test_row_steps_cover_the_call_in_order(self):
        steps = list(compile_module._row_steps(10, 8, 24))
        assert [(s.start, s.stop) for s in steps] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert list(compile_module._row_steps(0, 8, 24)) == []

    def test_a_row_wider_than_the_budget_is_a_step_of_its_own(self):
        steps = list(compile_module._row_steps(3, 10**9, 8))
        assert steps == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_budgets_are_read_at_call_time(self, blobs_split, monkeypatch):
        engine = make_boosthd(blobs_split).compile()
        row_bytes = engine.total_dim * engine.dtype.itemsize
        monkeypatch.setattr(compile_module, "_ENCODE_BYTES", 4 * row_bytes)
        monkeypatch.setattr(compile_module, "_STEP_BYTES", 2 * 8)
        assert list(engine._blocks(9)) == [slice(0, 4), slice(4, 8), slice(8, 9)]
        assert list(compile_module._row_steps(5, 8)) == [
            slice(0, 2), slice(2, 4), slice(4, 5)
        ]

    def test_threads_share_one_engine(self, blobs_split, monkeypatch):
        """Engines hold no mutable state: concurrent calls equal serial ones."""
        _, X_test, _, _ = blobs_split
        model = make_boosthd(blobs_split)
        engine = model.compile(dtype=np.float64)
        monkeypatch.setattr(
            compile_module, "_ENCODE_BYTES", 3 * engine.total_dim * engine.dtype.itemsize
        )
        batches = [X_test + shift for shift in (0.0, 0.1, -0.2, 0.3)]
        expected = [engine.decision_function(batch) for batch in batches]
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                for scores, serial, batch in zip(
                    pool.map(engine.decision_function, batches), expected, batches
                ):
                    np.testing.assert_array_equal(scores, serial)
                    np.testing.assert_allclose(
                        scores, model.decision_function(batch), atol=1e-9
                    )

    def test_large_call_peak_stays_within_two_blocks_and_a_step(self, monkeypatch):
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((3, 8)) * 2.5
        X_train = np.vstack([center + rng.standard_normal((30, 8)) for center in centers])
        y_train = np.repeat(np.arange(3), 30)
        model = BoostHD(total_dim=426, n_learners=6, epochs=2, seed=0).fit(X_train, y_train)
        X = rng.standard_normal((4000, 8))
        expected = model.decision_function(X)
        engine = model.compile(dtype=np.float64)
        block = 64 * engine.total_dim * engine.dtype.itemsize
        monkeypatch.setattr(compile_module, "_ENCODE_BYTES", block)
        tracemalloc.start()
        try:
            scores = engine.decision_function(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One block's encoding is 0.2 MB; the whole call's would be 13.6 MB.
        assert peak < 2 * block + compile_module._STEP_BYTES
        np.testing.assert_allclose(scores, expected, atol=1e-9)
        assert np.array_equal(engine.classes_[np.argmax(scores, axis=1)], model.predict(X))
