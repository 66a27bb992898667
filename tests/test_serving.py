"""Contract tests for the streaming serving layer (:mod:`repro.serving`).

The load-bearing guarantees:

* **Incremental featurization** — ``StreamSession`` equals batch
  ``extract_features`` to <= 1e-9 for *arbitrary* window/step/smoothing
  configurations (property-based, hypothesis).
* **Micro-batching** — the scheduler's coalesced fused calls produce the
  same predictions as scoring every window alone, while batching per its
  ``max_batch`` / ``max_wait`` policy.
* **Registry** — save -> load -> (compile) reproduces predictions
  byte-identically; quantized artifacts round-trip deterministically.
* **Adaptation** — ``partial_fit``-based feedback updates the served model
  and invalidates/recompiles the engine; the drift monitor flags margin
  collapse.
"""

import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BoostHD
from repro.data import CHANNELS, SignalSimulator, WESAD_STATES
from repro.data.features import extract_features
from repro.hdc import OnlineHD
from repro.serving import adaptation
from repro.serving import (
    AdaptiveModel,
    DriftMonitor,
    MicroBatchScheduler,
    ModelRegistry,
    RegistryError,
    StreamingService,
    StreamSession,
)

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def fitted_models(blobs_split):
    X_train, _, y_train, _ = blobs_split
    boost = BoostHD(total_dim=120, n_learners=4, epochs=1, seed=3).fit(X_train, y_train)
    online = OnlineHD(dim=90, epochs=1, seed=5).fit(X_train, y_train)
    return boost, online


# --------------------------------------------------------------------- session
class TestStreamSessionEquivalence:
    def _batch_reference(self, stream, window, step, smoothing):
        n = stream.shape[1]
        starts = range(0, n - window + 1, step)
        windows = np.stack([stream[:, s : s + window] for s in starts])
        return extract_features(windows, smoothing_window=smoothing)

    @settings(max_examples=40, deadline=None)
    @given(
        window=st.integers(2, 48),
        step=st.integers(1, 60),
        smoothing=st.integers(1, 40),
        channels=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_incremental_matches_batch_features(
        self, window, step, smoothing, channels, seed
    ):
        """Property: per-sample featurization == batch pipeline, any geometry."""
        rng = np.random.default_rng(seed)
        n = window + 3 * step + 7
        # High offset + drift: the regime where naive accumulators lose digits.
        stream = 33.0 + rng.standard_normal((channels, n)) * 2.0
        session = StreamSession(
            "subject",
            n_channels=channels,
            window_samples=window,
            step_samples=step,
            smoothing_window=smoothing,
        )
        ready = session.push(stream)
        expected = self._batch_reference(stream, window, step, smoothing)
        assert len(ready) == len(expected)
        assert [r.window_index for r in ready] == list(range(len(expected)))
        if len(ready):
            produced = np.stack([r.features for r in ready])
            np.testing.assert_allclose(produced, expected, atol=1e-9, rtol=0)

    def test_sample_by_sample_equals_chunked_push(self):
        rng = np.random.default_rng(0)
        stream = rng.standard_normal((3, 200))
        one = StreamSession("a", n_channels=3, window_samples=50, step_samples=20)
        two = StreamSession("b", n_channels=3, window_samples=50, step_samples=20)
        ready_chunked = one.push(stream)
        ready_single = []
        for column in stream.T:
            ready_single.extend(two.push(column))
        assert len(ready_chunked) == len(ready_single)
        for lhs, rhs in zip(ready_chunked, ready_single):
            np.testing.assert_array_equal(lhs.features, rhs.features)
            assert lhs.end_sample == rhs.end_sample

    @pytest.mark.slow
    def test_long_stream_stays_exact_past_resync(self):
        """The rolling sum re-sync keeps drift bounded on long streams."""
        from repro.serving import session as session_module

        rng = np.random.default_rng(1)
        n = 3 * session_module._RESYNC_INTERVAL + 137
        stream = 1e6 + rng.standard_normal((1, n))
        window, step = 64, 64
        session = StreamSession("s", n_channels=1, window_samples=window, step_samples=step)
        ready = session.push(stream)
        expected = self._batch_reference(stream, window, step, 30)
        produced = np.stack([r.features for r in ready])
        np.testing.assert_allclose(produced, expected, atol=1e-9, rtol=0)

    def test_window_layout_and_metadata(self):
        """Every window carries min, max, mean and std per channel."""
        rng = np.random.default_rng(2)
        session = StreamSession("s", n_channels=2, window_samples=10)
        ready = session.push(rng.standard_normal((2, 25)))
        assert len(ready) == 2
        assert ready[0].features.shape == (8,)
        assert ready[0].session_id == "s"
        assert ready[0].end_sample == 9 and ready[1].end_sample == 19
        assert session.windows_emitted == 2

    def test_overlap_bounds_open_windows(self):
        session = StreamSession("s", n_channels=1, window_samples=40, step_samples=10)
        session.push(np.zeros((1, 500)))
        assert len(session._open) <= 4

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError):
            StreamSession("s", n_channels=0, window_samples=10)
        with pytest.raises(ValueError):
            StreamSession("s", n_channels=1, window_samples=0)
        with pytest.raises(ValueError):
            StreamSession("s", n_channels=1, window_samples=10, step_samples=0)

    def test_invalid_samples_raise(self):
        session = StreamSession("s", n_channels=3, window_samples=10)
        with pytest.raises(ValueError):
            session.push(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            session.push(np.full((3, 2), np.nan))


# ------------------------------------------------------------------- scheduler
class TestMicroBatchScheduler:
    def test_batched_predictions_match_individual_scoring(self, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        engine = boost.compile(dtype=np.float64)
        scheduler = MicroBatchScheduler(engine, max_batch=8, max_wait=0.0)
        for row, features in enumerate(X_test):
            scheduler.submit(f"session-{row % 3}", row, features)
        predictions = scheduler.flush()
        assert len(predictions) == len(X_test)
        expected = engine.predict(X_test)
        for row, prediction in enumerate(predictions):
            assert prediction.label == expected[row]
            assert prediction.session_id == f"session-{row % 3}"
            assert prediction.window_index == row
            assert 1 <= prediction.batch_size <= 8

    def test_max_batch_triggers_release(self, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        _, online = fitted_models
        scheduler = MicroBatchScheduler(
            online.compile(dtype=np.float64), max_batch=4, max_wait=1e9
        )
        released = []
        for row in range(11):
            scheduler.submit("s", row, X_test[row % len(X_test)])
            released.extend(scheduler.pump())
        assert len(released) == 8  # two full batches of 4; 3 still pending
        assert scheduler.pending == 3
        assert all(p.batch_size == 4 for p in released)
        released.extend(scheduler.flush())
        assert len(released) == 11 and scheduler.pending == 0

    def test_max_wait_releases_partial_batch(self, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        _, online = fitted_models
        now = [0.0]
        scheduler = MicroBatchScheduler(
            online.compile(dtype=np.float64),
            max_batch=64,
            max_wait=0.5,
            clock=lambda: now[0],
        )
        scheduler.submit("s", 0, X_test[0])
        assert scheduler.pump() == []  # too fresh
        now[0] = 0.6
        released = scheduler.pump()
        assert len(released) == 1
        assert released[0].batch_size == 1
        assert released[0].queue_seconds == pytest.approx(0.6)

    def test_stats_accumulate(self, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        scheduler = MicroBatchScheduler(boost.compile(dtype=np.float64), max_batch=8)
        for row, features in enumerate(X_test):
            scheduler.submit("s", row, features)
        scheduler.flush()
        stats = scheduler.stats
        assert stats.windows_scored == len(X_test)
        assert stats.batches == int(np.ceil(len(X_test) / 8))
        assert 0 < stats.latency_percentile(50) <= stats.latency_percentile(99)
        assert stats.mean_batch_size > 1

    def test_loop_path_model_is_a_valid_scorer(self, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        scheduler = MicroBatchScheduler(boost, max_batch=16)
        for row, features in enumerate(X_test[:5]):
            scheduler.submit("s", row, features)
        predictions = scheduler.flush()
        assert [p.label for p in predictions] == list(boost.predict(X_test[:5]))

    def test_invalid_arguments_raise(self, fitted_models):
        boost, _ = fitted_models
        with pytest.raises(ValueError):
            MicroBatchScheduler(boost, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(boost, max_wait=-1.0)
        with pytest.raises(TypeError):
            MicroBatchScheduler(object())
        scheduler = MicroBatchScheduler(boost)
        with pytest.raises(ValueError):
            scheduler.submit("s", 0, np.zeros((2, 2)))

    def test_scorer_failure_requeues_batch(self, blobs_split, fitted_models):
        """Regression: a raising scorer must not silently drop the batch."""
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        engine = boost.compile(dtype=np.float64)

        class Flaky:
            classes_ = engine.classes_

            def __init__(self):
                self.fail = False

            def decision_function(self, X):
                if self.fail:
                    raise RuntimeError("transient scorer outage")
                return engine.decision_function(X)

        scorer = Flaky()
        scheduler = MicroBatchScheduler(scorer, max_batch=4, max_wait=0.0)
        for row in range(6):
            scheduler.submit("s", row, X_test[row])
        scorer.fail = True
        with pytest.raises(RuntimeError, match="transient scorer outage"):
            scheduler.flush()
        # Every window survived the failure, in order, and it was counted.
        assert scheduler.pending == 6
        assert scheduler.stats.score_failures == 1
        assert scheduler.stats.windows_scored == 0
        scorer.fail = False
        predictions = scheduler.flush()
        assert [p.window_index for p in predictions] == list(range(6))
        expected = engine.predict(X_test[:6])
        assert [p.label for p in predictions] == list(expected)
        assert scheduler.pending == 0

    def test_requeued_windows_keep_enqueue_time(self, blobs_split, fitted_models):
        """Failed windows keep their original enqueue time for latency stats."""
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        engine = boost.compile(dtype=np.float64)
        calls = {"n": 0}

        class FailsOnce:
            classes_ = engine.classes_

            def decision_function(self, X):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("boom")
                return engine.decision_function(X)

        now = [10.0]
        scheduler = MicroBatchScheduler(
            FailsOnce(), max_batch=8, max_wait=0.0, clock=lambda: now[0]
        )
        scheduler.submit("s", 0, X_test[0])
        with pytest.raises(RuntimeError):
            scheduler.flush()
        now[0] = 12.5
        (prediction,) = scheduler.flush()
        assert prediction.queue_seconds == pytest.approx(2.5)

    def test_prediction_scores_are_detached_copies(self, blobs_split, fitted_models):
        """Regression: scores must not alias the shared (B, k) batch array."""
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        engine = boost.compile(dtype=np.float64)
        scheduler = MicroBatchScheduler(engine, max_batch=8, max_wait=0.0)
        for row in range(5):
            scheduler.submit("s", row, X_test[row])
        predictions = scheduler.flush()
        assert all(p.scores.base is None for p in predictions)  # own memory
        assert all(not p.scores.flags.writeable for p in predictions)
        with pytest.raises(ValueError):
            predictions[0].scores[0] = 123.0

    def test_prediction_equality_and_hash(self, blobs_split, fitted_models):
        """Regression: comparing predictions must not raise for k > 1 scores."""
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        engine = boost.compile(dtype=np.float64)

        import dataclasses

        scheduler = MicroBatchScheduler(engine, max_batch=4, max_wait=0.0)
        for row in range(3):
            scheduler.submit("s", row, X_test[row])
        first = scheduler.flush()
        # The auto-generated dataclass __eq__ compared the k>1 ndarray with
        # `==` and raised "truth value of an array is ambiguous"; these
        # comparisons must all simply work.
        twin = dataclasses.replace(first[0], scores=first[0].scores.copy())
        assert first[0] == twin
        assert first[0] != first[1]
        assert first[0] != dataclasses.replace(first[0], label=-999)
        assert first[0] != "not a prediction"
        assert hash(first[0]) == hash(twin)
        assert len(set(first) | {twin}) == len(first)  # usable in sets
        # How a window was served is not part of what it scored.
        served_differently = dataclasses.replace(
            first[0],
            queue_seconds=first[0].queue_seconds + 1.0,
            score_seconds=first[0].score_seconds + 1.0,
            batch_size=first[0].batch_size + 5,
        )
        assert first[0] == served_differently
        assert hash(first[0]) == hash(served_differently)


# -------------------------------------------------------------------- registry
class TestModelRegistry:
    def test_boosthd_round_trip_is_byte_identical(self, tmp_path, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        registry = ModelRegistry(tmp_path)
        version = registry.save("stress", boost, metadata={"dataset": "blobs"})
        assert registry.latest("stress") == version
        loaded = registry.load("stress")
        np.testing.assert_array_equal(
            loaded.decision_function(X_test), boost.decision_function(X_test)
        )
        np.testing.assert_array_equal(loaded.predict(X_test), boost.predict(X_test))

    def test_compiled_round_trip_is_byte_identical(self, tmp_path, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        registry = ModelRegistry(tmp_path)
        registry.save("stress", boost)
        original = boost.compile()
        restored = registry.load_compiled("stress")
        np.testing.assert_array_equal(
            restored.decision_function(X_test), original.decision_function(X_test)
        )

    def test_shared_projection_layout_survives(self, tmp_path, blobs_split):
        """A shared-projection fit round-trips bitwise, its choice with it."""
        X_train, X_test, y_train, _ = blobs_split
        model = BoostHD(
            total_dim=120, n_learners=4, epochs=1, shared_projection=True, seed=3
        ).fit(X_train, y_train)
        registry = ModelRegistry(tmp_path)
        registry.save("shared", model)
        assert registry.describe("shared").params["shared_projection"] is True
        loaded = registry.load("shared")
        assert loaded.shared_projection is True
        np.testing.assert_array_equal(
            loaded.decision_function(X_test), model.decision_function(X_test)
        )
        restored = registry.load_compiled("shared")
        np.testing.assert_array_equal(
            restored.decision_function(X_test),
            model.compile().decision_function(X_test),
        )

    def test_retired_shared_layout_manifest_is_refused(self, tmp_path, fitted_models):
        """A manifest of the retired shared layout (one root projection
        sliced per learner) is refused by name at every read; one that
        recorded the independent layout (``false``) still loads."""
        boost, _ = fitted_models
        registry = ModelRegistry(tmp_path)
        registry.save("old", boost)
        manifest = tmp_path / "old" / "v1" / "meta.json"
        meta = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**meta, "shared_projection": False}))
        assert registry.load("old").shared_projection is False
        manifest.write_text(json.dumps({**meta, "shared_projection": True}))
        for read in (registry.describe, registry.load, registry.load_compiled):
            with pytest.raises(RegistryError, match="shared_projection"):
                read("old")

    def test_every_hyperparameter_survives_a_round_trip(self, tmp_path, blobs_split):
        """Every constructor parameter but ``encoder`` is saved and loaded.

        Each model is built with a non-default value for every parameter,
        so a parameter the registry forgets fails here.  A loaded shared
        model refits as one: its learners get row views of one parent.
        """
        X_train, X_test, y_train, _ = blobs_split
        values = {
            BoostHD: dict(
                total_dim=130, n_learners=4, lr=0.05, epochs=1, bootstrap=False,
                batch_size=16, aggregation="vote", uniform_blend=0.25,
                bandwidth=2.0, shared_projection=True, learning_rate=0.5, seed=7,
            ),
            OnlineHD: dict(
                dim=70, lr=0.05, epochs=1, bootstrap=False, batch_size=16,
                bandwidth=2.0, seed=7,
            ),
        }
        registry = ModelRegistry(tmp_path)
        for model_class, kwargs in values.items():
            parameters = inspect.signature(model_class).parameters
            assert set(kwargs) == set(parameters) - {"encoder"}
            for name, value in kwargs.items():
                assert value != parameters[name].default, name
            model = model_class(**kwargs).fit(X_train, y_train)
            registry.save(model_class.__name__, model)
            loaded = registry.load(model_class.__name__)
            for name, value in kwargs.items():
                assert getattr(loaded, name) == value, name
            np.testing.assert_array_equal(
                loaded.decision_function(X_test), model.decision_function(X_test)
            )
        refit = registry.load("BoostHD").fit(X_train, y_train)
        parent = refit.learners_[0].encoder.basis.base
        assert parent is not None and parent.shape == (130, X_train.shape[1])
        for learner in refit.learners_:
            assert learner.encoder.basis.base is parent
            assert np.shares_memory(learner.encoder.basis, parent)

    def test_indivisible_total_dim_keeps_each_learner_width(self, tmp_path, blobs_split):
        """Learner ``dim`` is its encoder's width, before and after a load."""
        X_train, X_test, y_train, _ = blobs_split
        model = BoostHD(total_dim=1005, n_learners=10, epochs=1, seed=0)
        model.fit(X_train, y_train)
        widths = [101] * 5 + [100] * 5
        assert [learner.dim for learner in model.learners_] == widths
        registry = ModelRegistry(tmp_path)
        registry.save("ragged", model)
        loaded = registry.load("ragged")
        assert [learner.dim for learner in loaded.learners_] == widths
        assert [learner.encoder.dim for learner in loaded.learners_] == widths
        np.testing.assert_array_equal(
            registry.load_compiled("ragged").decision_function(X_test),
            model.compile().decision_function(X_test),
        )

    @pytest.mark.parametrize(
        "name",
        ["<outside>", "..", "a/b", ".x", "", "m\x00"],
        ids=["absolute", "dotdot", "slash", "hidden", "empty", "nul"],
    )
    def test_every_entry_point_refuses_a_bad_name(self, tmp_path, fitted_models, name):
        """One name rule at every entry point, before any file is read.

        The absolute name points at a loadable model stored outside the
        registry root, which joining the name onto the root would reach.
        """
        boost, _ = fitted_models
        ModelRegistry(tmp_path / "outside").save("planted", boost)
        if name == "<outside>":
            name = str(tmp_path / "outside" / "planted")
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("m", boost)
        for call in (
            lambda: registry.save(name, boost),
            lambda: registry.versions(name),
            lambda: registry.latest(name),
            lambda: registry.describe(name, 1),
            lambda: registry.load(name),
            lambda: registry.load_compiled(name, precision="fixed16"),
        ):
            with pytest.raises(RegistryError, match="invalid model name"):
                call()
        assert registry.models() == ["m"]

    def test_onlinehd_round_trip_and_partial_fit(self, tmp_path, blobs_split, fitted_models):
        X_train, X_test, y_train, _ = blobs_split
        _, online = fitted_models
        registry = ModelRegistry(tmp_path)
        registry.save("single", online)
        loaded = registry.load("single")
        np.testing.assert_array_equal(
            loaded.decision_function(X_test), online.decision_function(X_test)
        )
        # A registry-loaded model must be adaptable without retraining.
        loaded.partial_fit(X_train[:10], y_train[:10])

    def test_versioning_and_inventory(self, tmp_path, fitted_models):
        boost, online = fitted_models
        registry = ModelRegistry(tmp_path)
        assert registry.models() == []
        assert registry.versions("stress") == []
        assert registry.save("stress", boost) == 1
        assert registry.save("stress", boost) == 2
        assert registry.save("other", online) == 1
        assert registry.versions("stress") == [1, 2]
        assert registry.latest("stress") == 2
        # A hidden directory is no model, whatever it holds.
        (tmp_path / ".git" / "v1").mkdir(parents=True)
        (tmp_path / ".git" / "v1" / "meta.json").write_text("{}")
        assert registry.models() == ["other", "stress"]
        record = registry.describe("stress")
        assert record.version == 2 and record.kind == "boosthd"

    @pytest.mark.parametrize("scheme", ["fixed16", "fixed8"])
    def test_quantized_artifacts_round_trip_deterministically(
        self, tmp_path, blobs_split, fitted_models, scheme
    ):
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        registry = ModelRegistry(tmp_path)
        registry.save("quantized", boost, quantize=scheme)
        first = registry.load("quantized")
        # Quantisation changes the model once; re-publishing the dequantised
        # model must be a fixed point (stable codes, identical predictions).
        registry.save("requantized", first, quantize=scheme)
        second = registry.load("requantized")
        np.testing.assert_array_equal(
            first.decision_function(X_test), second.decision_function(X_test)
        )
        assert registry.describe("quantized").quantize == scheme

    def test_errors(self, tmp_path, fitted_models):
        boost, _ = fitted_models
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="no versions"):
            registry.load("missing")
        with pytest.raises(RegistryError, match="unfitted"):
            registry.save("unfit", BoostHD(total_dim=40, n_learners=2))
        with pytest.raises(RegistryError, match="expected BoostHD or OnlineHD"):
            registry.save("bad", object())
        with pytest.raises(RegistryError, match="quantize"):
            registry.save("bad", boost, quantize="fixed4")
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.save("../escape", boost)
        registry.save("stress", boost)
        with pytest.raises(RegistryError, match="v9"):
            registry.load_compiled("stress", 9)


# ------------------------------------------------------------------ adaptation
class TestDriftMonitor:
    def test_margins(self):
        scores = np.array([[0.9, 0.1, 0.3], [0.2, 0.6, 0.5]])
        np.testing.assert_allclose(DriftMonitor.margins(scores), [0.6, 0.1])
        np.testing.assert_allclose(DriftMonitor.margins(scores[1]), [0.1])

    def test_drift_flagged_on_margin_collapse(self, monkeypatch):
        monkeypatch.setattr(adaptation, "_WINDOW", 10)
        monkeypatch.setattr(adaptation, "_BASELINE_WINDOW", 10)
        monitor = DriftMonitor()
        confident = np.tile([0.9, 0.1], (10, 1))
        monitor.update(confident)
        assert monitor.baseline_margin == pytest.approx(0.8)
        assert not monitor.drifted
        collapsed = np.tile([0.52, 0.48], (10, 1))
        monitor.update(collapsed)
        assert monitor.rolling_margin == pytest.approx(0.04)
        assert monitor.drifted

    def test_reset_baseline(self, monkeypatch):
        monkeypatch.setattr(adaptation, "_BASELINE_WINDOW", 4)
        monitor = DriftMonitor()
        monitor.update(np.tile([0.9, 0.1], (4, 1)))
        assert monitor.baseline_margin is not None
        monitor.reset_baseline()
        assert monitor.baseline_margin is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="two classes"):
            DriftMonitor.margins(np.ones((3, 1)))


class TestAdaptiveModel:
    def test_scores_match_plain_engine_and_feed_monitor(self, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        served = AdaptiveModel(boost)
        scores = served.decision_function(X_test)
        labels = served.classes_[np.argmax(scores, axis=1)]
        np.testing.assert_array_equal(labels, boost.predict(X_test))
        np.testing.assert_array_equal(
            scores, boost.compile().decision_function(X_test)
        )
        assert served.monitor.observed == len(X_test)

    def test_feedback_updates_model_and_recompiles(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        model = OnlineHD(dim=90, epochs=1, seed=5).fit(X_train, y_train)
        served = AdaptiveModel(model)
        before = served.compiled
        baseline_scores = served.compiled.decision_function(X_test).copy()
        served.feedback(X_test, y_test)
        assert served.feedback_samples == len(X_test)
        after = served.compiled
        assert after is not before
        assert served.recompiles == 2
        # The engine serves the *adapted* hypervectors.
        np.testing.assert_array_equal(
            after.decision_function(X_test),
            model.compile().decision_function(X_test),
        )
        assert not np.array_equal(
            after.decision_function(X_test), baseline_scores
        )

    def test_boosthd_feedback_reaches_every_learner(self, blobs_split, fitted_models):
        X_train, _, y_train, _ = blobs_split
        boost = BoostHD(total_dim=120, n_learners=4, epochs=1, seed=9).fit(
            X_train, y_train
        )
        served = AdaptiveModel(boost)
        snapshots = [learner.class_hypervectors_.copy() for learner in boost.learners_]
        served.feedback(X_train[:15], y_train[:15])
        for learner, snapshot in zip(boost.learners_, snapshots):
            assert not np.array_equal(learner.class_hypervectors_, snapshot)

    def test_scheduler_accepts_adaptive_model(self, blobs_split, fitted_models):
        _, X_test, _, _ = blobs_split
        boost, _ = fitted_models
        served = AdaptiveModel(boost)
        scheduler = MicroBatchScheduler(served, max_batch=8)
        for row, features in enumerate(X_test[:6]):
            scheduler.submit("s", row, features)
        predictions = scheduler.flush()
        assert [p.label for p in predictions] == list(boost.predict(X_test[:6]))

    def test_rejects_unsupported_model(self):
        with pytest.raises(TypeError):
            AdaptiveModel(object())


# --------------------------------------------------------------------- service
class TestStreamingService:
    def test_end_to_end_stream_matches_offline_pipeline(self, blobs_split):
        """Simulator -> sessions -> scheduler == extract_features -> engine."""
        rng = np.random.default_rng(0)
        n_features = len(CHANNELS) * 4
        centers = rng.standard_normal((2, n_features)) * 3.0
        X_train = np.vstack([c + rng.standard_normal((30, n_features)) for c in centers])
        y_train = np.repeat(np.arange(2), 30)
        model = OnlineHD(dim=120, epochs=1, seed=0).fit(X_train, y_train)
        engine = model.compile(dtype=np.float64)

        simulator = SignalSimulator(sampling_rate=8, window_seconds=4, rng=7)
        window = simulator.samples_per_window
        service = StreamingService(
            engine,
            n_channels=len(CHANNELS),
            window_samples=window,
            max_batch=4,
            max_wait=1e9,
        )
        subjects = ["s0", "s1", "s2"]
        for subject in subjects:
            service.open_session(subject)

        streams = {
            subject: np.concatenate(
                list(
                    simulator.stream_chunks(
                        WESAD_STATES[index % 3],
                        chunk_samples=window // 2,
                        n_chunks=6,
                    )
                ),
                axis=1,
            )
            for index, subject in enumerate(subjects)
        }
        predictions = []
        for subject, stream in streams.items():
            predictions.extend(service.push(subject, stream))
        predictions.extend(service.drain())

        assert len(predictions) == 3 * 3  # 3 windows per subject
        for prediction in predictions:
            stream = streams[prediction.session_id]
            start = prediction.window_index * window
            reference = extract_features(
                stream[None, :, start : start + window]
            )
            expected = engine.predict(reference)[0]
            assert prediction.label == expected

    def test_session_management(self, fitted_models):
        boost, _ = fitted_models
        service = StreamingService(
            boost.compile(dtype=np.float64), n_channels=2, window_samples=10
        )
        service.open_session("a")
        with pytest.raises(ValueError, match="already open"):
            service.open_session("a")
        with pytest.raises(KeyError, match="no open session"):
            service.push("ghost", np.zeros(2))
        service.close_session("a")
        with pytest.raises(KeyError, match="no open session"):
            service.close_session("a")

    def test_transform_applies_training_scaler(self, mini_wesad):
        """Serving must score *scaled* features, like the training pipeline."""
        X_train, X_test, y_train, _ = mini_wesad.split(test_fraction=0.3, rng=0)
        model = OnlineHD(dim=150, epochs=2, seed=0).fit(X_train, y_train)
        engine = model.compile(dtype=np.float64)

        simulator = SignalSimulator(sampling_rate=8, window_seconds=8, rng=11)
        window = simulator.samples_per_window
        assert mini_wesad.scaler is not None  # generated datasets keep it
        service = StreamingService(
            engine,
            n_channels=len(CHANNELS),
            window_samples=window,
            max_batch=4,
            max_wait=1e9,
            transform=mini_wesad.scaler.transform,
        )
        service.open_session("s")
        stream = np.concatenate(
            list(simulator.stream_chunks(WESAD_STATES[0], chunk_samples=window, n_chunks=2)),
            axis=1,
        )
        predictions = service.push("s", stream) + service.drain()
        assert len(predictions) == 2
        for prediction in predictions:
            start = prediction.window_index * window
            raw = extract_features(stream[None, :, start : start + window])
            expected = engine.predict(mini_wesad.scaler.transform(raw))[0]
            assert prediction.label == expected
