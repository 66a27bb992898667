"""Equivalence and property contracts for the fused training engine.

The fast paths in :mod:`repro.engine.train` claim three different strengths
of equivalence, each pinned here:

* **Bit-equality** — the exact trainer (default) and the per-learner
  training encoding must reproduce the reference implementation
  (``np.add.at`` bundling + the per-sample loop on
  ``OnlineHD._adaptive_pass``, selectable with ``trainer="reference"``)
  byte for byte: same ``class_hypervectors_``, same ``learner_weights_``,
  same predictions, across every weighting mode, both entry points,
  independent and shared projections and any problem shape.
* **Bounded memory** — a fit holds one learner's encoded block at a time.
* **Properties** — the incremental norm cache of
  :class:`~repro.engine.train.ExactPassState` always matches freshly
  computed norms, and the sort-based bundling always matches the
  ``np.add.at`` scatter (hypothesis-driven).
* **Accuracy parity** — the opt-in mini-batch trainer is *not* bit-equal by
  design; it must stay within a small accuracy band of the exact path on
  Table I-style datasets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BoostHD
from repro.engine.train import (
    ExactPassState,
    adaptive_pass_exact,
    adaptive_pass_minibatch,
    bundle_classes,
    encode_ensemble,
)
from repro.hdc import NonlinearEncoder, OnlineHD


# --------------------------------------------------------------------- helpers
def _weight_modes(n_samples: int):
    """The three weighting modes of the bit-equality matrix."""
    rng = np.random.default_rng(11)
    weights = rng.uniform(0.2, 1.0, n_samples)
    weights /= weights.sum()
    return {
        "unweighted": (None, True),
        "weighted bootstrap": (weights, True),
        "weighted scaled": (weights, False),
    }


#: ``BoostHD(shared_projection=...)`` per partition id of the grids below.
SHARED = {"independent": False, "shared": True}


def _assert_boosthd_identical(fast: BoostHD, reference: BoostHD, X):
    np.testing.assert_array_equal(fast.learner_weights_, reference.learner_weights_)
    np.testing.assert_array_equal(fast.learner_errors_, reference.learner_errors_)
    for fast_learner, ref_learner in zip(fast.learners_, reference.learners_):
        np.testing.assert_array_equal(
            fast_learner.class_hypervectors_, ref_learner.class_hypervectors_
        )
    np.testing.assert_array_equal(fast.predict(X), reference.predict(X))


@pytest.fixture(scope="module")
def train_problem():
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((3, 6)) * 2.5
    X = np.vstack([center + rng.standard_normal((30, 6)) for center in centers])
    y = np.repeat(np.arange(3), 30)
    order = rng.permutation(len(y))
    return X[order], y[order]


# --------------------------------------------------- OnlineHD exact bit-equality
class TestOnlineHDExactEquivalence:
    @pytest.mark.parametrize("mode", ["unweighted", "weighted bootstrap", "weighted scaled"])
    def test_fit_bit_identical_to_reference(self, train_problem, mode):
        X, y = train_problem
        weights, bootstrap = _weight_modes(len(y))[mode]
        fast = OnlineHD(dim=90, epochs=3, bootstrap=bootstrap, seed=5)
        reference = OnlineHD(dim=90, epochs=3, bootstrap=bootstrap, seed=5)
        fast.fit(X, y, sample_weight=weights)
        reference.fit(X, y, sample_weight=weights, trainer="reference")
        np.testing.assert_array_equal(
            fast.class_hypervectors_, reference.class_hypervectors_
        )
        np.testing.assert_array_equal(fast.predict(X), reference.predict(X))

    @pytest.mark.parametrize("mode", ["unweighted", "weighted bootstrap", "weighted scaled"])
    def test_partial_fit_bit_identical_to_reference(self, train_problem, mode):
        """After a fit in each weighting mode, the (unweighted) partial_fit
        epoch matches the reference loop."""
        X, y = train_problem
        weights, bootstrap = _weight_modes(len(y))[mode]
        fast = OnlineHD(dim=90, epochs=2, bootstrap=bootstrap, seed=9)
        reference = OnlineHD(dim=90, epochs=2, bootstrap=bootstrap, seed=9)
        fast.fit(X, y, sample_weight=weights)
        reference.fit(X, y, sample_weight=weights)
        fast.partial_fit(X, y)
        reference.partial_fit(X, y, trainer="reference")
        np.testing.assert_array_equal(
            fast.class_hypervectors_, reference.class_hypervectors_
        )

    def test_fit_then_partial_fit_continuation_unchanged(self, train_problem):
        """fit(epochs=k) + partial_fit still replays fit(epochs=k+1) exactly."""
        X, y = train_problem
        full = OnlineHD(dim=70, epochs=3, seed=2).fit(X, y)
        stepped = OnlineHD(dim=70, epochs=2, seed=2).fit(X, y)
        stepped.partial_fit(X, y)
        np.testing.assert_array_equal(
            stepped.class_hypervectors_, full.class_hypervectors_
        )

    def test_zero_epochs_bundling_only_bit_identical(self, train_problem):
        X, y = train_problem
        fast = OnlineHD(dim=60, epochs=0, seed=1).fit(X, y)
        reference = OnlineHD(dim=60, epochs=0, seed=1).fit(X, y, trainer="reference")
        np.testing.assert_array_equal(
            fast.class_hypervectors_, reference.class_hypervectors_
        )

    def test_invalid_trainer_rejected(self, train_problem):
        X, y = train_problem
        with pytest.raises(ValueError, match="trainer"):
            OnlineHD(dim=40, epochs=1, seed=0).fit(X, y, trainer="warp")

    def test_minibatch_trainer_requires_batch_size(self, train_problem):
        X, y = train_problem
        with pytest.raises(ValueError, match="batch_size"):
            OnlineHD(dim=40, epochs=1, seed=0).fit(X, y, trainer="minibatch")

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            OnlineHD(dim=40, batch_size=0)

    def test_encoded_shape_mismatch_rejected(self, train_problem):
        X, y = train_problem
        model = OnlineHD(dim=40, epochs=1, seed=0)
        with pytest.raises(ValueError, match="encoded"):
            model.fit(X, y, encoded=np.zeros((len(y), 41)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encoded_non_finite_rejected(self, train_problem, bad):
        """Non-finite pre-encoded input fails like non-finite X."""
        X, y = train_problem
        encoded = np.ones((len(y), 40))
        encoded[3, 7] = bad
        with pytest.raises(ValueError, match="encoded contains NaN or infinite"):
            OnlineHD(dim=40, epochs=1, seed=0).fit(X, y, encoded=encoded)

    def test_explicit_encoded_input_bit_identical(self, train_problem):
        """Pre-encoding with the model's own encoder changes nothing."""
        X, y = train_problem
        plain = OnlineHD(dim=80, epochs=2, seed=4).fit(X, y)
        encoder = NonlinearEncoder(X.shape[1], 80, bandwidth=1.5, rng=4)
        primed = OnlineHD(dim=80, epochs=2, encoder=encoder, seed=4)
        primed.fit(X, y, encoded=encoder.encode(X))
        np.testing.assert_array_equal(
            primed.class_hypervectors_, plain.class_hypervectors_
        )


# ----------------------------------------------------- BoostHD bit-equality grid
class TestBoostHDEquivalence:
    @pytest.mark.parametrize("mode", ["unweighted", "weighted bootstrap", "weighted scaled"])
    @pytest.mark.parametrize("partition", ["independent", "shared"])
    def test_fit_bit_identical_to_reference(self, train_problem, mode, partition):
        X, y = train_problem
        weights, bootstrap = _weight_modes(len(y))[mode]

        def build():
            return BoostHD(
                total_dim=100,
                n_learners=4,
                epochs=2,
                bootstrap=bootstrap,
                shared_projection=SHARED[partition],
                seed=13,
            )

        fast = build().fit(X, y, sample_weight=weights)
        reference = build().fit(X, y, sample_weight=weights, trainer="reference")
        _assert_boosthd_identical(fast, reference, X)

    @pytest.mark.parametrize("mode", ["unweighted", "weighted bootstrap", "weighted scaled"])
    @pytest.mark.parametrize("partition", ["independent", "shared"])
    def test_partial_fit_bit_identical_to_reference(self, train_problem, mode, partition):
        """After a fit in each weighting mode, the (unweighted) partial_fit
        epoch matches the reference loop."""
        X, y = train_problem
        weights, bootstrap = _weight_modes(len(y))[mode]

        def build():
            return BoostHD(
                total_dim=100,
                n_learners=4,
                epochs=1,
                bootstrap=bootstrap,
                shared_projection=SHARED[partition],
                seed=21,
            ).fit(X, y, sample_weight=weights)

        fast = build()
        reference = build()
        fast.partial_fit(X[:40], y[:40])
        reference.partial_fit(X[:40], y[:40], trainer="reference")
        _assert_boosthd_identical(fast, reference, X)

    def test_uneven_dimension_split_bit_identical(self, train_problem):
        """total_dim not divisible by n_learners: ragged blocks still stack."""
        X, y = train_problem
        fast = BoostHD(total_dim=103, n_learners=4, epochs=1, seed=3).fit(X, y)
        reference = BoostHD(total_dim=103, n_learners=4, epochs=1, seed=3).fit(
            X, y, trainer="reference"
        )
        _assert_boosthd_identical(fast, reference, X)

    @settings(max_examples=25, deadline=None)
    @given(
        n_samples=st.integers(10, 120),
        n_features=st.integers(1, 48),
        n_learners=st.integers(1, 8),
        extra_dim=st.integers(0, 300),
        partition=st.sampled_from(["independent", "shared"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_any_shape_bit_identical_to_reference(
        self, n_samples, n_features, n_learners, extra_dim, partition, seed
    ):
        """fit and partial_fit match the reference at any problem shape.

        Every learner's block is its own encoder's ``encode(X)``, the call
        the reference makes, so no BLAS blocking property is involved: a
        column block of a wider product, which a stacked encoding would
        rely on, differs from the narrow product in its last bits for many
        shapes.
        """
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_samples, n_features))
        y = rng.integers(0, 3, n_samples)
        total_dim = n_learners + extra_dim

        def build():
            return BoostHD(
                total_dim=total_dim,
                n_learners=n_learners,
                epochs=1,
                shared_projection=SHARED[partition],
                seed=seed,
            )

        fast = build().fit(X, y)
        reference = build().fit(X, y, trainer="reference")
        _assert_boosthd_identical(fast, reference, X)
        fast.partial_fit(X[:7], y[:7])
        reference.partial_fit(X[:7], y[:7], trainer="reference")
        _assert_boosthd_identical(fast, reference, X)

    def test_bad_trainer_rejected_before_encoding(self, train_problem, monkeypatch):
        """Invalid trainer arguments fail before the ensemble encoding runs."""
        from repro.engine.train import encoding as encoding_module

        X, y = train_problem

        def exploding_encode(*args, **kwargs):
            raise AssertionError("encoded before validating trainer")

        monkeypatch.setattr(encoding_module, "encode_ensemble", exploding_encode)
        with pytest.raises(ValueError, match="trainer"):
            BoostHD(total_dim=100, n_learners=4, seed=0).fit(X, y, trainer="warp")
        with pytest.raises(ValueError, match="batch_size"):
            BoostHD(total_dim=100, n_learners=4, seed=0).fit(
                X, y, trainer="minibatch"
            )

    @pytest.mark.slow
    def test_full_paper_scale_fit_bit_identical_to_reference(self):
        """The FULL paper fit (180,000 adaptive steps) matches the reference loop.

        Same data, split and model as the benchmark's paper workload: a
        last-bit drift anywhere in training shows here, while label parity
        on held-out rows would not see it.
        """
        from repro import load_wesad

        X_train, _, y_train, _ = load_wesad().split(test_fraction=0.2, rng=0)

        def fit(**options):
            model = BoostHD(total_dim=4000, n_learners=10, epochs=20, seed=1)
            return model.fit(X_train, y_train, **options)

        fast, reference = fit(), fit(trainer="reference")
        for fast_learner, ref_learner in zip(fast.learners_, reference.learners_):
            assert (
                fast_learner.class_hypervectors_.tobytes()
                == ref_learner.class_hypervectors_.tobytes()
            )
        assert fast.learner_weights_.tobytes() == reference.learner_weights_.tobytes()
        assert fast.learner_errors_.tobytes() == reference.learner_errors_.tobytes()

    def test_compiled_engine_agrees_after_fused_training(self, train_problem):
        """Fused-trained models compile into the inference engine as before."""
        X, y = train_problem
        model = BoostHD(total_dim=100, n_learners=4, epochs=1, seed=8).fit(X, y)
        engine = model.compile(dtype=np.float64)
        np.testing.assert_array_equal(engine.predict(X), model.predict(X))


# ------------------------------------------------------ per-learner encoding
def _shared_slices(n_features):
    parent = NonlinearEncoder(n_features, 80, bandwidth=1.5, rng=7)
    return [parent.slice(0, 30), parent.slice(30, 60), parent.slice(60, 80)]


ENCODER_MIXES = {
    "independent": lambda n: [
        NonlinearEncoder(n, dim, bandwidth=1.5, rng=seed)
        for seed, dim in enumerate((25, 25, 30))
    ],
    "shared slices": _shared_slices,
    # each block carries its own encoder's bandwidth scale
    "mixed bandwidths": lambda n: [
        NonlinearEncoder(n, 20, bandwidth=0.7, rng=3),
        NonlinearEncoder(n, 35, bandwidth=2.4, rng=4),
    ],
}


@pytest.mark.parametrize("mix", sorted(ENCODER_MIXES))
def test_encode_ensemble_is_the_encoders_own_encoding(train_problem, mix):
    X, _ = train_problem
    for encoder in ENCODER_MIXES[mix](X.shape[1]):
        block = encode_ensemble(encoder, X)
        assert type(block) is np.ndarray
        np.testing.assert_array_equal(block, encoder.encode(X))


class TestFitMemory:
    @pytest.mark.parametrize("partition", ["independent", "shared"])
    def test_fit_holds_one_learner_block_at_a_time(self, partition):
        """fit and partial_fit peak at a few learner blocks, not the ensemble.

        A block is one learner's ``(rows, D/L)`` float64 encoding.  Holding
        every learner's block (plus a full-width projection transient) would
        peak above 20 blocks here; encoding each learner when its turn comes
        keeps the traced peak within 6.
        """
        import tracemalloc

        rng = np.random.default_rng(0)
        X = rng.standard_normal((600, 20))
        y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 0.5)
        total_dim, n_learners = 2000, 10
        model = BoostHD(
            total_dim=total_dim,
            n_learners=n_learners,
            epochs=1,
            shared_projection=SHARED[partition],
            seed=0,
        )

        def traced_peak(call, rows):
            block = rows * (total_dim // n_learners) * np.dtype(np.float64).itemsize
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak / block

        fit_blocks = traced_peak(lambda: model.fit(X, y), len(X))
        assert fit_blocks <= 6, f"fit peaked at {fit_blocks:.1f} learner blocks"
        partial_blocks = traced_peak(lambda: model.partial_fit(X[:200], y[:200]), 200)
        assert partial_blocks <= 6, (
            f"partial_fit peaked at {partial_blocks:.1f} learner blocks"
        )

    @pytest.mark.parametrize("partition", ["independent", "shared"])
    def test_previous_block_is_released_before_next_encode(
        self, partition, monkeypatch
    ):
        """No learner's block is alive when the next learner encodes.

        The traced-peak bound above has room for one leaked block; this
        pins the release itself, for fit and partial_fit, by holding a weak
        reference to every block an encoder returns.
        """
        import weakref

        blocks: list[weakref.ref] = []

        def tracking(original):
            def encode(self, features):
                alive = sum(ref() is not None for ref in blocks)
                assert alive == 0, f"{alive} earlier block(s) alive at the next encode"
                encoded = original(self, features)
                blocks.append(weakref.ref(encoded))
                return encoded

            return encode

        monkeypatch.setattr(
            NonlinearEncoder, "encode", tracking(NonlinearEncoder.encode)
        )
        rng = np.random.default_rng(0)
        X = rng.standard_normal((120, 12))
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5)
        total_dim, n_learners = 400, 5
        model = BoostHD(
            total_dim=total_dim,
            n_learners=n_learners,
            epochs=1,
            shared_projection=SHARED[partition],
            seed=0,
        )
        for call, rows in ((model.fit, len(X)), (model.partial_fit, 40)):
            blocks.clear()
            call(X[:rows], y[:rows])
            assert len(blocks) == n_learners
            assert all(ref() is None for ref in blocks)


# ------------------------------------------------------------ hypothesis suites
@settings(max_examples=30, deadline=None)
@given(
    n_samples=st.integers(2, 40),
    n_classes=st.integers(1, 5),
    dim=st.integers(1, 48),
    weighted=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_bundling_matches_add_at_scatter(n_samples, n_classes, dim, weighted, seed):
    """Sort + segment-reduce bundling == np.add.at, bit for bit."""
    rng = np.random.default_rng(seed)
    encoded = rng.standard_normal((n_samples, dim))
    labels = rng.integers(0, n_classes, n_samples)
    scale = rng.uniform(0.1, 3.0, n_samples) if weighted else None

    expected = np.zeros((n_classes, dim))
    legacy_scale = np.ones(n_samples) if scale is None else scale
    np.add.at(expected, labels, legacy_scale[:, None] * encoded)

    actual = bundle_classes(np.zeros((n_classes, dim)), encoded, labels, scale)
    np.testing.assert_array_equal(actual, expected)


@settings(max_examples=30, deadline=None)
@given(
    n_classes=st.integers(2, 6),
    dim=st.integers(2, 40),
    n_updates=st.integers(1, 30),
    seed=st.integers(0, 2**31 - 1),
)
def test_exact_state_norm_cache_matches_fresh_norms(n_classes, dim, n_updates, seed):
    """After any sequence of adaptive updates, cached norms == recomputed norms.

    This is the load-bearing invariant of the exact fast path: the pass
    refreshes an updated row's norm with the same per-row reduction
    ``np.linalg.norm(model, axis=1)`` applies, so the cache must match a
    fresh full recomputation exactly — not approximately — or the scores
    would drift off the reference loop.
    """
    rng = np.random.default_rng(seed)
    model = rng.standard_normal((n_classes, dim))
    encoded = rng.standard_normal((8, dim))
    labels = rng.integers(0, n_classes, 8)
    state = ExactPassState(model, encoded)
    adaptive_pass_exact(
        model, encoded, labels, rng.integers(0, 8, n_updates),
        rng.uniform(0.2, 2.0, 8), 0.05, state,
    )
    np.testing.assert_array_equal(state.class_norms, np.linalg.norm(model, axis=1))
    np.testing.assert_array_equal(
        state.sample_norms, np.linalg.norm(encoded, axis=1)
    )


@settings(max_examples=60, deadline=None)
@given(
    n_samples=st.integers(1, 30),
    n_classes=st.integers(1, 5),
    dim=st.integers(1, 32),
    n_zero_rows=st.integers(0, 2),
    magnitude=st.sampled_from([1.0, 1e-7]),
    layout=st.sampled_from(["contiguous", "column slice", "fortran"]),
    mode=st.sampled_from(["unweighted", "weighted bootstrap", "weighted scaled"]),
    n_epochs=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_exact_pass_matches_reference_pass_property(
    n_samples, n_classes, dim, n_zero_rows, magnitude, layout, mode, n_epochs, seed
):
    """adaptive_pass_exact == the reference loop for arbitrary inputs.

    Covers what the exact pass's Python-float bookkeeping must get right:
    all-zero class rows (as ``OnlineHD._extend_classes`` creates) and a
    ``magnitude`` small enough that ``|h|·|C_k|`` falls under the 1e-12
    clip, score ties broken to the first index, a single class, ``dim``
    down to 1, a strided column slice of a wider encoding or a
    Fortran-ordered one (``fit(encoded=...)`` takes either), bootstrap orders with repeated samples and scaled
    updates drawn as ``OnlineHD._train_epochs`` draws them, and one state
    threaded through several epochs.
    """
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(1, 5)) if layout == "column slice" else 0
    wide = rng.standard_normal((n_samples, dim + 2 * offset)) * magnitude
    encoded = wide[:, offset : offset + dim]
    if layout == "fortran":
        encoded = np.asfortranarray(encoded)
    labels = rng.integers(0, n_classes, n_samples)
    base = rng.standard_normal((n_classes, dim)) * magnitude
    base[:n_zero_rows] = 0.0
    weights = rng.uniform(0.2, 1.0, n_samples)
    weights /= weights.sum()

    fast = base.copy()
    reference = base.copy()
    learner = OnlineHD(dim=dim, lr=0.05)
    state = ExactPassState(fast, encoded)
    for _ in range(n_epochs):
        if mode == "weighted bootstrap":
            order = rng.choice(n_samples, size=n_samples, p=weights)
            update_scale = np.ones(n_samples)
        else:
            order = rng.permutation(n_samples)
            update_scale = (
                weights * n_samples if mode == "weighted scaled" else np.ones(n_samples)
            )
        state = adaptive_pass_exact(
            fast, encoded, labels, order, update_scale, 0.05, state
        )
        learner._adaptive_pass(reference, encoded, labels, order, update_scale)
        np.testing.assert_array_equal(fast, reference)


def test_exact_pass_rejects_state_of_other_arrays():
    """A state's cached row views write into its own model, never another's."""
    rng = np.random.default_rng(0)
    model = rng.standard_normal((3, 8))
    encoded = rng.standard_normal((5, 8))
    args = (np.zeros(5, dtype=int), np.arange(5), np.ones(5), 0.05)
    state = adaptive_pass_exact(model, encoded, *args)
    assert adaptive_pass_exact(model, encoded, *args, state) is state
    other_model, other_encoded = model.copy(), encoded.copy()
    for pair in ((other_model, encoded), (model, other_encoded)):
        with pytest.raises(ValueError, match="different model or encoded"):
            adaptive_pass_exact(*pair, *args, state)
    np.testing.assert_array_equal(other_model, model)


# --------------------------------------------------------- mini-batch trainer
class TestMinibatchTrainer:
    def test_batch_size_one_matches_exact_model_closely(self, train_problem):
        """B=1 keeps per-sample sequencing; only the scoring kernel differs."""
        X, y = train_problem
        exact = OnlineHD(dim=80, epochs=2, seed=6).fit(X, y)
        chunked = OnlineHD(dim=80, epochs=2, seed=6, batch_size=1).fit(X, y)
        np.testing.assert_allclose(
            chunked.class_hypervectors_, exact.class_hypervectors_, rtol=1e-8
        )

    def test_invalid_batch_size_rejected_by_pass(self):
        with pytest.raises(ValueError, match="batch_size"):
            adaptive_pass_minibatch(
                np.zeros((2, 4)), np.zeros((3, 4)), np.zeros(3, dtype=int),
                np.arange(3), np.ones(3), 0.05, batch_size=0,
            )

    def test_accuracy_parity_on_table1_datasets(self, suite_datasets):
        """Mini-batch training stays within 0.1 accuracy of the exact path.

        Runs the paper's model on the shared miniature Table I datasets
        (WESAD + Nurse Stress); this is the gate that lets ``batch_size``
        trade bit-equality for throughput.
        """
        for name, dataset in suite_datasets.items():
            X_train, X_test, y_train, y_test = dataset.split(test_fraction=0.3, rng=3)
            exact = BoostHD(total_dim=200, n_learners=4, epochs=4, seed=0)
            exact.fit(X_train, y_train)
            chunked = BoostHD(
                total_dim=200, n_learners=4, epochs=4, seed=0, batch_size=16
            )
            chunked.fit(X_train, y_train)
            exact_accuracy = exact.score(X_test, y_test)
            chunked_accuracy = chunked.score(X_test, y_test)
            assert abs(exact_accuracy - chunked_accuracy) <= 0.1, (
                f"{name}: exact {exact_accuracy:.3f} vs "
                f"mini-batch {chunked_accuracy:.3f}"
            )

    def test_partial_fit_uses_minibatch_when_configured(self, train_problem):
        """batch_size models adapt with the mini-batch pass (still learn)."""
        X, y = train_problem
        model = OnlineHD(dim=80, epochs=1, seed=0, batch_size=8).fit(X, y)
        baseline = model.score(X, y)
        for _ in range(2):
            model.partial_fit(X, y)
        assert model.score(X, y) >= baseline - 0.1

    def test_registry_round_trips_batch_size(self, train_problem, tmp_path):
        """Restored models keep their mini-batch training mode."""
        from repro.serving import ModelRegistry

        X, y = train_problem
        registry = ModelRegistry(tmp_path)
        ensemble = BoostHD(
            total_dim=100, n_learners=4, epochs=1, seed=0, batch_size=32
        ).fit(X, y)
        registry.save("ensemble", ensemble)
        restored = registry.load("ensemble")
        assert restored.batch_size == 32
        assert all(learner.batch_size == 32 for learner in restored.learners_)

        single = OnlineHD(dim=60, epochs=1, seed=0, batch_size=8).fit(X, y)
        registry.save("single", single)
        assert registry.load("single").batch_size == 8


# ------------------------------------------------------------ encoded scoring
class TestEncodedScoring:
    def test_predict_encoded_matches_predict(self, train_problem):
        X, y = train_problem
        model = OnlineHD(dim=80, epochs=1, seed=0).fit(X, y)
        encoded = model.encoder.encode(X)
        np.testing.assert_array_equal(model.predict_encoded(encoded), model.predict(X))
        np.testing.assert_array_equal(
            model.decision_function_encoded(encoded), model.decision_function(X)
        )

    def test_predict_encoded_requires_fit(self):
        from repro.baselines.base import NotFittedError

        with pytest.raises(NotFittedError):
            OnlineHD(dim=20).predict_encoded(np.zeros((2, 20)))
