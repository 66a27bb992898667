"""Contracts of the early-exit cascade engine.

Because the cascade makes accuracy a *routing* property, the suite pins
routing down exactly rather than statistically:

* **Degenerate-threshold exactness** — at ``threshold=-inf`` the cascade is
  bitwise the packed first tier; at ``threshold=+inf`` it is bitwise the
  fixed16 second tier, whether the cascade is compiled from the model's
  float64 hypervectors or loaded from a fixed16 or fixed8 artifact.
* **Margin-routing properties** (hypothesis) — the rerank set is exactly
  the rows whose packed top-2 margin is strictly below the threshold:
  non-reranked rows score bitwise as the packed tier, reranked rows bitwise
  as the fixed-point second tier (whose scores are batch-composition
  invariant, so subset rescoring is provably exact), and the routing is
  invariant to batch composition and chunking.
* **Calibration** — the chosen threshold meets the requested parity /
  relative-accuracy target on the calibration data, is monotone
  nondecreasing in the target, and its reported rerank fraction matches
  what the threshold actually routes.
* **Registry round-trip** — ``load_compiled(name, precision="cascade-fixed16")``
  builds both tiers byte-for-byte from stored codes with float64
  dequantization provably never invoked, and the loaded cascade scores
  bitwise like one compiled from the original model.

A cascade starts at ``DEFAULT_THRESHOLD``; every test that needs another
cutoff assigns the ``threshold`` attribute, as calibration does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boosthd import BoostHD
from repro.engine import (
    PRECISIONS,
    CascadeModel,
    EngineError,
    FixedPointModel,
    PackedBipolarModel,
    compile_model,
    top2_margin,
)
from repro.engine.cascade import DEFAULT_THRESHOLD
from repro.serving import ModelRegistry

from test_quant_engine import (
    _blob_problem,
    _forbid_dequantization,
    _learner_bits,
    _score_in_blocks,
)

pytestmark = pytest.mark.cascade

#: The stored forms a cascade's class hypervectors are built from: the
#: fitted model's float64 values, or a fixed16 or fixed8 artifact's codes.
SOURCES = ("fixed16", "fixed8", "float64")


@pytest.fixture(scope="module")
def problem():
    return _blob_problem(seed=11, n_features=10)


@pytest.fixture(scope="module")
def fitted(problem):
    X, y, _, _ = problem
    return BoostHD(total_dim=480, n_learners=4, epochs=3, seed=1).fit(X, y)


@pytest.fixture(scope="module")
def engines(fitted):
    """The float64-encoding cascade plus its packed reference tier."""
    return {
        "fixed16": compile_model(fitted, dtype=np.float64, precision="cascade-fixed16"),
        "packed": compile_model(fitted, dtype=np.float64, precision="bipolar-packed"),
    }


@pytest.fixture(scope="module")
def sourced(fitted, cascade_registry):
    """``(cascade, packed engine)`` built from each of the :data:`SOURCES`."""
    built = {"float64": tuple(
        compile_model(fitted, precision=name)
        for name in ("cascade-fixed16", "bipolar-packed")
    )}
    for scheme in ("fixed16", "fixed8"):
        built[scheme] = tuple(
            cascade_registry.load_compiled(f"{scheme}-artifact", precision=name)
            for name in ("cascade-fixed16", "bipolar-packed")
        )
    return built


# -------------------------------------------------- degenerate-threshold exactness
@pytest.mark.parametrize("source", SOURCES)
def test_threshold_inf_is_bitwise_second_tier(sourced, problem, source):
    _, _, X_test, _ = problem
    cascade, _ = sourced[source]
    cascade.threshold = np.inf
    np.testing.assert_array_equal(
        cascade.decision_function(X_test),
        cascade.second.decision_function(X_test),
    )


@pytest.mark.parametrize("source", SOURCES)
def test_threshold_neg_inf_is_bitwise_the_packed_engine(sourced, problem, source):
    _, _, X_test, _ = problem
    cascade, packed = sourced[source]
    cascade.threshold = -np.inf
    cascade.stats.reset()
    np.testing.assert_array_equal(
        cascade.decision_function(X_test), packed.decision_function(X_test)
    )
    assert cascade.stats.rows_reranked == 0
    assert cascade.stats.rows_scored == len(X_test)


def test_cascade_alias_and_dispatch(fitted):
    """``"cascade-fixed16"`` is the one cascade; ``"cascade"`` is no alias."""
    cascade = compile_model(fitted, precision="cascade-fixed16")
    assert isinstance(cascade, CascadeModel)
    assert cascade.precision == "cascade-fixed16"
    assert cascade.threshold == DEFAULT_THRESHOLD
    assert isinstance(cascade.first, PackedBipolarModel)
    assert isinstance(cascade.second, FixedPointModel)
    assert "cascade" in repr(cascade)
    assert cascade.class_memory_bytes() == (
        cascade.first.class_memory_bytes() + cascade.second.class_memory_bytes()
    )
    for name in ("cascade", "cascade-int4"):
        with pytest.raises(
            EngineError,
            match=f"unknown precision '{name}'; accepted serving precisions",
        ):
            compile_model(fitted, precision=name)
    with pytest.raises(TypeError, match="threshold"):
        compile_model(fitted, precision="cascade-fixed16", threshold=0.1)


def test_mismatched_tiers_are_rejected(fitted):
    X, y, _, _ = _blob_problem(seed=12, n_features=10)
    other = BoostHD(total_dim=480, n_learners=4, epochs=3, seed=9).fit(X, y)
    first = compile_model(fitted, precision="bipolar-packed")
    with pytest.raises(EngineError, match="different models"):
        CascadeModel(first=first, second=compile_model(other, precision="fixed16"))
    fixed16 = compile_model(fitted, precision="fixed16")
    with pytest.raises(EngineError, match="first tier"):
        CascadeModel(first=compile_model(fitted), second=fixed16)
    # Only a fixed-point tier reranks a subset bitwise as in the full batch.
    for second in (first, compile_model(fitted)):
        with pytest.raises(EngineError, match="second tier must be a FixedPointModel"):
            CascadeModel(first=first, second=second)


# ----------------------------------------------------------- margin routing
@settings(max_examples=25, deadline=None)
@given(threshold=st.floats(0.0, 0.2), rows=st.integers(3, 40))
def test_rerank_set_is_exactly_below_threshold_rows(threshold, rows):
    """Row-for-row routing: >= threshold keeps packed scores bitwise,
    < threshold gets the fixed second tier's scores bitwise."""
    X, y, X_test, _ = _blob_problem(seed=13, n_features=10)
    model = BoostHD(total_dim=480, n_learners=4, epochs=3, seed=1).fit(X, y)
    cascade = compile_model(model, dtype=np.float64, precision="cascade-fixed16")
    cascade.threshold = threshold
    encoded = cascade.encode(X_test)
    packed_scores = cascade.first.score_encoded(encoded)
    second_scores = cascade.second.score_encoded(encoded)
    margins = top2_margin(packed_scores)
    rerank = margins < threshold

    cascade.stats.reset()
    produced = _score_in_blocks(cascade, encoded, rows)
    np.testing.assert_array_equal(produced[~rerank], packed_scores[~rerank])
    np.testing.assert_array_equal(produced[rerank], second_scores[rerank])
    assert cascade.stats.rows_reranked == int(rerank.sum())
    assert cascade.stats.rows_scored == len(X_test)
    assert cascade.stats.rerank_fraction == pytest.approx(rerank.mean())
    np.testing.assert_array_equal(cascade.decision_function(X_test), produced)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(2, 19), single=st.integers(0, 35))
def test_cascade_scoring_is_batch_composition_invariant(rows, single):
    """A row's cascade scores are identical alone, in any batch, any row block."""
    X, y, X_test, _ = _blob_problem(seed=14, n_features=10)
    model = BoostHD(total_dim=480, n_learners=4, epochs=3, seed=1).fit(X, y)
    whole = compile_model(model, dtype=np.float64, precision="cascade-fixed16")
    encoded = whole.encode(X_test)
    batch_scores = whole.score_encoded(encoded)
    np.testing.assert_array_equal(_score_in_blocks(whole, encoded, rows), batch_scores)
    single %= len(X_test)
    np.testing.assert_array_equal(
        whole.score_encoded(encoded[single][None])[0], batch_scores[single]
    )


def test_predictions_match_tiers_rowwise(engines, problem):
    _, _, X_test, _ = problem
    cascade = engines["fixed16"]
    cascade.threshold = 0.05
    packed_pred = engines["packed"].predict(X_test)
    second_pred = cascade.second.predict(X_test)
    margins = top2_margin(engines["packed"].decision_function(X_test))
    rerank = margins < cascade.threshold
    produced = cascade.predict(X_test)
    np.testing.assert_array_equal(produced[~rerank], packed_pred[~rerank])
    np.testing.assert_array_equal(produced[rerank], second_pred[rerank])


# -------------------------------------------------------------- calibration
def test_calibration_meets_parity_target(engines, problem):
    _, _, X_test, _ = problem
    cascade = engines["fixed16"]
    result = cascade.calibrate_threshold(X_test, target=0.95)
    assert result.mode == "parity"
    assert result.achieved >= 0.95 - 1e-9
    assert cascade.threshold == result.threshold
    # The reported fraction is what the threshold actually routes.
    margins = top2_margin(cascade.first.decision_function(X_test))
    assert result.rerank_fraction == pytest.approx(
        np.mean(margins < result.threshold)
    )
    # And the achieved parity is real: rescore and compare predictions.
    agreement = np.mean(cascade.predict(X_test) == cascade.second.predict(X_test))
    assert agreement >= result.achieved - 1e-9


def test_calibration_meets_relative_accuracy_target(engines, problem):
    _, _, X_test, y_test = problem
    cascade = engines["fixed16"]
    result = cascade.calibrate_threshold(X_test, y_test, target=0.99)
    assert result.mode == "accuracy"
    second_acc = np.mean(cascade.second.predict(X_test) == y_test)
    cascade_acc = np.mean(cascade.predict(X_test) == y_test)
    assert cascade_acc >= 0.99 * second_acc - 1e-9
    assert result.achieved == pytest.approx(cascade_acc)


def test_calibration_is_monotone_in_target(engines, problem, monkeypatch):
    _, _, X_test, _ = problem
    cascade = engines["fixed16"]
    monkeypatch.setattr(cascade, "threshold", cascade.threshold)  # restored after
    thresholds = [
        cascade.calibrate_threshold(X_test, target=target).threshold
        for target in (0.0, 0.5, 0.9, 0.99, 1.0)
    ]
    assert thresholds == sorted(thresholds)
    # target=0 never needs reranking; target=1 demands exact parity.
    assert thresholds[0] == -np.inf


def test_calibration_extreme_targets(engines, problem, monkeypatch):
    _, _, X_test, _ = problem
    cascade = engines["fixed16"]
    monkeypatch.setattr(cascade, "threshold", cascade.threshold)  # restored after
    zero = cascade.calibrate_threshold(X_test, target=0.0)
    assert zero.threshold == cascade.threshold == -np.inf
    assert zero.rerank_fraction == 0.0
    full = cascade.calibrate_threshold(X_test, target=1.0)
    assert full.achieved >= 1.0 - 1e-9
    with pytest.raises(ValueError, match="target"):
        cascade.calibrate_threshold(X_test, target=1.5)
    with pytest.raises(ValueError, match="empty"):
        cascade.calibrate_threshold(X_test[:0])


def test_calibration_rejects_unknown_labels(engines, problem):
    _, _, X_test, y_test = problem
    with pytest.raises(ValueError, match="not trained"):
        engines["fixed16"].calibrate_threshold(X_test, np.full(len(X_test), 99))
    with pytest.raises(ValueError, match="shape"):
        engines["fixed16"].calibrate_threshold(X_test, y_test[:3])


# ------------------------------------------------------------------ margins
def test_top2_margin_is_best_minus_runner_up(engines, problem):
    _, _, X_test, _ = problem
    for engine in (engines["packed"], engines["fixed16"]):
        scores = engine.decision_function(X_test)
        ranked = np.sort(scores, axis=1)
        np.testing.assert_array_equal(top2_margin(scores), ranked[:, -1] - ranked[:, -2])


def test_top2_margin_single_class_is_infinite():
    assert np.all(np.isinf(top2_margin(np.ones((3, 1)))))
    with pytest.raises(ValueError, match="2-D"):
        top2_margin(np.ones(3))


# ----------------------------------------------------------------- registry
@pytest.fixture(scope="module")
def cascade_registry(tmp_path_factory, fitted):
    registry = ModelRegistry(tmp_path_factory.mktemp("cascade-registry"))
    registry.save("float-artifact", fitted)
    for scheme in ("fixed16", "fixed8"):
        registry.save(f"{scheme}-artifact", fitted, quantize=scheme)
    return registry


def test_registry_cascade_load_without_dequantize(
    cascade_registry, problem, monkeypatch
):
    """Both tiers come byte-for-byte from the stored fixed16 codes."""
    _, _, X_test, _ = problem
    _forbid_dequantization(monkeypatch)
    engine = cascade_registry.load_compiled(
        "fixed16-artifact", precision="cascade-fixed16"
    )
    assert isinstance(engine, CascadeModel)
    assert engine.threshold == DEFAULT_THRESHOLD
    record = cascade_registry.describe("fixed16-artifact")
    assert engine.second.codes.dtype == np.int16
    with np.load(record.path / "model.npz") as archive:
        for index, (start, stop) in enumerate(engine.spans):
            stored = archive[f"learner_{index}_codes"]
            bits = _learner_bits(engine.first, index)
            np.testing.assert_array_equal(bits, stored >= 0)
            np.testing.assert_array_equal(
                engine.second.codes[index, : stop - start].T, stored
            )
    assert len(engine.predict(X_test)) == len(X_test)


def test_registry_cascade_round_trip_is_bitwise(cascade_registry, fitted, problem):
    """A float artifact's cascade scores bitwise like a directly compiled one."""
    _, _, X_test, _ = problem
    loaded = cascade_registry.load_compiled(
        "float-artifact", precision="cascade-fixed16"
    )
    reference = compile_model(fitted, precision="cascade-fixed16")
    for threshold in (-np.inf, DEFAULT_THRESHOLD, 0.2, np.inf):
        loaded.threshold = reference.threshold = threshold
        np.testing.assert_array_equal(
            loaded.decision_function(X_test), reference.decision_function(X_test)
        )


def test_registry_cascade_unknown_precision(cascade_registry):
    from repro.serving import RegistryError

    for name in ("cascade-int4", "cascade-fixed8", "cascade-float64", "cascade"):
        with pytest.raises(RegistryError, match=f"unknown precision '{name}'"):
            cascade_registry.load_compiled("float-artifact", precision=name)
    assert [name for name in PRECISIONS if PRECISIONS[name].second] == [
        "cascade-fixed16"
    ]


# ------------------------------------------------------------------ serving
def test_micro_batch_scheduler_scores_cascade(problem, fitted):
    from repro.serving import MicroBatchScheduler

    _, _, X_test, _ = problem
    cascade = compile_model(fitted, dtype=np.float64, precision="cascade-fixed16")
    scheduler = MicroBatchScheduler(cascade, max_batch=8)
    direct = cascade.predict(X_test)
    for index, row in enumerate(X_test):
        scheduler.submit("s", index, row)
    predictions = scheduler.flush()
    assert len(predictions) == len(X_test)
    for prediction in predictions:
        assert prediction.label == direct[prediction.window_index]
