"""Contracts of the integer-domain quantized inference engines.

Four layers of guarantees, from exact to statistical:

* **Exact integer-domain identities** — packed XOR + popcount scoring is
  bit-identical to :func:`~repro.hdc.similarity.hamming_similarity` on the
  unpacked signs (at any learner width and span, where pad bits must never
  count); fixed-point integer matmuls equal the float cosine of the
  dequantized representatives to machine precision; the popcount LUT
  fallback equals :func:`numpy.bitwise_count`.
* **Argmax parity with the float engine** — fixed16/fixed8 predictions are
  *identical* to the float64 engine's on the mini Table I datasets across
  model kinds and projections; packed-bipolar (a genuinely lossy 1-bit
  model) must agree on >= 85 % of windows and lose <= 0.15 accuracy.
* **Registry byte-exactness** — ``ModelRegistry.load_compiled(...)``
  builds engines whose stored codes are byte-for-byte the archived codes,
  with float64 dequantization provably never invoked (the dequantizer is
  monkeypatched to explode during the load).
* **Figure 8's bit flips** — a seeded perturbation XORs exactly the fixed16
  codes the registry stores.
"""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.boosthd import BoostHD
from repro.data.noise import perturb_model
from repro.engine import PRECISIONS as ENGINE_PRECISIONS
from repro.engine import (
    EngineError,
    FixedPointModel,
    PackedBipolarModel,
    build_engine,
    compile_model,
    top2_margin,
)
from repro.engine.compile import assemble_components
from repro.hdc import (
    NonlinearEncoder,
    OnlineHD,
    cosine_similarity,
    hamming_similarity,
    quantize_codes,
)
from repro.hdc.quantize import SCHEME_DTYPES, from_fixed_point
from repro.hdc.similarity import _popcount_rows_lut, popcount_rows
from repro.serving import ModelRegistry

pytestmark = pytest.mark.quant

PRECISIONS = ("bipolar-packed", "fixed16", "fixed8")
MODEL_KINDS = ("onlinehd", "boosthd-independent", "boosthd-shared", "boosthd-vote")

sign_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


#: Exactness cases also run on ``BoostHD(total_dim=100, n_learners=7)``,
#: whose learner widths differ (15, 15, 14, ...): packed words stacked
#: across learners need zero padding there.
EXACT_KINDS = MODEL_KINDS + ("boosthd-unequal",)
BATCHES = (1, 8, 64)


def _fit(kind, X, y):
    if kind == "onlinehd":
        # dim deliberately not divisible by 8: the packed path must pad.
        return OnlineHD(dim=500, epochs=3, seed=0).fit(X, y)
    if kind == "boosthd-unequal":
        return BoostHD(total_dim=100, n_learners=7, epochs=3, seed=0).fit(X, y)
    options = dict(total_dim=600, n_learners=6, epochs=3, seed=0)
    if kind == "boosthd-shared":
        options["shared_projection"] = True
    if kind == "boosthd-vote":
        options["aggregation"] = "vote"
    return BoostHD(**options).fit(X, y)


@pytest.fixture(scope="module")
def fitted_models(mini_wesad_split):
    X_train, _, y_train, _ = mini_wesad_split
    return {kind: _fit(kind, X_train, y_train) for kind in EXACT_KINDS}


@pytest.fixture(scope="module")
def query_rows(mini_wesad_split):
    """128 held-out-like rows: enough for two 64-row batches."""
    _, X_test, _, _ = mini_wesad_split
    rows = np.resize(X_test, (128, X_test.shape[1]))
    return rows + np.random.default_rng(0).normal(scale=0.05, size=rows.shape)


def _chunks(engine, rows, batch):
    """``(chunk, engine.encode(chunk))`` over consecutive ``batch``-row chunks."""
    for start in range(0, len(rows), batch):
        chunk = rows[start : start + batch]
        yield chunk, engine.encode(chunk)


def _learners(model):
    return model.learners_ if getattr(model, "learners_", None) else [model]


def _hamming_reference(engine, model, encoded):
    """Hamming-scored reference with the engine's exact aggregation."""
    scores = np.zeros((len(encoded), len(engine.classes_)))
    rows = np.arange(len(encoded))
    learners = _learners(model)
    for (start, stop), alpha, learner in zip(engine.spans, engine._alphas, learners):
        sims = hamming_similarity(encoded[:, start:stop], learner.class_hypervectors_)
        columns = np.searchsorted(engine.classes_, learner.classes_)
        if engine.aggregation == "vote":
            winner = np.argmax(sims, axis=1)
            scores[rows, columns[winner]] += alpha
        else:
            scores[:, columns] += alpha * sims
    return scores / engine._total_alpha


def _learner_bits(engine, index):
    """Learner ``index``'s class sign bits, read back out of the packed words.

    Asserts every other bit of the learner's word window is zero.
    """
    start, stop = engine.spans[index]
    offset = start - 64 * (start // 64)
    window = np.unpackbits(engine.words[index].view(np.uint8), axis=1)
    bits = window[:, offset : offset + stop - start]
    assert window.sum() == bits.sum()
    return bits


# ------------------------------------------------------- exact integer paths
def test_unequal_kind_has_unequal_widths(fitted_models):
    widths = {learner.encoder.dim for learner in fitted_models["boosthd-unequal"].learners_}
    assert widths == {14, 15}


@pytest.mark.parametrize("kind", EXACT_KINDS)
def test_packed_scores_equal_hamming_reference(fitted_models, query_rows, kind):
    """XOR + popcount scoring is bit-identical to hamming on unpacked signs."""
    model = fitted_models[kind]
    engine = compile_model(model, dtype=np.float64, precision="bipolar-packed")
    for batch in BATCHES:
        for chunk, encoded in _chunks(engine, query_rows, batch):
            reference = _hamming_reference(engine, model, encoded)
            np.testing.assert_array_equal(engine.decision_function(chunk), reference)
    encoded = engine.encode(query_rows)
    np.testing.assert_array_equal(
        engine.score_encoded(encoded), _hamming_reference(engine, model, encoded)
    )


def _dequantized_cosine_reference(engine, model, encoded):
    """Float cosine of the dequantized query and class codes, aggregated."""
    query_max = (1 << (engine.bits - 1)) - 1
    reference = np.zeros((len(encoded), len(engine.classes_)))
    learners = _learners(model)
    for (start, stop), alpha, learner in zip(engine.spans, engine._alphas, learners):
        view = encoded[:, start:stop]
        magnitude = np.abs(view).max(axis=1)
        quantized = np.round(view * (query_max / magnitude)[:, None])
        dequantized_query = quantized * (magnitude / query_max)[:, None]
        codes, scale = quantize_codes(learner.class_hypervectors_, engine.precision)
        dequantized_classes = from_fixed_point(codes, scale)
        sims = cosine_similarity(dequantized_query, dequantized_classes)
        reference += alpha * sims
    return reference / engine._total_alpha


def _integer_reference(engine, encoded):
    """Fixed-point scores from an ``int64`` matmul, plus each learner's dot products.

    The engine's arithmetic with integer dtypes in place of integer-valued
    float64 operands, one learner at a time over its unpadded codes: equal
    scores prove the stacked float64 matmul exact.
    """
    query_max = (1 << (engine.bits - 1)) - 1
    scores = np.zeros((len(encoded), len(engine.classes_)))
    rows = np.arange(len(encoded))
    dots = []
    for index, ((start, stop), alpha) in enumerate(zip(engine.spans, engine._alphas)):
        view = np.asarray(encoded[:, start:stop], dtype=np.float64)
        magnitude = np.abs(view).max(axis=1)
        magnitude[magnitude <= 0.0] = 1.0
        quantized = np.round(view * (query_max / magnitude)[:, None]).astype(np.int64)
        codes = engine.codes[index, : stop - start].astype(np.int64)
        sims = np.matmul(quantized, codes)
        norms = np.sqrt(np.einsum("ij,ij->i", quantized, quantized).astype(np.float64))
        rescale = engine.inv_norms[index][None, :] / np.maximum(norms, 1e-12)[:, None]
        cosine = sims.astype(np.float64) * rescale
        if engine.aggregation == "vote":
            scores[rows, np.argmax(cosine, axis=1)] += alpha
        else:
            scores += alpha * cosine
        dots.append(sims)
    return scores / engine._total_alpha, dots


@pytest.mark.parametrize("precision", ("fixed16", "fixed8"))
def test_fixed_scores_equal_dequantized_cosine(fitted_models, query_rows, precision):
    """Exact integer-valued matmul == float cosine of dequantized operands.

    Bitwise against an ``int64`` matmul reference, to machine precision
    against the dequantized cosine, at every batch size.
    """
    for kind in ("boosthd-independent", "boosthd-unequal"):
        model = fitted_models[kind]
        engine = compile_model(model, dtype=np.float64, precision=precision)
        for batch in BATCHES:
            for chunk, encoded in _chunks(engine, query_rows, batch):
                scores = engine.decision_function(chunk)
                np.testing.assert_array_equal(
                    scores, _integer_reference(engine, encoded)[0]
                )
                np.testing.assert_allclose(
                    scores, _dequantized_cosine_reference(engine, model, encoded),
                    rtol=1e-10, atol=1e-12,
                )


@pytest.mark.parametrize("kind", ("boosthd-independent", "boosthd-unequal"))
def test_cascade_scores_equal_tier_references(fitted_models, query_rows, kind):
    """Low-margin rows carry the fixed16 reference, the rest the hamming one."""
    model = fitted_models[kind]
    cascade = compile_model(model, dtype=np.float64, precision="cascade-fixed16")
    encoded = cascade.encode(query_rows)
    cascade.threshold = float(
        np.median(top2_margin(_hamming_reference(cascade.first, model, encoded)))
    )
    reranked = 0
    for batch in BATCHES:
        for chunk, encoded in _chunks(cascade, query_rows, batch):
            expected = _hamming_reference(cascade.first, model, encoded)
            rerank = top2_margin(expected) < cascade.threshold
            expected[rerank] = _integer_reference(cascade.second, encoded)[0][rerank]
            reranked += int(rerank.sum())
            np.testing.assert_array_equal(cascade.decision_function(chunk), expected)
    assert 0 < reranked < len(BATCHES) * len(query_rows)


def _score_in_blocks(engine, encoded, rows):
    """``engine.score_encoded`` over consecutive ``rows``-row blocks, stacked."""
    return np.concatenate([
        engine.score_encoded(encoded[start : start + rows])
        for start in range(0, len(encoded), rows)
    ])


@pytest.mark.parametrize("precision", PRECISIONS)
def test_scoring_is_batch_composition_invariant(
    fitted_models, mini_wesad_split, precision
):
    """A window's scores are identical alone, in any batch, in any row block.

    Quantization happens per row (packed: per-row signs; fixed: per-row
    query scale), so the scoring stage never couples rows of a chunk.  The
    test pins that on one pre-encoded matrix per model kind — ragged
    learner widths and vote aggregation included — and leaves the encoding
    matmul outside the claim, since BLAS does not promise bitwise shape
    invariance.
    """
    _, X_test, _, _ = mini_wesad_split
    for kind in EXACT_KINDS:
        model = fitted_models[kind]
        engine = compile_model(model, dtype=np.float64, precision=precision)
        encoded = engine.encode(X_test)
        batch_scores = engine.score_encoded(encoded)
        np.testing.assert_array_equal(
            _score_in_blocks(engine, encoded, 7), batch_scores
        )
        for index in (0, len(X_test) - 1):
            np.testing.assert_array_equal(
                engine.score_encoded(encoded[index][None])[0], batch_scores[index]
            )


@pytest.mark.parametrize("precision", tuple(ENGINE_PRECISIONS))
def test_empty_batch_scores_have_no_rows(fitted_models, precision):
    """A ``(0, n_features)`` batch scores to ``(0, n_classes)`` at every precision."""
    for kind in EXACT_KINDS:
        engine = compile_model(fitted_models[kind], precision=precision)
        empty = np.empty((0, engine.in_features))
        expected_shape = (0, len(engine.classes_))
        assert engine.decision_function(empty).shape == expected_shape
        assert engine.score_encoded(engine.encode(empty)).shape == expected_shape


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(EXACT_KINDS),
    precision=st.sampled_from(tuple(ENGINE_PRECISIONS)),
    dtype=st.sampled_from((np.float32, np.float64)),
    start=st.integers(0, 64),
    rows=st.integers(1, 64),
)
def test_scores_are_invariant_under_a_power_of_two_scale(
    fitted_models, query_rows, kind, precision, dtype, start, rows
):
    """``decision_function`` scores twice the encoding ``encode`` returns,
    so every tier's scores must not move, by a bit, under a power-of-two
    scale of an encoding."""
    engine = compile_model(fitted_models[kind], precision=precision, dtype=dtype)
    X = query_rows[start : start + rows]
    encoded = engine.encode(X)
    scores = engine.score_encoded(encoded)
    np.testing.assert_array_equal(engine.decision_function(X), scores)
    for k in (-3, 1, 4):
        np.testing.assert_array_equal(engine.score_encoded(2.0**k * encoded), scores)


@pytest.mark.parametrize("path", ("loop",) + tuple(ENGINE_PRECISIONS))
def test_non_finite_queries_are_refused(fitted_models, query_rows, path):
    """A NaN or infinite query value raises on the loop path and on every
    engine, in ``score_encoded`` too; an engine casts first, so a float64
    value beyond float32's range is refused by a float32 engine."""
    model = fitted_models["boosthd-independent"]
    scorer = model if path == "loop" else compile_model(model, precision=path)
    bad_values = [np.nan, np.inf, -np.inf] + ([] if path == "loop" else [1e39])
    for value in bad_values:
        X = query_rows[:4].copy()
        X[2, 3] = value
        for call in (scorer.decision_function, scorer.predict, scorer.predict_proba):
            with np.errstate(over="ignore"):  # the float32 cast of 1e39
                with pytest.raises(ValueError, match="NaN or inf"):
                    call(X)
    if path != "loop":
        for value in (np.nan, np.inf):
            encoded = scorer.encode(query_rows[:4])
            encoded[1, 5] = value
            with pytest.raises(ValueError, match="NaN or inf"):
                scorer.score_encoded(encoded)


@pytest.mark.parametrize("precision", ("fixed16", "fixed8"))
def test_fixed_worst_case_codes_equal_int64_matmul(fitted_models, precision):
    """±qmax queries against the minimum class code on the widest learner.

    Every product is the extreme ``-qmax * (qmax + 1)`` (or its negation),
    so the learner's dot products reach ``dim * qmax * (qmax + 1)`` — past
    int32 and float32 range at fixed16 — and the float64 BLAS matmul must
    still equal an ``int64`` matmul bit for bit.
    """
    engine = compile_model(
        fitted_models["boosthd-unequal"], dtype=np.float64, precision=precision
    )
    query_max = (1 << (engine.bits - 1)) - 1
    widest = int(np.argmax(engine.spans[:, 1] - engine.spans[:, 0]))
    start, stop = engine.spans[widest]
    dim = stop - start
    codes = engine.codes.copy()
    codes[widest, :dim] = -(query_max + 1)
    inv_norms = engine.inv_norms.copy()
    inv_norms[widest] = 1.0 / (np.sqrt(dim) * (query_max + 1))
    worst = FixedPointModel(
        precision=precision,
        basis2=engine._basis2,
        sin_bias=engine._sin_bias,
        spans=engine.spans,
        alphas=engine.alphas,
        codes=codes,
        inv_norms=inv_norms,
        classes=engine.classes_,
        aggregation=engine.aggregation,
        dtype=engine.dtype,
    )

    rng = np.random.default_rng(0)
    encoded = rng.standard_normal((16, engine.total_dim))
    signs = np.where(rng.random((16, dim)) < 0.5, -1.0, 1.0)
    signs[0], signs[1] = 1.0, -1.0
    encoded[:, start:stop] = signs
    reference, dots = _integer_reference(worst, encoded)
    extreme = dim * query_max * (query_max + 1)
    assert dots[widest][0].min() == -extreme and dots[widest][1].max() == extreme
    np.testing.assert_array_equal(worst.score_encoded(encoded), reference)


@pytest.mark.parametrize("precision", ("fixed16", "fixed8"))
def test_configure_fixed_rejects_dot_products_beyond_exact_float64(precision):
    """Learners whose worst dot product reaches 2**53 are refused up front."""
    query_max = (1 << (int(precision[5:]) - 1)) - 1
    limit = -(-(2**53) // (query_max * (query_max + 1)))
    dtype = SCHEME_DTYPES[precision]

    def build(dim):
        # Zero-stride arrays: a learner of any width without the memory.
        return FixedPointModel(
            precision=precision,
            basis2=np.broadcast_to(np.zeros(1), (2, dim)),
            sin_bias=np.broadcast_to(np.zeros(1), (dim,)),
            spans=[[0, dim]],
            alphas=[1.0],
            codes=np.broadcast_to(np.zeros(2, dtype=dtype), (1, dim, 2)),
            inv_norms=np.ones((1, 2)),
            classes=np.arange(2),
            aggregation="score",
            dtype=np.float64,
        )

    assert build(limit - 1).bits == int(precision[5:])
    with pytest.raises(EngineError, match="2\\*\\*53"):
        build(limit)


# --------------------------------------------------- parity with float engine
def _assert_parity(model, X_test, y_test, precision, label):
    float_engine = compile_model(model, dtype=np.float64)
    quant_engine = compile_model(model, dtype=np.float64, precision=precision)
    expected = float_engine.predict(X_test)
    produced = quant_engine.predict(X_test)
    if precision.startswith("fixed"):
        # Fixed-point quantization error is far below the class margins:
        # argmax-identical to the float engine.
        np.testing.assert_array_equal(produced, expected)
    else:
        # 1-bit sign quantization is genuinely lossy and the mini test
        # splits are tiny (one window is ~7 % of parity), so the unit gate
        # is accuracy-based; the strict >= 0.85 parity gate runs at the
        # paper's D_total = 10000 in benchmarks/bench_quant.py.
        parity = float(np.mean(produced == expected))
        assert parity >= 0.6, f"packed parity {parity:.3f} on {label}"
        float_acc = float(np.mean(expected == y_test))
        quant_acc = float(np.mean(produced == y_test))
        assert quant_acc >= float_acc - 0.2


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("precision", PRECISIONS)
def test_argmax_parity_with_float_engine(
    fitted_models, mini_wesad_split, kind, precision
):
    _, X_test, _, y_test = mini_wesad_split
    _assert_parity(fitted_models[kind], X_test, y_test, precision, kind)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_argmax_parity_on_nurse_dataset(mini_nurse, precision):
    X_train, X_test, y_train, y_test = mini_nurse.split(test_fraction=0.3, rng=0)
    model = BoostHD(total_dim=600, n_learners=6, epochs=3, seed=0).fit(X_train, y_train)
    _assert_parity(model, X_test, y_test, precision, "nurse")


@pytest.mark.parametrize("precision", PRECISIONS)
def test_quantized_engine_mirrors_compiled_api(fitted_models, mini_wesad_split, precision):
    _, X_test, _, _ = mini_wesad_split
    engine = compile_model(fitted_models["boosthd-independent"], precision=precision)
    scores = engine.decision_function(X_test)
    assert scores.shape == (len(X_test), len(engine.classes_))
    probabilities = engine.predict_proba(X_test)
    np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-12)
    encoded = engine.encode(X_test[:3])
    assert encoded.shape == (3, engine.total_dim)
    assert engine.precision == precision
    assert engine.class_memory_bytes() > 0
    assert type(engine).__name__ in repr(engine)


def test_memory_reduction_vs_float64_engine(fitted_models):
    model = fitted_models["boosthd-independent"]
    float_engine = compile_model(model, dtype=np.float64)
    float_bytes = float_engine.class_memory_bytes()
    packed = compile_model(model, precision="bipolar-packed")
    fixed8 = compile_model(model, precision="fixed8")
    assert float_bytes / packed.class_memory_bytes() >= 8.0
    assert float_bytes / fixed8.class_memory_bytes() >= 4.0


def test_learner_with_a_class_subset_is_refused(mini_wesad_split, tmp_path):
    """Engines score every learner against every class; a subset is refused.

    Library training gives every learner the ensemble's classes, so only a
    hand-built model (or a malformed artifact) can hit this.  The loop path
    still scores it.
    """
    X_train, X_test, y_train, _ = mini_wesad_split
    model = BoostHD(total_dim=100, n_learners=3, epochs=1, seed=0).fit(X_train, y_train)
    learner = model.learners_[1]
    learner.classes_ = learner.classes_[:2]
    learner.class_hypervectors_ = learner.class_hypervectors_[:2]
    with pytest.raises(EngineError, match="learner 1 has classes"):
        compile_model(model)
    registry = ModelRegistry(tmp_path)
    registry.save("subset", model)
    with pytest.raises(EngineError, match="learner 1 has classes"):
        registry.load_compiled("subset", precision="fixed16")
    assert set(model.predict(X_test)) <= set(model.classes_)


def test_unknown_precision_raises(fitted_models):
    with pytest.raises(EngineError, match="precision"):
        compile_model(fitted_models["onlinehd"], precision="float16")


# ------------------------------------------------------ hypothesis properties
def _packed_from_signs(hypervectors, alphas, aggregation):
    """A packed engine over learners of any widths, and its hamming oracle's
    model view: learner ``i`` holds the ``(k, d_i)`` ``hypervectors[i]``."""
    classes = np.arange(hypervectors[0].shape[0])
    components = assemble_components(
        [
            NonlinearEncoder(3, values.shape[1], rng=index)
            for index, values in enumerate(hypervectors)
        ],
        [classes] * len(hypervectors),
        hypervectors,
        alphas=np.asarray(alphas, dtype=float),
        aggregation=aggregation,
        classes=classes,
    )
    engine = build_engine(components, "bipolar-packed", dtype=np.float64)
    learners = [
        SimpleNamespace(class_hypervectors_=values, classes_=classes)
        for values in hypervectors
    ]
    return engine, SimpleNamespace(learners_=learners)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 130), min_size=1, max_size=4).flatmap(
        lambda widths: st.tuples(
            st.tuples(*[
                arrays(np.float64, (3, width), elements=sign_floats)
                for width in widths
            ]),
            arrays(np.float64, (5, sum(widths)), elements=sign_floats),
            st.lists(st.floats(0.1, 4.0), min_size=len(widths), max_size=len(widths)),
            st.sampled_from(("score", "vote")),
        )
    )
)
def test_packed_hamming_equals_float_hamming(case):
    """XOR + popcount over any learner widths is hamming on the signs."""
    hypervectors, encoded, alphas, aggregation = case
    engine, model = _packed_from_signs(list(hypervectors), alphas, aggregation)
    np.testing.assert_array_equal(
        engine.score_encoded(encoded), _hamming_reference(engine, model, encoded)
    )


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.uint8,
        st.tuples(st.integers(1, 5), st.integers(1, 33)),
        elements=st.integers(0, 255),
    )
)
def test_popcount_lut_equals_bitwise_count(words):
    counts = _popcount_rows_lut(words)
    assert counts.shape == (words.shape[0],)
    if hasattr(np, "bitwise_count"):
        np.testing.assert_array_equal(
            counts, np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
        )
    reference = np.unpackbits(words, axis=1).sum(axis=1)
    np.testing.assert_array_equal(counts, reference)


def test_popcount_rows_handles_uint64_words():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 63, (4, 7)).astype(np.uint64)
    as_bytes = words.view(np.uint8).reshape(4, -1)
    np.testing.assert_array_equal(
        popcount_rows(words), np.unpackbits(as_bytes, axis=1).sum(axis=1)
    )


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 40)),
        elements=sign_floats,
    ),
    st.sampled_from(("fixed16", "fixed8")),
)
def test_quantize_codes_round_trip_is_within_half_a_step(values, scheme):
    codes, scale = quantize_codes(values, scheme)
    assert codes.dtype == SCHEME_DTYPES[scheme]
    error = np.abs(from_fixed_point(codes, scale) - values)
    assert np.all(error <= scale * (0.5 + 1e-9))


def test_pad_bits_never_count_as_matches():
    """A 13-wide learner fills 13 bits of its word; the other 51 are pad."""
    ones = np.ones((1, 13))
    engine, _ = _packed_from_signs([ones], [1.0], "score")
    # All 13 real bits mismatch; if pad bits counted as matches the
    # similarity would be 51/64 instead of exactly zero.
    assert engine.score_encoded(-ones)[0, 0] == 0.0
    assert engine.score_encoded(ones)[0, 0] == 1.0


@pytest.mark.parametrize(
    "widths",
    [(1,), (7,), (9,), (63,), (64,), (65,), (127,), (129,), (191,), (7, 65, 129)],
    ids=lambda widths: "-".join(map(str, widths)),
)
def test_pad_bit_semantics_at_word_boundary_widths(widths):
    """Learner widths and spans around the ``uint64`` word boundaries.

    The engine scores each learner's span of a sign row packed once over
    all learners, so a learner may start mid-word and end mid-word.  Its
    scores equal the alpha-weighted per-learner hamming similarity; a class
    pattern scored against itself gives exactly 1, its negation exactly 0
    — any pad-bit leak shows up as an offset.
    """
    rng = np.random.default_rng(sum(widths))
    hypervectors = [np.where(rng.random((3, w)) < 0.5, -1.0, 1.0) for w in widths]
    alphas = rng.uniform(0.5, 2.0, len(widths))
    patterns = np.hstack(hypervectors)
    queries = np.vstack([patterns, -patterns, rng.normal(size=(8, sum(widths)))])
    for aggregation in ("score", "vote"):
        engine, model = _packed_from_signs(hypervectors, alphas, aggregation)
        scores = engine.score_encoded(queries)
        np.testing.assert_array_equal(scores, _hamming_reference(engine, model, queries))
        if aggregation == "score":
            np.testing.assert_array_equal(np.diagonal(scores[:3]), np.ones(3))
            np.testing.assert_array_equal(np.diagonal(scores[3:6]), np.zeros(3))


@pytest.mark.parametrize("width", (1, 2, 3, 7, 8, 9, 16, 17))
def test_popcount_rows_lut_path_forced_by_monkeypatch(monkeypatch, width):
    """popcount_rows on the LUT path == np.bitwise_count path, bit for bit.

    ``_HAS_BITWISE_COUNT`` is monkeypatched off so the parity holds on
    NumPy >= 2 installs too, where the fallback would otherwise never run;
    odd widths exercise the trailing-byte gather of the 16-bit table.
    """
    import repro.hdc.similarity as similarity_module

    rng = np.random.default_rng(width)
    words = rng.integers(0, 256, (5, width)).astype(np.uint8)
    reference = np.unpackbits(words, axis=1).sum(axis=1)
    monkeypatch.setattr(similarity_module, "_HAS_BITWISE_COUNT", False)
    produced = popcount_rows(words)
    assert produced.dtype == np.int64
    np.testing.assert_array_equal(produced, reference)
    monkeypatch.setattr(similarity_module, "_HAS_BITWISE_COUNT", True)
    if hasattr(np, "bitwise_count"):
        np.testing.assert_array_equal(popcount_rows(words), reference)


def test_packed_engine_scores_identically_on_lut_path(
    fitted_models, mini_wesad_split, monkeypatch
):
    """The whole packed engine is popcount-backend independent."""
    import repro.hdc.similarity as similarity_module

    _, X_test, _, _ = mini_wesad_split
    engine = compile_model(
        fitted_models["onlinehd"], dtype=np.float64, precision="bipolar-packed"
    )
    encoded = engine.encode(X_test)
    expected = engine.score_encoded(encoded)
    monkeypatch.setattr(similarity_module, "_HAS_BITWISE_COUNT", False)
    np.testing.assert_array_equal(engine.score_encoded(encoded), expected)


# ------------------------------------------------------------------ registry
def _blob_problem(seed=0, n_features=10):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, n_features)) * 2.5
    X = np.vstack([c + rng.standard_normal((30, n_features)) for c in centers])
    y = np.repeat(np.arange(3), 30)
    X_test = np.vstack([c + rng.standard_normal((12, n_features)) for c in centers])
    y_test = np.repeat(np.arange(3), 12)
    return X, y, X_test, y_test


@pytest.fixture(scope="module")
def registry_setup(tmp_path_factory):
    X, y, X_test, y_test = _blob_problem()
    model = BoostHD(total_dim=480, n_learners=4, epochs=3, seed=1).fit(X, y)
    registry = ModelRegistry(tmp_path_factory.mktemp("quant-registry"))
    registry.save("float-artifact", model)
    registry.save("fixed8-artifact", model, quantize="fixed8")
    registry.save("fixed16-artifact", model, quantize="fixed16")
    return registry, model, X_test, y_test


def _forbid_dequantization(monkeypatch):
    import repro.engine.precision as precision_module
    import repro.serving.registry as registry_module

    def explode(*args, **kwargs):
        raise AssertionError("stored codes were dequantized to float64")

    # Engines dequantize in repro.engine.precision; the registry's model
    # loader is patched too, so no load path can dequantize unnoticed.
    for module in (precision_module, registry_module):
        monkeypatch.setattr(module, "from_fixed_point", explode)


def test_registry_load_fixed_precision_without_dequantize(registry_setup, monkeypatch):
    registry, model, X_test, _ = registry_setup
    _forbid_dequantization(monkeypatch)
    engine = registry.load_compiled("fixed8-artifact", precision="fixed8")
    assert isinstance(engine, FixedPointModel)
    assert engine.codes.dtype == np.int8
    with np.load(registry.describe("fixed8-artifact").path / "model.npz") as archive:
        for index, (start, stop) in enumerate(engine.spans):
            stored = archive[f"learner_{index}_codes"]
            assert stored.dtype == np.int8
            np.testing.assert_array_equal(engine.codes[index, : stop - start].T, stored)
            assert not engine.codes[index, stop - start :].any()
    assert set(engine.predict(X_test)) <= set(model.classes_)


def test_registry_load_packed_precision_without_dequantize(registry_setup, monkeypatch):
    registry, _, X_test, _ = registry_setup
    _forbid_dequantization(monkeypatch)
    engine = registry.load_compiled("fixed16-artifact", precision="bipolar-packed")
    assert isinstance(engine, PackedBipolarModel)
    with np.load(registry.describe("fixed16-artifact").path / "model.npz") as archive:
        for index in range(engine.n_learners):
            stored = archive[f"learner_{index}_codes"]
            np.testing.assert_array_equal(_learner_bits(engine, index), stored >= 0)
    assert len(engine.predict(X_test)) == len(X_test)


def test_registry_widening_reuses_codes(registry_setup, monkeypatch):
    """fixed8 codes are valid fixed16 codes under the same scale."""
    registry, _, _, _ = registry_setup
    _forbid_dequantization(monkeypatch)
    engine = registry.load_compiled("fixed8-artifact", precision="fixed16")
    assert engine.codes.dtype == np.int16
    with np.load(registry.describe("fixed8-artifact").path / "model.npz") as archive:
        for index, (start, stop) in enumerate(engine.spans):
            np.testing.assert_array_equal(
                engine.codes[index, : stop - start].T,
                archive[f"learner_{index}_codes"].astype(np.int16),
            )


@pytest.mark.parametrize(
    "read",
    [
        lambda registry, name: registry.load(name),
        lambda registry, name: registry.load_compiled(name, precision="float64"),
    ],
    ids=["load", "load_compiled-float64"],
)
@pytest.mark.parametrize("scale", [0.0, -0.5, np.nan, np.inf])
def test_a_stored_scale_that_is_not_positive_is_refused(registry_setup, tmp_path, read, scale):
    """Every read that dequantizes a fixed16 artifact refuses a scale <= 0,
    and a scale that is not finite."""
    _, model, _, _ = registry_setup
    registry = ModelRegistry(tmp_path)
    registry.save("m", model, quantize="fixed16")
    path = registry.describe("m").path
    arrays = dict(np.load(path / "model.npz"))
    arrays["learner_1_scale"] = np.float64(scale)
    np.savez_compressed(path / "model.npz", **arrays)
    meta = json.loads((path / "meta.json").read_text())
    meta["checksum"] = hashlib.blake2b(
        (path / "model.npz").read_bytes(), digest_size=len(meta["checksum"]) // 2
    ).hexdigest()
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="scale must be positive"):
        read(registry, "m")


def test_registry_float_artifact_equals_compiled_engines(
    fitted_models, query_rows, tmp_path
):
    """Every model kind at every precision: load_compiled == compile_model, bitwise."""
    registry = ModelRegistry(tmp_path)
    for kind in EXACT_KINDS:
        registry.save(kind, fitted_models[kind])
        for precision in ENGINE_PRECISIONS:
            loaded = registry.load_compiled(kind, precision=precision)
            reference = compile_model(fitted_models[kind], precision=precision)
            assert type(loaded) is type(reference)
            np.testing.assert_array_equal(
                loaded.decision_function(query_rows),
                reference.decision_function(query_rows),
            )


def test_registry_narrowing_requantizes(registry_setup):
    """fixed16 -> fixed8 cannot reuse codes; it must requantize (documented)."""
    registry, _, X_test, _ = registry_setup
    engine = registry.load_compiled("fixed16-artifact", precision="fixed8")
    assert isinstance(engine, FixedPointModel)
    assert engine.bits == 8
    assert engine.codes.dtype == np.int8
    assert len(engine.predict(X_test)) == len(X_test)


def test_registry_load_takes_no_engine_options(registry_setup):
    """``load`` rebuilds the model; engines come from ``load_compiled``."""
    registry, _, _, _ = registry_setup
    from repro.serving import RegistryError

    with pytest.raises(TypeError, match="dtype"):
        registry.load("float-artifact", dtype=np.float64)
    with pytest.raises(TypeError, match="precision"):
        registry.load("float-artifact", precision="fixed16")
    with pytest.raises(RegistryError, match="precision"):
        registry.load_compiled("float-artifact", precision="int4")


def test_registry_legacy_load_unchanged(registry_setup):
    registry, model, X_test, _ = registry_setup
    restored = registry.load("float-artifact")
    np.testing.assert_array_equal(restored.predict(X_test), model.predict(X_test))


# ------------------------------------------------------------- bit flips
def test_flip_class_bits_zero_probability_is_identity():
    """At p=0 the perturbation flips no stored bit and draws no
    randomness; at any p it leaves the original model untouched."""
    X, y, _, _ = _blob_problem(seed=6)
    model = BoostHD(total_dim=320, n_learners=4, epochs=2, seed=3).fit(X, y)
    before = [learner.class_hypervectors_.copy() for learner in model.learners_]
    engine = compile_model(model, precision="fixed16")

    def flipped_codes(probability, rng):
        perturbed = perturb_model(model, probability, rng=rng)
        return compile_model(perturbed, precision="fixed16").codes

    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(flipped_codes(0.0, rng), engine.codes)
    assert rng.random() == np.random.default_rng(0).random()
    assert not np.array_equal(flipped_codes(0.3, np.random.default_rng(0)), engine.codes)
    for learner, original in zip(model.learners_, before):
        np.testing.assert_array_equal(learner.class_hypervectors_, original)


def test_a_seeded_flip_is_an_xor_of_the_stored_fixed16_codes(registry_setup):
    """Figure 8 flips the fixed16 codes the registry stores.

    The perturbation draws one uniform mask per bit, lowest bit first, for
    each learner in order; flipping exactly those bits of each learner's
    stored codes and adding the dequantized change gives the perturbed
    hypervectors, bit for bit.  A changed draw order, a misplaced bit or
    another quantizer breaks the equality.
    """
    registry, model, _, _ = registry_setup
    rng = np.random.default_rng(7)
    expected = []
    with np.load(registry.describe("fixed16-artifact").path / "model.npz") as archive:
        for index, learner in enumerate(model.learners_):
            codes = archive[f"learner_{index}_codes"]
            scale = float(archive[f"learner_{index}_scale"])
            mask = np.zeros(codes.shape, dtype=np.uint16)
            for bit in range(16):
                mask |= (rng.random(codes.shape) < 0.01).astype(np.uint16) << np.uint16(bit)
            flipped = codes ^ mask.view(np.int16)
            assert (flipped != codes).any()
            expected.append(
                learner.class_hypervectors_
                + (from_fixed_point(flipped, scale) - from_fixed_point(codes, scale))
            )
    perturbed = perturb_model(model, 0.01, rng=np.random.default_rng(7))
    for learner, values in zip(perturbed.learners_, expected):
        np.testing.assert_array_equal(learner.class_hypervectors_, values)
