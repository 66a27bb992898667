"""Integer-tier scores are row-independent: any split of a batch is bitwise.

The integer-domain kernels quantize each row on its own (packed: the row's
signs; fixed point: the row's own query scale) and score it with exact
arithmetic, so a row's scores never depend on the rows that share its
call, its encoding block or its ``_STEP_BYTES`` row step.  The
contract is literal bit equality, not closeness.  The suite pins it on
deliberately ragged dims — 71-dim learner blocks and a 333-dim OnlineHD,
divisible by neither the 64-bit word nor the 8-bit byte packing — so the
pad-bit paths run under every split:

* scoring ``np.array_split`` row blocks in separate calls, and fixed-size
  row blocks, equals one whole-batch call (score and vote aggregation,
  every integer precision);
* hypothesis: random batch sizes and block sizes, one row at a time;
* cascades, whose margin routing is per row;
* every tier's memory-bounding row steps, forced down to a few rows (the
  float64 tier within the loop-path tolerance, the integer tiers bitwise);
* encoding blocks, forced down to a few rows: ``decision_function``, with
  telemetry off and on, scores exactly the encodings ``encode`` returns.

The encoding matmul is outside the claim (BLAS does not promise bitwise
shape invariance), so every comparison scores one pre-encoded matrix, or
encodings made in the same row blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boosthd import BoostHD
from repro.engine import compile_model
from repro.engine import compile as compile_module
from repro.hdc import OnlineHD
from repro.obs import capture
from test_quant_engine import _score_in_blocks

pytestmark = pytest.mark.quant

INTEGER_PRECISIONS = ("bipolar-packed", "fixed16", "fixed8")
BLOCK_COUNTS = (2, 4, 7)


def _problem(seed=21, n_features=8):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, n_features)) * 2.5
    X = np.vstack([c + rng.standard_normal((30, n_features)) for c in centers])
    y = np.repeat(np.arange(3), 30)
    return X, y


@pytest.fixture(scope="module")
def fitted():
    X, y = _problem()
    return {
        # 426 / 6 = 71-dim learner blocks and a 333-dim OnlineHD: neither
        # divides into 64-bit words or 8-bit bytes, so pad bits are live.
        "boosthd": BoostHD(total_dim=426, n_learners=6, epochs=3, seed=0).fit(X, y),
        "onlinehd": OnlineHD(dim=333, epochs=3, seed=0).fit(X, y),
        "vote": BoostHD(
            total_dim=426, n_learners=6, epochs=3, seed=0, aggregation="vote"
        ).fit(X, y),
    }


def _assert_row_blocks_bitwise(model, precision, n_blocks):
    X, _ = _problem()
    engine = compile_model(model, dtype=np.float64, precision=precision)
    encoded = engine.encode(X)
    whole = engine.score_encoded(encoded)
    blocks = np.array_split(encoded, n_blocks)
    np.testing.assert_array_equal(
        np.concatenate([engine.score_encoded(block) for block in blocks]), whole
    )
    np.testing.assert_array_equal(
        _score_in_blocks(engine, encoded, len(blocks[0])), whole
    )
    np.testing.assert_array_equal(
        engine.predict(X), engine.classes_[np.argmax(whole, axis=1)]
    )


# ------------------------------------------------------------- row blocks
@pytest.mark.parametrize("kind", ("boosthd", "onlinehd"))
@pytest.mark.parametrize("precision", INTEGER_PRECISIONS)
@pytest.mark.parametrize("n_blocks", BLOCK_COUNTS)
def test_row_block_scoring_bit_identical(fitted, kind, precision, n_blocks):
    _assert_row_blocks_bitwise(fitted[kind], precision, n_blocks)


@pytest.mark.parametrize("n_blocks", (2, 4))
def test_vote_row_block_scoring_bit_identical(fitted, n_blocks):
    for precision in ("bipolar-packed", "fixed16"):
        _assert_row_blocks_bitwise(fitted["vote"], precision, n_blocks)


@pytest.mark.parametrize("precision", ("cascade-fixed16",))
def test_cascade_row_block_scoring_bit_identical(fitted, precision):
    """Routing is a per-row margin test, so splits never change a route
    (at the default threshold, which reranks some rows here)."""
    _assert_row_blocks_bitwise(fitted["boosthd"], precision, 4)


@settings(max_examples=20, deadline=None)
@given(n_rows=st.integers(1, 23), block_rows=st.integers(1, 8))
def test_random_shapes_bit_identical(fitted, n_rows, block_rows):
    """Blocks larger/smaller than the batch, odd splits, single rows."""
    rng = np.random.default_rng(n_rows * 31 + block_rows)
    X = rng.standard_normal((n_rows, 8))
    model = fitted["boosthd"]
    for precision in ("bipolar-packed", "fixed8"):
        engine = compile_model(model, dtype=np.float64, precision=precision)
        encoded = engine.encode(X)
        whole = engine.score_encoded(encoded)
        np.testing.assert_array_equal(
            _score_in_blocks(engine, encoded, block_rows), whole
        )
        np.testing.assert_array_equal(
            np.concatenate([engine.score_encoded(row[None]) for row in encoded]),
            whole,
        )


# -------------------------------------------------------------- row steps
def _force_steps(monkeypatch, engine, step_rows):
    """Shrink the step budget so ``engine`` scores ``step_rows`` rows a step."""
    monkeypatch.setattr(compile_module, "_STEP_BYTES", engine._row_bytes * step_rows)


@pytest.mark.parametrize("kind", ("boosthd", "onlinehd", "vote"))
@pytest.mark.parametrize("precision", INTEGER_PRECISIONS)
@pytest.mark.parametrize("step_rows", (1, 4))
def test_row_steps_bit_identical(fitted, monkeypatch, kind, precision, step_rows):
    """The scoring temporary's bounded steps score like one whole-batch pass."""
    X, _ = _problem()
    engine = compile_model(fitted[kind], dtype=np.float64, precision=precision)
    encoded = engine.encode(X)
    whole = engine.score_encoded(encoded)
    _force_steps(monkeypatch, engine, step_rows)
    np.testing.assert_array_equal(engine.score_encoded(encoded), whole)


@pytest.mark.parametrize("kind", ("boosthd", "onlinehd", "vote"))
@pytest.mark.parametrize("step_rows", (1, 4))
def test_float_row_steps_within_loop_path_tolerance(
    fitted, monkeypatch, kind, step_rows
):
    """Float64 steps stay inside the loop-path tolerance of ``test_engine.py``."""
    X, _ = _problem()
    model = fitted[kind]
    engine = compile_model(model, dtype=np.float64)
    encoded = engine.encode(X)
    whole = engine.score_encoded(encoded)
    _force_steps(monkeypatch, engine, step_rows)
    stepped = engine.score_encoded(encoded)
    np.testing.assert_allclose(stepped, whole, atol=1e-9)
    np.testing.assert_allclose(stepped, model.decision_function(X), atol=1e-9)


# --------------------------------------------------------- encoding blocks
def _assert_blocks_score_their_encodings(monkeypatch, engine, block_rows):
    """``decision_function`` in ``block_rows``-row blocks, telemetry off and on,
    equals ``score_encoded`` of what ``encode`` returns, bit for bit."""
    X, _ = _problem()
    monkeypatch.setattr(
        compile_module,
        "_ENCODE_BYTES",
        engine.total_dim * engine.dtype.itemsize * block_rows,
    )
    expected = engine.score_encoded(engine.encode(X))
    np.testing.assert_array_equal(engine.decision_function(X), expected)
    with capture() as (registry, _):
        observed = engine.decision_function(X)
    np.testing.assert_array_equal(observed, expected)
    blocks = registry.histogram(
        "repro_engine_chunk_seconds", precision=engine.precision
    )
    assert blocks.count == -(-len(X) // block_rows)


@pytest.mark.parametrize("kind", ("boosthd", "onlinehd", "vote"))
@pytest.mark.parametrize("precision", INTEGER_PRECISIONS)
def test_encoding_blocks_score_their_encodings_bitwise(
    fitted, monkeypatch, kind, precision
):
    engine = compile_model(fitted[kind], dtype=np.float64, precision=precision)
    _assert_blocks_score_their_encodings(monkeypatch, engine, 7)


@pytest.mark.parametrize("precision", ("cascade-fixed16",))
def test_cascade_encoding_blocks_score_their_encodings_bitwise(
    fitted, monkeypatch, precision
):
    engine = compile_model(fitted["boosthd"], dtype=np.float64, precision=precision)
    _assert_blocks_score_their_encodings(monkeypatch, engine, 7)
