"""Contracts of the multi-process serving fabric (:mod:`repro.serving.fabric`).

The load-bearing guarantees:

* **Shard routing** — :func:`shard_of` is deterministic, uniform over the
  worker range, *independent of the process* (no ``hash()`` salt), and
  pinned to golden values so the routing can never silently change between
  releases (sessions would jump shards mid-deployment).
* **Shared-memory models** — an engine published with
  :func:`publish_engine` and re-attached in any process scores
  bit-identically to the original, through read-only views over the shared
  segment (no per-worker copy), for every supported precision.
* **Fabric equivalence** — N-worker sharded serving produces predictions
  bit-identical to the single-process :class:`StreamingService` at 1, 2
  and 4 workers (integer-domain engines, whose scores are provably
  batch-composition invariant).
* **Hot swap atomicity** — every window submitted before a swap scores
  against the complete old model, every window after against the complete
  new one; nothing is dropped or double-scored.
* **Recovery** — a SIGKILLed worker is rebuilt and its sessions re-opened;
  serving continues.
* **Start-up** — a fabric is always worker processes: a worker that cannot
  start stops the ones already started, unlinks the published segment and
  raises.
"""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import BoostHD
from repro.engine import PRECISIONS, EngineError, compile_model, model_components
from repro.obs import capture
from repro.resilience import (
    CLOSED,
    OPEN,
    CircuitOpenError,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    inject,
)
from repro.serving import (
    ServingFabric,
    StreamingService,
    attach_engine,
    cleanup_orphan_segments,
    publish_engine,
    shard_of,
)
from repro.serving import fabric as fabric_module
from repro.serving.shm import SEGMENT_PREFIX

pytestmark = pytest.mark.fabric

N_CHANNELS = 4
WINDOW = 32
N_FEATURES = N_CHANNELS * 4
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def fitted_pair():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(240, N_FEATURES))
    y = rng.integers(0, 3, size=240)
    model_a = BoostHD(total_dim=1024, n_learners=4, epochs=1, seed=0).fit(X, y)
    model_b = BoostHD(total_dim=1024, n_learners=4, epochs=2, seed=9).fit(X, y)
    return model_a, model_b


@pytest.fixture(scope="module")
def engines(fitted_pair):
    model_a, _ = fitted_pair
    return {
        precision: compile_model(model_a, precision=precision)
        if precision != "float64"
        else compile_model(model_a)
        for precision in ("float64", "bipolar-packed", "fixed16", "fixed8")
    }


def _streams(n_sessions: int, chunks: int, seed: int = 7):
    """Interleaved ``(session_id, raw-chunk)`` items, one window per chunk."""
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(chunks):
        for index in range(n_sessions):
            items.append((f"subject-{index}", rng.normal(size=(N_CHANNELS, WINDOW))))
    return items


def _serve_single(engine, items, n_sessions: int, **options):
    """Single-process reference: same sessions, same chunks, one service."""
    service = StreamingService(
        engine, n_channels=N_CHANNELS, window_samples=WINDOW, **options
    )
    for index in range(n_sessions):
        service.open_session(f"subject-{index}")
    predictions = []
    for session_id, chunk in items:
        predictions.extend(service.push(session_id, chunk))
    predictions.extend(service.drain())
    return predictions


def _by_window(predictions):
    return {(p.session_id, p.window_index): p for p in predictions}


# ------------------------------------------------------------- shard routing
class TestShardRouting:
    @settings(max_examples=200, deadline=None)
    @given(session_id=st.text(max_size=64), n_shards=st.integers(1, 64))
    def test_stable_and_in_range(self, session_id, n_shards):
        """Property: routing is a pure function of (id, n) into range(n)."""
        shard = shard_of(session_id, n_shards)
        assert 0 <= shard < n_shards
        assert shard == shard_of(session_id, n_shards)

    def test_single_shard_takes_everything(self):
        assert shard_of("anything", 1) == 0

    def test_golden_routing_is_pinned(self):
        """Changing the routing function would strand live sessions."""
        assert [shard_of(f"subject-{i}", 4) for i in range(8)] == [
            1, 1, 2, 3, 2, 2, 3, 2,
        ]
        assert shard_of("wesad-S10", 7) == 0
        assert shard_of("", 3) == 0

    def test_routing_survives_process_and_hash_salt(self):
        """The same ids route identically in a fresh interpreter with a
        different PYTHONHASHSEED — builtin hash() would fail this."""
        code = (
            "import sys; sys.path.insert(0, {src!r});"
            "from repro.serving import shard_of;"
            "print([shard_of(f'subject-{{i}}', 5) for i in range(16)])"
        ).format(src=SRC_DIR)
        env = dict(os.environ, PYTHONHASHSEED="98765")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        expected = [shard_of(f"subject-{i}", 5) for i in range(16)]
        assert eval(result.stdout.strip()) == expected

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_of("s", 0)


# ------------------------------------------------------------- shared memory
class TestSharedMemoryModels:
    @pytest.mark.parametrize(
        "precision", ["float64", "bipolar-packed", "fixed16", "fixed8"]
    )
    def test_attach_is_bit_identical_and_zero_copy(
        self, engines, fitted_pair, precision
    ):
        engine = engines[precision]
        parts = model_components(fitted_pair[0])
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(40, N_FEATURES))
        shared = publish_engine(engine, generation=5)
        try:
            attached = attach_engine(shared.manifest)
            try:
                assert attached.generation == 5
                assert np.array_equal(
                    engine.decision_function(queries),
                    attached.engine.decision_function(queries),
                )
                assert np.array_equal(
                    engine.predict(queries), attached.engine.predict(queries)
                )
                # The large arrays are *views* over the shared segment —
                # nothing was copied, nothing is writable.
                for array in (attached.engine._basis2, attached.engine._sin_bias):
                    assert not array.flags.owndata
                    assert not array.flags.writeable
                # One projection array: the doubled basis over the phase bias.
                basis2 = attached.engine._basis2
                doubled = (2.0 * parts.basis).T
                assert np.array_equal(basis2[:-1], doubled.astype(basis2.dtype))
                assert np.array_equal(basis2[-1], parts.bias.astype(basis2.dtype))
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_attach_hashes_the_segment_in_place(self):
        """Verifying checksums on attach must not copy arrays out of the
        segment: that copy lands in every worker's private memory."""
        import tracemalloc

        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, N_FEATURES))
        y = rng.integers(0, 3, size=60)
        model = BoostHD(total_dim=20_000, n_learners=4, epochs=0, seed=0).fit(X, y)
        shared = publish_engine(compile_model(model, precision="fixed16"))
        try:
            largest = max(
                np.dtype(spec["dtype"]).itemsize * int(np.prod(spec["shape"]))
                for spec in shared.manifest["arrays"].values()
            )
            tracemalloc.start()
            try:
                attached = attach_engine(shared.manifest)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            attached.close()
        finally:
            shared.unlink()
        assert peak < largest / 4, f"attach peaked at {peak} B; largest array {largest} B"

    def test_manifest_is_picklable(self, engines):
        import pickle

        shared = publish_engine(engines["fixed16"])
        try:
            clone = pickle.loads(pickle.dumps(shared.manifest))
            assert clone["segment"] == shared.name
        finally:
            shared.unlink()

    def test_attach_after_unlink_fails(self, engines):
        shared = publish_engine(engines["fixed16"])
        manifest = shared.manifest
        shared.unlink()
        with pytest.raises(FileNotFoundError):
            attach_engine(manifest)

    def test_unsupported_engine_rejected(self):
        with pytest.raises(EngineError, match="cannot publish"):
            publish_engine(object())

    def test_orphan_cleanup_reclaims_dead_publishers(self):
        from multiprocessing import resource_tracker, shared_memory

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shm filesystem")
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
        )
        dead_pid = int(probe.stdout)
        name = f"{SEGMENT_PREFIX}{dead_pid}_deadbeef_g0"
        segment = shared_memory.SharedMemory(name=name, create=True, size=64)
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        segment.close()
        live = f"{SEGMENT_PREFIX}{os.getpid()}_cafef00d_g0"
        keeper = shared_memory.SharedMemory(name=live, create=True, size=64)
        try:
            reclaimed = cleanup_orphan_segments()
            assert name in reclaimed
            assert live not in reclaimed  # we are alive
        finally:
            keeper.close()
            keeper.unlink()

    def test_engine_constructors_validate_their_stacks(self, engines):
        """The shm attach constructors adopt stacks as is, or refuse them."""

        def rebuild(engine, **changes):
            options = dict(
                basis2=engine._basis2,
                sin_bias=engine._sin_bias,
                spans=engine.spans,
                alphas=engine.alphas,
                classes=engine.classes_,
                aggregation=engine.aggregation,
                dtype=engine.dtype,
                **{name: getattr(engine, name) for name in engine.STACK},
            )
            return PRECISIONS[engine.precision].make(**{**options, **changes})

        packed, fixed, dense = (
            engines[name] for name in ("bipolar-packed", "fixed16", "float64")
        )
        assert rebuild(packed).words is packed.words
        assert rebuild(fixed).codes is fixed.codes
        assert rebuild(dense)._basis2 is dense._basis2
        with pytest.raises(EngineError, match="basis2 must be"):
            rebuild(dense, basis2=dense._basis2[:1])
        with pytest.raises(EngineError, match="sin_bias of shape"):
            rebuild(dense, sin_bias=dense._sin_bias[:-1])
        with pytest.raises(EngineError, match="uint64"):
            rebuild(packed, words=packed.words.astype(np.int64))
        with pytest.raises(EngineError, match="words of shape"):
            rebuild(packed, words=packed.words[..., :-1])
        with pytest.raises(EngineError, match="int16"):
            rebuild(fixed, codes=fixed.codes.astype(np.float64))
        with pytest.raises(EngineError, match="int16"):
            rebuild(fixed, codes=fixed.codes.astype(np.int8))
        with pytest.raises(EngineError, match="codes of shape"):
            rebuild(fixed, codes=fixed.codes[:, :-1])
        with pytest.raises(EngineError, match="inv_norms"):
            rebuild(fixed, inv_norms=fixed.inv_norms[:, :-1])
        with pytest.raises(EngineError, match="weights must be"):
            rebuild(dense, weights=dense.weights.astype(np.float64))
        with pytest.raises(EngineError, match="alphas"):
            rebuild(dense, alphas=dense.alphas[:-1])
        spans = fixed.spans
        for bad in (spans[::-1], spans + 1, np.vstack([spans[:1], spans[2:]])):
            with pytest.raises(EngineError, match="tile"):
                rebuild(fixed, spans=bad)


# --------------------------------------------------------------- equivalence
class TestFabricEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("precision", ["bipolar-packed", "fixed16", "fixed8"])
    def test_sharded_serving_matches_single_process(
        self, engines, n_workers, precision
    ):
        """The fabric's predictions are bit-identical to one service's."""
        engine = engines[precision]
        items = _streams(n_sessions=6, chunks=8)
        reference = _by_window(_serve_single(engine, items, 6, max_batch=8))
        with ServingFabric(
            engine,
            n_workers=n_workers,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=8,
        ) as fabric:
            assert fabric.n_workers == n_workers
            for index in range(6):
                fabric.open_session(f"subject-{index}")
            predictions = fabric.route(items)
            predictions.extend(fabric.drain())
        assert len(predictions) == len(reference)
        for prediction in predictions:
            expected = reference[(prediction.session_id, prediction.window_index)]
            assert prediction == expected

    def test_push_and_route_agree(self, engines):
        engine = engines["fixed16"]
        items = _streams(n_sessions=3, chunks=4)
        with ServingFabric(
            engine,
            n_workers=2,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=4,
        ) as fabric:
            for index in range(3):
                fabric.open_session(f"subject-{index}")
            one_by_one = []
            for session_id, chunk in items:
                one_by_one.extend(fabric.push(session_id, chunk))
            one_by_one.extend(fabric.drain())
        reference = _by_window(_serve_single(engine, items, 3, max_batch=4))
        assert _by_window(one_by_one).keys() == reference.keys()

    def test_session_bookkeeping(self, engines):
        with ServingFabric(
            engines["fixed16"],
            n_workers=2,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
        ) as fabric:
            shard = fabric.open_session("alpha")
            assert shard == shard_of("alpha", 2)
            assert fabric.sessions == ("alpha",)
            with pytest.raises(ValueError, match="already open"):
                fabric.open_session("alpha")
            with pytest.raises(KeyError):
                fabric.push("ghost", np.zeros((N_CHANNELS, 1)))
            fabric.close_session("alpha")
            assert fabric.sessions == ()
            with pytest.raises(KeyError):
                fabric.close_session("alpha")


# ------------------------------------------------------------------ hot swap
class _ConstantScorer:
    """Scores every window as ``value`` — makes 'which model?' observable."""

    def __init__(self, value: int, n_classes: int = 3) -> None:
        self.value = value
        self.classes_ = np.arange(n_classes)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((len(X), len(self.classes_)))
        scores[:, self.value] = 1.0
        return scores


class TestHotSwap:
    def test_service_swap_scorer_is_atomic(self):
        """Pending windows score on the OLD scorer, later ones on the NEW."""
        service = StreamingService(
            _ConstantScorer(0),
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=10_000,
            max_wait=1e9,
        )
        service.open_session("s")
        for _, chunk in _streams(1, 5):
            assert service.push("s", chunk) == []  # everything stays pending
        flushed = list(service.swap(_ConstantScorer(1)).flushed)
        assert [p.label for p in flushed] == [0] * 5
        for _, chunk in _streams(1, 3):
            service.push("s", chunk)
        after = service.drain()
        assert [p.label for p in after] == [1] * 3
        windows = [(p.session_id, p.window_index) for p in flushed + after]
        assert sorted(windows) == [("s", i) for i in range(8)]  # none lost/doubled

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_fabric_swap_no_drop_no_double(self, fitted_pair, n_workers):
        model_a, model_b = fitted_pair
        engine_a = compile_model(model_a, precision="fixed16")
        engine_b = compile_model(model_b, precision="fixed16")
        items = _streams(n_sessions=4, chunks=3)
        with ServingFabric(
            engine_a,
            n_workers=n_workers,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=10_000,
            max_wait=1e9,
        ) as fabric:
            for index in range(4):
                fabric.open_session(f"subject-{index}")
            assert fabric.route(items) == []  # all windows pending
            assert fabric.generation == 0
            result = fabric.swap(engine_b)
            assert result.promoted and result.generation == 1
            assert fabric.generation == 1
            # Flushed-by-swap predictions are exactly the pending windows,
            # scored on the complete OLD engine.
            reference_a = _by_window(
                _serve_single(engine_a, items, 4, max_batch=10_000, max_wait=1e9)
            )
            assert _by_window(result.flushed).keys() == reference_a.keys()
            for prediction in result.flushed:
                expected = reference_a[
                    (prediction.session_id, prediction.window_index)
                ]
                assert prediction.label == expected.label
                assert np.array_equal(prediction.scores, expected.scores)
            # Windows submitted after the swap score on the NEW engine.
            later = _streams(n_sessions=4, chunks=2, seed=23)
            after = fabric.route(later) + fabric.drain()
            assert len(after) == 8
            for info in fabric.worker_info():
                assert info["generation"] == 1
            seen = [
                (p.session_id, p.window_index)
                for p in list(result.flushed) + after
            ]
            assert len(seen) == len(set(seen)) == 20  # no drops, no doubles

    @pytest.mark.parametrize(
        "n_workers, failing", [(2, 0), (2, 1), (3, 1)], ids=["first", "last", "middle"]
    )
    def test_a_failed_shard_swap_leaves_every_shard_on_the_live_model(
        self, fitted_pair, n_workers, failing
    ):
        """A shard whose swap call fails declines the whole swap.

        The shards walked before it are swapped back; the windows they
        flushed come back scored on the old engine; every shard stays on
        generation 0 and keeps scoring with the old model; the incoming
        segment is gone.
        """
        model_a, model_b = fitted_pair
        engine_a = compile_model(model_a, precision="fixed16")
        engine_b = compile_model(model_b, precision="fixed16")
        by_shard = {}
        for index in range(50):
            by_shard.setdefault(shard_of(f"subject-{index}", n_workers), f"subject-{index}")
        sessions = [by_shard[shard] for shard in range(n_workers)]
        rng = np.random.default_rng(5)
        items = [
            (session, rng.normal(size=(N_CHANNELS, WINDOW)))
            for _ in range(3)
            for session in sessions
        ]
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    point="fabric.worker.call",
                    kind="exception",
                    at=(1,),
                    match=(("method", "swap"), ("shard", failing)),
                ),
            )
        )
        head = f"{SEGMENT_PREFIX}{os.getpid()}"
        with capture() as (registry, _), inject(plan), ServingFabric(
            engine_a,
            n_workers=n_workers,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=10_000,
            max_wait=1e9,
        ) as fabric:
            for session in sessions:
                fabric.open_session(session)
            assert fabric.route(items) == []
            result = fabric.swap(engine_b)
            assert not result.promoted
            assert result.generation == fabric.generation == 0
            assert f"shard {failing} failed to swap" in result.reason
            assert registry.counter("repro_fabric_swaps_rejected_total").value == 1
            assert [info["generation"] for info in fabric.worker_info()] == [0] * n_workers
            if os.path.isdir("/dev/shm"):
                assert [
                    name for name in os.listdir("/dev/shm") if name.startswith(head)
                ] == [fabric._shared.name]
            later = [(session, rng.normal(size=(N_CHANNELS, WINDOW))) for session in sessions]
            after = fabric.route(later) + fabric.drain()
        # The walked shards flushed their windows; the rest stayed pending.
        walked = {session for session in sessions if shard_of(session, n_workers) < failing}
        assert {p.session_id for p in result.flushed} == walked
        assert len(result.flushed) == 3 * len(walked)
        service = StreamingService(
            engine_a,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=10_000,
            max_wait=1e9,
        )
        for session in sessions:
            service.open_session(session)
        for session, samples in items + later:
            service.push(session, samples)
        reference = _by_window(service.drain())
        delivered = list(result.flushed) + after
        assert _by_window(delivered).keys() == reference.keys()
        assert len(delivered) == len(reference)  # none lost, none doubled
        for prediction in delivered:
            expected = reference[(prediction.session_id, prediction.window_index)]
            assert np.array_equal(prediction.scores, expected.scores)

    def test_old_segment_is_unlinked_after_swap(self, engines, fitted_pair):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shm filesystem")
        _, model_b = fitted_pair
        engine_b = compile_model(model_b, precision="fixed16")
        with ServingFabric(
            engines["fixed16"],
            n_workers=2,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
        ) as fabric:
            first = {
                n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)
            }
            assert len(first) == 1
            fabric.swap(engine_b)
            second = {
                n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)
            }
            assert len(second) == 1 and second != first
        assert not [
            n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)
        ]


# ------------------------------------------------------------------ recovery
class TestRecovery:
    def test_killed_worker_is_rebuilt_and_serving_continues(self, engines):
        with ServingFabric(
            engines["fixed16"],
            n_workers=2,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=1,
        ) as fabric:
            for index in range(4):
                fabric.open_session(f"subject-{index}")
            first = fabric.route(_streams(4, 2))
            assert len(first) == 8
            os.kill(fabric.worker_info()[0]["pid"], signal.SIGKILL)
            time.sleep(0.2)
            second = fabric.route(_streams(4, 2))
            assert fabric.restarts >= 1
            # Recovered sessions restart their windowing, but every shard
            # keeps serving every session.
            assert len(second) + len(fabric.drain()) == 8
            third = fabric.route(_streams(4, 2)) + fabric.drain()
            assert len(third) == 8


# ------------------------------------------------------------- configuration
class TestWorkerResolution:
    def test_explicit_argument_beats_env(self, monkeypatch, engines):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "4")
        with ServingFabric(
            engines["fixed16"],
            n_workers=1,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
        ) as fabric:
            assert fabric.n_workers == 1
            assert len(fabric.worker_info()) == 1

    def test_env_sizes_the_fabric(self, monkeypatch, engines):
        """A fabric sizes itself like every other pool: ``REPRO_MAX_WORKERS``."""
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        with ServingFabric(
            engines["fixed16"],
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
        ) as fabric:
            assert fabric.n_workers == 2
            assert len({info["pid"] for info in fabric.worker_info()}) == 2


# ------------------------------------------------------------------ start-up
#: A fault that wedges a worker's first call, the start-up ``info`` call,
#: for 4 s; chaos hit counters are per worker, so every new worker hits it.
WEDGED_START_UP = FaultSpec(
    point="fabric.worker.call", kind="delay", delay=4.0, at=(1,)
)


class TestStartup:
    @pytest.mark.parametrize(
        "match", [(), (("shard", 1),)], ids=["first-worker", "second-worker"]
    )
    def test_a_worker_that_cannot_start_fails_the_fabric(
        self, engines, monkeypatch, match
    ):
        """No in-process fallback: started workers stop, the segment goes."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shm filesystem")
        started = []
        spawn = fabric_module._ProcessShard._spawn

        def recording(shard):
            pool = spawn(shard)
            started.append(shard.pid)
            return pool

        monkeypatch.setattr(fabric_module._ProcessShard, "_spawn", recording)
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    point="fabric.worker.call", kind="sigkill", at=(1,), match=match
                ),
            )
        )
        with inject(plan), pytest.raises(BrokenProcessPool):
            ServingFabric(
                engines["fixed16"],
                n_workers=2,
                n_channels=N_CHANNELS,
                window_samples=WINDOW,
            )
        assert len(started) == (1 if match else 0)
        head = f"{SEGMENT_PREFIX}{os.getpid()}"
        assert not [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith((f"{head}.", f"{head}_"))
        ]
        for pid in started:  # shut down and reaped, not left serving
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_worker_that_wedges_at_start_up_times_out(self, engines, monkeypatch):
        """The start-up call is bounded by ``call_timeout``: the wedged
        worker is killed and reaped, the segment goes, and the constructor
        raises instead of waiting out the hang."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shm filesystem")
        killed = []
        kill = fabric_module._ProcessShard.kill

        def recording(shard):
            killed.append(shard.pid)
            kill(shard)

        monkeypatch.setattr(fabric_module._ProcessShard, "kill", recording)
        plan = FaultPlan(faults=(WEDGED_START_UP,))
        start = time.perf_counter()
        with inject(plan), pytest.raises(FuturesTimeoutError):
            ServingFabric(
                engines["fixed16"],
                n_workers=1,
                call_timeout=0.5,
                n_channels=N_CHANNELS,
                window_samples=WINDOW,
            )
        assert time.perf_counter() - start < 0.5 + 1.0
        assert len(killed) == 1
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(killed[0], 0)
        head = f"{SEGMENT_PREFIX}{os.getpid()}"
        assert not [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith((f"{head}.", f"{head}_"))
        ]

    def test_a_wedged_rebuild_fails_the_call_through_the_breaker(self, engines):
        """Recovery restarts a worker under the same bound: a rebuild that
        wedges fails the call and counts on the breaker, within the timeout."""
        with ServingFabric(
            engines["fixed16"],
            n_workers=1,
            call_timeout=0.5,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
        ) as fabric:
            fabric.breakers[0].failure_threshold = 1
            fabric.breakers[0].probe_interval = 60.0
            fabric.open_session("s")
            os.kill(fabric.worker_info()[0]["pid"], signal.SIGKILL)
            start = time.perf_counter()
            with inject(FaultPlan(faults=(WEDGED_START_UP,))):
                with pytest.raises(FuturesTimeoutError):
                    fabric.push("s", np.zeros((N_CHANNELS, WINDOW)))
            assert time.perf_counter() - start < 0.5 + 1.0
            assert fabric.breakers[0].state == OPEN
            with pytest.raises(CircuitOpenError):
                fabric.push("s", np.zeros((N_CHANNELS, WINDOW)))

    def test_a_failed_rebuild_recovers_on_the_next_probe(self, engines):
        """A shard whose rebuild failed is not left holding a dead pool: the
        breaker's next probe rebuilds it and the shard serves again."""
        with ServingFabric(
            engines["fixed16"],
            n_workers=1,
            call_timeout=0.5,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
        ) as fabric:
            fabric.breakers[0].failure_threshold = 1
            fabric.breakers[0].probe_interval = 0.2
            fabric.open_session("s")
            os.kill(fabric.worker_info()[0]["pid"], signal.SIGKILL)
            with inject(FaultPlan(faults=(WEDGED_START_UP,))):
                with pytest.raises(FuturesTimeoutError):
                    fabric.push("s", np.zeros((N_CHANNELS, WINDOW)))
            time.sleep(0.3)  # past the probe interval
            predictions = fabric.push("s", np.zeros((N_CHANNELS, WINDOW)))
            predictions += fabric.drain()
            assert [p.window_index for p in predictions] == [0]
            assert fabric.breakers[0].state == CLOSED
            assert fabric.restarts == 1

    def test_start_up_reclaims_a_dead_fabrics_segment(self, engines):
        """Orphan cleanup is not optional: every fabric start runs it."""
        from multiprocessing import resource_tracker, shared_memory

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shm filesystem")
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
        )
        name = f"{SEGMENT_PREFIX}{int(probe.stdout)}_deadbeef_g0"
        segment = shared_memory.SharedMemory(name=name, create=True, size=64)
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        segment.close()
        assert name in os.listdir("/dev/shm")
        with ServingFabric(
            engines["fixed16"],
            n_workers=1,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
        ):
            assert name not in os.listdir("/dev/shm")


# ------------------------------------------------------------------ options
@pytest.mark.parametrize(
    "option, value, error",
    [
        pytest.param("bogus_option", 1, TypeError, id="bogus_option"),
        pytest.param("degrade_deadline", 1, TypeError, id="degrade_deadline"),
        pytest.param("max_batch", 0, ValueError, id="max_batch"),
        pytest.param("smoothing_window", 0, ValueError, id="smoothing_window"),
    ],
)
def test_unknown_service_option_raises_before_anything_starts(
    engines, monkeypatch, option, value, error
):
    """An option no worker service takes, or a value it refuses (the
    windowing every session shares included), fails in the parent, up
    front."""
    calls = []

    def recorder(name, real):
        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return record

    for name in ("publish_engine", "_ProcessShard"):
        monkeypatch.setattr(
            fabric_module, name, recorder(name, getattr(fabric_module, name))
        )
    with pytest.raises(error, match=option):
        ServingFabric(
            engines["fixed16"],
            n_workers=2,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            **{option: value},
        )
    assert calls == []


# --------------------------------------------------------------- inspection
class TestInspection:
    def test_worker_info_stats_and_repr(self, engines):
        with ServingFabric(
            engines["fixed16"],
            n_workers=2,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=4,
        ) as fabric:
            for index in range(4):
                fabric.open_session(f"subject-{index}")
            fabric.route(_streams(4, 2))
            fabric.drain()
            info = fabric.worker_info()
            assert len(info) == 2
            pids = {entry["pid"] for entry in info}
            assert len(pids) == 2 and os.getpid() not in pids  # worker processes
            stats = fabric.stats()
            assert sum(entry["windows"] for entry in stats) == 8
            assert sum(entry["score_failures"] for entry in stats) == 0
            assert fabric.model_bytes > 0
            assert "ServingFabric(" in repr(fabric)

    def test_dead_letters_are_gathered_and_replayed_across_shards(self, engines):
        """Each shard's dead letters reach the parent; replay sums the shards."""
        sessions = ("subject-0", "subject-2")
        assert {shard_of(session_id, 2) for session_id in sessions} == {0, 1}
        rng = np.random.default_rng(4)
        items = [(s, rng.normal(size=(N_CHANNELS, 2 * WINDOW))) for s in sessions]
        # Hit counters are per worker: each worker's first six batches fail,
        # and the sixth failure dead-letters the windows (five retries).
        plan = FaultPlan(
            faults=(FaultSpec(point="scheduler.score", kind="exception", at=tuple(range(1, 7))),)
        )
        with inject(plan), ServingFabric(
            engines["fixed16"],
            n_workers=2,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
            max_batch=2,
        ) as fabric:
            for session_id in sessions:
                fabric.open_session(session_id)
            with pytest.raises(FaultInjected):
                fabric.route(items)  # both shards' batches fail
            for _ in range(5):
                with pytest.raises(FaultInjected):
                    fabric.drain()  # each shard retries its batch
            expected = sorted((s, index) for s in sessions for index in (0, 1))
            letters = fabric.dead_letters
            assert sorted((d.session_id, d.window_index) for d in letters) == expected
            replayed, predictions = fabric.replay_dead_letters()
            assert replayed == 4
            assert sorted((p.session_id, p.window_index) for p in predictions) == expected
            assert fabric.dead_letters == []

    def test_every_fan_out_call_fails_fast_on_an_open_breaker(self, engines):
        """Calls that reach every shard admit every shard first: an open
        breaker fails them without a worker round trip or a rebuild."""
        with ServingFabric(
            engines["fixed16"],
            n_workers=2,
            n_channels=N_CHANNELS,
            window_samples=WINDOW,
        ) as fabric:
            breaker = fabric.breakers[0]
            breaker.probe_interval = 60.0
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            assert breaker.state == OPEN
            calls = {
                "drain": fabric.drain,
                "dead_letters": lambda: fabric.dead_letters,
                "replay_dead_letters": fabric.replay_dead_letters,
                "worker_info": fabric.worker_info,
                "stats": fabric.stats,
            }
            for name, call in calls.items():
                with pytest.raises(CircuitOpenError, match="shard 0"):
                    call()
            assert fabric.restarts == 0
            assert fabric.breakers[1].state == CLOSED


# ----------------------------------------------------------------- shutdown
def test_a_gateway_over_a_fabric_shuts_down_without_a_leaked_segment():
    """The gateway shuts its fabric down, and so does the fabric's owner:
    the second shutdown must not leave a resource-tracker entry behind."""
    code = """
import asyncio, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.core import BoostHD
from repro.engine import compile_model
from repro.gateway import Gateway
from repro.serving import ServingFabric

rng = np.random.default_rng(0)
X, y = rng.normal(size=(60, {features})), rng.integers(0, 3, size=60)
model = BoostHD(total_dim=240, n_learners=3, epochs=1, seed=0).fit(X, y)
fabric = ServingFabric(
    compile_model(model, precision="fixed16"),
    n_workers=2,
    n_channels={channels},
    window_samples={window},
)

async def serve():
    gateway = Gateway(fabric)
    await gateway.start()
    await gateway.shutdown(2.0)

asyncio.run(serve())
fabric.shutdown()
print("shut down")
""".format(src=SRC_DIR, features=N_FEATURES, channels=N_CHANNELS, window=WINDOW)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "shut down"
    assert "leaked shared_memory" not in result.stderr
