"""Contracts of the resilience layer (:mod:`repro.resilience`) and its wiring.

The house invariant under test throughout: **no window lost, no window
double-scored, bit-identical predictions when no fault fires**.  Every
failure-handling behaviour is exercised *on demand* through the seeded chaos
harness — never by hoping a real fault occurs:

* **Policies** — :class:`Deadline` budgets and the :class:`CircuitBreaker`
  state machine are unit-tested against injected clocks (no sleeping, no
  flakiness).
* **Chaos harness** — :class:`FaultPlan` round-trips through JSON, fires at
  exact hit indices / seeded probabilities, and is **off by default**
  (asserted in a subprocess with a bare environment).
* **Scheduler** — bounded retries dead-letter poisonous windows instead of
  wedging the queue; ``max_pending`` sheds the oldest window as an explicit
  :data:`SHED` prediction; the accounting identity
  ``submitted == scored + shed + dead + pending`` holds at every quiescent
  point.
* **Integrity** — corrupt shared-memory segments are refused at attach, at
  fabric construction (before any worker starts), at worker recovery and
  at swap; torn registry writes are refused at load; a crashed save leaves
  no published version behind.
* **Fabric** (tier-2, marked ``slow``) — hung workers are killed and
  recovered under ``call_timeout`` (drain/swap can never block forever),
  breakers trip on unrecoverable shards and re-close after a successful
  probe, and a SIGKILL during swap leaves the fabric consistent.
"""

import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import BoostHD
from repro.engine import compile_model
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CHAOS,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    corrupt_bytes,
    inject,
)
from repro.resilience.chaos import CHAOS_ENV
from repro.serving import (
    SHED,
    IntegrityError,
    MicroBatchScheduler,
    ModelRegistry,
    RegistryError,
    ServingFabric,
    StreamingService,
    attach_engine,
    cleanup_orphan_segments,
    publish_engine,
    verify_manifest,
)
from repro.serving import fabric as fabric_module
from repro.serving.shm import SEGMENT_PREFIX, _process_start_token, _segment_name

pytestmark = pytest.mark.resilience

N_CHANNELS = 4
WINDOW = 32
N_FEATURES = N_CHANNELS * 4
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class FakeClock:
    """Injectable monotonic clock for deterministic policy tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubScorer:
    """Deterministic scorer whose scores are a pure function of the input."""

    classes_ = np.array([0, 1, 2])

    def decision_function(self, X):
        X = np.asarray(X)
        total = X.sum(axis=1)
        return np.column_stack([total, -total, np.zeros(len(X))])


class FailingScorer:
    """A scorer that always raises — drives retry/dead-letter paths."""

    classes_ = np.array([0, 1, 2])

    def __init__(self):
        self.calls = 0

    def decision_function(self, X):
        self.calls += 1
        raise RuntimeError("scorer down")


@pytest.fixture(scope="module")
def fitted_model():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(240, N_FEATURES))
    y = rng.integers(0, 3, size=240)
    return BoostHD(total_dim=1024, n_learners=4, epochs=2, seed=0).fit(X, y)


@pytest.fixture(scope="module")
def feature_batch():
    return np.random.default_rng(23).normal(size=(8, N_FEATURES))


def _chunks(n_sessions, n_chunks, seed=5):
    rng = np.random.default_rng(seed)
    return [
        (f"subject-{s}", rng.normal(size=(N_CHANNELS, WINDOW)))
        for _ in range(n_chunks)
        for s in range(n_sessions)
    ]


# ------------------------------------------------------------------ deadline
class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(math.inf)
        assert deadline.remaining() == math.inf
        assert not deadline.expired
        assert deadline.budget() is None
        assert deadline.budget(2.5) == 2.5
        deadline.check()  # never raises

    def test_budget_caps_by_remaining(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.budget(10.0) == pytest.approx(1.0)
        clock.advance(0.6)
        assert deadline.remaining() == pytest.approx(0.4)
        assert deadline.budget(0.1) == pytest.approx(0.1)

    def test_expired_deadline_checks_and_zero_budget(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        assert deadline.budget() == 0.0
        with pytest.raises(DeadlineExceeded, match="push"):
            deadline.check("push")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-0.1)


# ------------------------------------------------------------------- breaker
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.trips == 0
        breaker.record_failure()
        assert breaker.state == OPEN and breaker.trips == 1

    def test_open_fails_fast_until_probe_then_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, probe_interval=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.time_until_probe() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.recoveries == 1

    def test_half_open_failure_re_trips(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and breaker.trips == 2
        assert not breaker.allow()

    def test_circuit_open_error_pickles_with_retry_in(self):
        error = CircuitOpenError("shard 2 open", retry_in=0.75)
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "shard 2 open"
        assert clone.retry_in == 0.75


# --------------------------------------------------------------------- chaos
class TestChaosHarness:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(point="x", kind="explode", at=(1,))
        with pytest.raises(ValueError, match="can never fire"):
            FaultSpec(point="x", kind="exception")

    def test_plan_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            faults=(
                FaultSpec(point="a", kind="delay", at=(2, 4), delay=0.5),
                FaultSpec(
                    point="b",
                    kind="exception",
                    probability=0.25,
                    match=(("method", "push_many"),),
                    limit=3,
                    message="injected",
                ),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_fires_at_exact_hit_indices_with_match_filter(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    point="p", kind="exception", at=(2,), match=(("shard", 1),)
                ),
            )
        )
        with inject(plan) as chaos:
            chaos.hit("p", shard=0)  # filtered: does not count as a hit
            chaos.hit("p", shard=1)  # matching hit 1: no fire
            with pytest.raises(FaultInjected) as excinfo:
                chaos.hit("p", shard=1)  # matching hit 2: fires
            assert excinfo.value.point == "p"
            chaos.hit("p", shard=1)  # hit 3: past `at`, silent
            assert chaos.fired() == 1

    def test_limit_caps_probabilistic_fires(self):
        plan = FaultPlan(
            seed=11,
            faults=(FaultSpec(point="p", kind="exception", probability=1.0, limit=2),),
        )
        with inject(plan) as chaos:
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    chaos.hit("p")
            chaos.hit("p")  # limit reached: silent
            assert chaos.fired() == 2

    def test_probabilistic_firing_is_reproducible(self):
        plan = FaultPlan(
            seed=3,
            faults=(FaultSpec(point="p", kind="exception", probability=0.4),),
        )

        def pattern():
            fired = []
            with inject(plan) as chaos:
                for _ in range(40):
                    try:
                        chaos.hit("p")
                        fired.append(False)
                    except FaultInjected:
                        fired.append(True)
            return fired

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_corrupt_spec_is_returned_not_applied(self):
        spec = FaultSpec(point="p", kind="corrupt", at=(1,))
        with inject(FaultPlan(faults=(spec,))) as chaos:
            returned = chaos.hit("p")
            assert returned is spec
            data = bytearray(b"\x00" * 64)
            offsets = corrupt_bytes(data, chaos.spec_rng(spec))
            assert len(offsets) == 4
            assert all(data[offset] == 0xFF for offset in offsets)

    def test_inject_scoping_restores_previous_state(self):
        assert not CHAOS.enabled
        outer = FaultPlan(seed=1, faults=(FaultSpec(point="a", kind="delay", at=(1,)),))
        inner = FaultPlan(seed=2, faults=(FaultSpec(point="b", kind="delay", at=(1,)),))
        with inject(outer):
            with inject(inner):
                assert CHAOS.plan == inner
            assert CHAOS.enabled and CHAOS.plan == outer
        assert not CHAOS.enabled and CHAOS.plan is None

    def test_chaos_is_off_by_default_in_a_bare_interpreter(self):
        env = {k: v for k, v in os.environ.items() if k != CHAOS_ENV}
        env["PYTHONPATH"] = SRC_DIR
        probe = "from repro.resilience.chaos import CHAOS; print(CHAOS.enabled)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert result.stdout.strip() == "False"

    def test_env_var_installs_the_plan(self):
        plan = FaultPlan(seed=9, faults=(FaultSpec(point="p", kind="delay", at=(1,)),))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env[CHAOS_ENV] = plan.to_json()
        probe = (
            "from repro.resilience.chaos import CHAOS; "
            "print(CHAOS.enabled, CHAOS.plan.seed)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert result.stdout.strip() == "True 9"


# ----------------------------------------------------- scheduler: dead letters
class TestSchedulerRetryBudget:
    def test_exhausted_windows_are_dead_lettered_not_requeued(self):
        scorer = FailingScorer()
        scheduler = MicroBatchScheduler(scorer, max_retries=2, max_wait=0.0)
        scheduler.submit("s", 0, np.ones(N_FEATURES))
        for _ in range(3):  # attempts 1..3; the third exceeds max_retries=2
            with pytest.raises(RuntimeError, match="scorer down"):
                scheduler.flush()
        assert scheduler.pending == 0
        assert len(scheduler.dead_letters) == 1
        letter = scheduler.dead_letters[0]
        assert (letter.session_id, letter.window_index) == ("s", 0)
        assert letter.attempts == 3
        assert "scorer down" in letter.error
        assert np.array_equal(letter.features, np.ones(N_FEATURES))
        assert scheduler.stats.windows_dead == 1
        assert scheduler.flush() == []  # the queue is no longer wedged

    def test_max_retries_none_retries_forever(self):
        scheduler = MicroBatchScheduler(FailingScorer(), max_retries=None, max_wait=0.0)
        scheduler.submit("s", 0, np.ones(N_FEATURES))
        for _ in range(10):
            with pytest.raises(RuntimeError):
                scheduler.flush()
        assert scheduler.pending == 1 and not scheduler.dead_letters

    def test_recovered_scorer_keeps_surviving_windows(self):
        class FlakyScorer(StubScorer):
            def __init__(self, failures):
                self.remaining = failures

            def decision_function(self, X):
                if self.remaining > 0:
                    self.remaining -= 1
                    raise RuntimeError("transient")
                return super().decision_function(X)

        scheduler = MicroBatchScheduler(FlakyScorer(2), max_retries=5, max_wait=0.0)
        scheduler.submit("s", 0, np.ones(N_FEATURES))
        for _ in range(2):
            with pytest.raises(RuntimeError):
                scheduler.flush()
        predictions = scheduler.flush()
        assert [p.window_index for p in predictions] == [0]
        assert scheduler.stats.score_failures == 2
        assert not scheduler.dead_letters

    def test_chaos_scheduler_score_point_drives_a_retry(self):
        plan = FaultPlan(
            faults=(FaultSpec(point="scheduler.score", kind="exception", at=(1,)),)
        )
        scheduler = MicroBatchScheduler(StubScorer(), max_wait=0.0)
        scheduler.submit("s", 0, np.ones(N_FEATURES))
        with inject(plan):
            with pytest.raises(FaultInjected):
                scheduler.flush()
            assert scheduler.pending == 1  # window survived the injected fault
            predictions = scheduler.flush()
        assert len(predictions) == 1 and not predictions[0].shed


# -------------------------------------------------------- scheduler: shedding
class TestSchedulerShedding:
    def test_overflow_sheds_oldest_as_explicit_predictions(self):
        scheduler = MicroBatchScheduler(
            StubScorer(), max_batch=64, max_wait=999.0, max_pending=2
        )
        for index in range(4):
            scheduler.submit("s", index, np.full(N_FEATURES, float(index)))
        assert scheduler.pending == 2
        shed = scheduler.pump()  # delivers shed markers even with no batch due
        assert [p.window_index for p in shed] == [0, 1]  # oldest first
        for prediction in shed:
            assert prediction.shed and prediction.label is SHED
            assert np.all(np.isnan(prediction.scores))
            assert prediction.batch_size == 0
            assert not prediction.scores.flags.writeable
        scored = scheduler.flush()
        assert sorted(p.window_index for p in scored) == [2, 3]
        assert not any(p.shed for p in scored)

    def test_accounting_identity_holds(self):
        scheduler = MicroBatchScheduler(
            StubScorer(), max_batch=64, max_wait=999.0, max_pending=3
        )
        for index in range(5):
            scheduler.submit("s", index, np.ones(N_FEATURES))
        stats = scheduler.stats
        assert stats.windows_submitted == 5
        assert (
            stats.windows_submitted
            == stats.windows_scored
            + stats.windows_shed
            + stats.windows_dead
            + scheduler.pending
        )
        scheduler.flush()
        assert (
            stats.windows_submitted
            == stats.windows_scored
            + stats.windows_shed
            + stats.windows_dead
            + scheduler.pending
        )
        assert stats.windows_scored == 3 and stats.windows_shed == 2

    def test_shed_sentinel_is_a_cross_process_singleton(self):
        assert pickle.loads(pickle.dumps(SHED)) is SHED
        assert repr(SHED) == "SHED"

    def test_shed_survives_a_raising_fused_call(self):
        scorer = FailingScorer()
        scheduler = MicroBatchScheduler(
            scorer, max_wait=999.0, max_pending=1, max_retries=None
        )
        scheduler.submit("s", 0, np.ones(N_FEATURES))
        scheduler.submit("s", 1, np.ones(N_FEATURES))  # sheds window 0
        with pytest.raises(RuntimeError):
            scheduler.flush()
        # The shed marker was not lost into the exception: still deliverable
        # (pump has no batch due under max_wait, so it only drains the shed).
        shed = scheduler.pump()
        assert [p.window_index for p in shed] == [0] and shed[0].shed


# ------------------------------------------------------- service: bounds wiring
def test_service_wires_the_scheduler_bounds(fitted_model):
    fixed = compile_model(fitted_model, precision="fixed16")
    service = StreamingService(
        fixed,
        n_channels=N_CHANNELS,
        window_samples=WINDOW,
        max_pending=128,
    )
    assert service.scheduler.max_pending == 128
    assert service.scheduler.max_retries == 5
    service.swap(compile_model(fitted_model, precision="fixed16"))
    assert service.scheduler.max_pending == 128
    assert service.scheduler.max_retries == 5


# --------------------------------------------------------------- shm integrity
class TestSegmentIntegrity:
    @pytest.fixture(autouse=True)
    def _require_shm(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shm filesystem")

    def test_clean_publish_verifies_and_attaches(self, fitted_model, feature_batch):
        engine = compile_model(fitted_model, precision="fixed16")
        shared = publish_engine(engine)
        try:
            verify_manifest(shared.manifest)
            attached = attach_engine(shared.manifest)
            try:
                np.testing.assert_array_equal(
                    attached.engine.decision_function(feature_batch),
                    engine.decision_function(feature_batch),
                )
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_corrupt_segment_is_refused(self, fitted_model):
        engine = compile_model(fitted_model, precision="fixed16")
        plan = FaultPlan(
            seed=3, faults=(FaultSpec(point="shm.publish", kind="corrupt", at=(1,)),)
        )
        with inject(plan):
            shared = publish_engine(engine)
        try:
            with pytest.raises(IntegrityError, match="checksum"):
                verify_manifest(shared.manifest)
            with pytest.raises(IntegrityError):
                attach_engine(shared.manifest)
        finally:
            shared.unlink()

    def test_manifest_without_digests_is_refused(self, fitted_model):
        """An array with no digest never attaches unverified."""
        engine = compile_model(fitted_model, precision="fixed16")
        shared = publish_engine(engine)
        try:
            stripped = dict(shared.manifest)
            stripped["arrays"] = {
                key: {k: v for k, v in spec.items() if k != "blake2b"}
                for key, spec in shared.manifest["arrays"].items()
            }
            with pytest.raises(IntegrityError, match="no checksum for array"):
                verify_manifest(stripped)
            with pytest.raises(IntegrityError, match="no checksum for array"):
                attach_engine(stripped)
        finally:
            shared.unlink()

    def test_segment_names_carry_the_publisher_start_token(self):
        token = _process_start_token(os.getpid())
        assert token.isdigit()
        name = _segment_name(3)
        assert name.startswith(f"{SEGMENT_PREFIX}{os.getpid()}.{token}_")
        assert name.endswith("_g3")

    def test_cleanup_reclaims_recycled_pid_segments(self):
        from multiprocessing import resource_tracker, shared_memory

        token = _process_start_token(os.getpid())
        live_name = f"{SEGMENT_PREFIX}{os.getpid()}.{token}_cafe0001_g0"
        # Same (live) pid but a different start token: the original publisher
        # died and the pid was recycled — the segment is an orphan.
        stale_name = f"{SEGMENT_PREFIX}{os.getpid()}.1_cafe0002_g0"
        keeper = shared_memory.SharedMemory(name=live_name, create=True, size=64)
        stale = shared_memory.SharedMemory(name=stale_name, create=True, size=64)
        try:
            resource_tracker.unregister(stale._name, "shared_memory")
        except Exception:
            pass
        stale.close()
        try:
            reclaimed = cleanup_orphan_segments()
            assert stale_name in reclaimed
            assert live_name not in reclaimed
        finally:
            keeper.close()
            keeper.unlink()


# ----------------------------------------------------------- registry durability
class TestRegistryDurability:
    def test_checksum_recorded_and_tamper_refused(self, fitted_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("m", fitted_model)
        record = registry.describe("m")
        assert record.checksum
        registry.load("m")  # clean load passes verification
        archive = tmp_path / "m" / f"v{record.version}" / "model.npz"
        data = bytearray(archive.read_bytes())
        data[len(data) // 2] ^= 0xFF
        archive.write_bytes(bytes(data))
        with pytest.raises(RegistryError, match="checksum"):
            registry.load("m")

    def test_a_manifest_without_a_checksum_is_refused(self, fitted_model, tmp_path):
        """An artifact that cannot be verified is never served, whether it
        is read as a model, as an engine or only described."""
        registry = ModelRegistry(tmp_path)
        version = registry.save("m", fitted_model)
        manifest = tmp_path / "m" / f"v{version}" / "meta.json"
        meta = json.loads(manifest.read_text())
        del meta["checksum"]
        manifest.write_text(json.dumps(meta))
        for read in (
            registry.describe,
            registry.load,
            lambda name: registry.load_compiled(name, precision="fixed16"),
        ):
            with pytest.raises(RegistryError, match="no checksum"):
                read("m")

    def test_torn_write_is_refused_at_load(self, fitted_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        plan = FaultPlan(
            faults=(FaultSpec(point="registry.save", kind="torn", at=(1,)),)
        )
        with inject(plan):
            registry.save("t", fitted_model)
        with pytest.raises(RegistryError, match="checksum"):
            registry.load("t")

    def test_crashed_save_publishes_nothing(self, fitted_model, tmp_path):
        registry = ModelRegistry(tmp_path)
        plan = FaultPlan(
            faults=(FaultSpec(point="registry.save", kind="exception", at=(1,)),)
        )
        with inject(plan):
            with pytest.raises(FaultInjected):
                registry.save("c", fitted_model)
        assert "c" not in registry.models()
        registry.save("c", fitted_model)  # staging debris does not block retry
        assert registry.versions("c") == [1]
        registry.load("c")


# ------------------------------------------------------------- fabric resilience
def _make_registry(tmp_path, fitted_model):
    registry = ModelRegistry(tmp_path)
    registry.save("stress", fitted_model, quantize="fixed16")
    return registry


def _fabric_options():
    return dict(
        n_workers=2,
        n_channels=N_CHANNELS,
        window_samples=WINDOW,
        max_wait=0.0,
    )


class TestFabricIntegrity:
    def test_swap_rejects_a_corrupt_publication(self, fitted_model, tmp_path):
        registry = _make_registry(tmp_path, fitted_model)
        engine = registry.load_compiled("stress", precision="fixed16")
        with ServingFabric(engine, **_fabric_options()) as fabric:
            fabric.open_session("subject-0")
            generation = fabric.generation
            plan = FaultPlan(
                faults=(FaultSpec(point="shm.publish", kind="corrupt", at=(1,)),)
            )
            with inject(plan):
                result = fabric.swap(
                    registry.load_compiled("stress", precision="fixed16")
                )
            assert not result.promoted
            assert "integrity" in result.reason
            assert fabric.generation == generation
            # The fabric still serves, and a clean swap promotes normally.
            session, chunk = _chunks(1, 1)[0]
            assert fabric.push(session, chunk) + fabric.drain()
            clean = fabric.swap(registry.load_compiled("stress", precision="fixed16"))
            assert clean.promoted and fabric.generation == generation + 1

    def test_a_corrupt_first_publication_is_refused_before_any_worker_starts(
        self, fitted_model, monkeypatch
    ):
        """The constructor verifies the segment before handing it to
        workers: damage raises IntegrityError in the caller, with no worker
        started and no segment left behind."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no POSIX shm filesystem")
        shards = []
        real = fabric_module._ProcessShard
        monkeypatch.setattr(
            fabric_module,
            "_ProcessShard",
            lambda *args: shards.append(args) or real(*args),
        )
        children = set(multiprocessing.active_children())
        plan = FaultPlan(
            faults=(FaultSpec(point="shm.publish", kind="corrupt", at=(1,)),)
        )
        with inject(plan), pytest.raises(IntegrityError, match="checksum"):
            ServingFabric(
                compile_model(fitted_model, precision="fixed16"), **_fabric_options()
            )
        assert shards == []
        assert set(multiprocessing.active_children()) == children
        head = f"{SEGMENT_PREFIX}{os.getpid()}"
        assert not [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith((f"{head}.", f"{head}_"))
        ]

    def test_a_damaged_live_segment_is_refused_at_recovery(self, fitted_model):
        """A rebuilt worker is handed only a verified segment: damage to the
        live generation fails the next call with IntegrityError, through
        the shard's breaker, and no worker comes up to score a window on
        any model, stale or damaged."""
        engine = compile_model(fitted_model, precision="fixed16")
        with ServingFabric(engine, **{**_fabric_options(), "n_workers": 1}) as fabric:
            fabric.breakers[0].failure_threshold = 1
            fabric.breakers[0].probe_interval = 60.0
            fabric.open_session("subject-0")
            assert fabric.swap(compile_model(fitted_model, precision="fixed16")).promoted
            fabric._shared._shm.buf[0] ^= 0xFF  # one flipped byte of generation 1
            os.kill(fabric.worker_info()[0]["pid"], signal.SIGKILL)
            time.sleep(0.2)
            session, chunk = _chunks(1, 1)[0]
            with pytest.raises(IntegrityError, match="checksum"):
                fabric.push(session, chunk)
            assert fabric.restarts == 0  # no worker was rebuilt on it
            assert fabric.breakers[0].state == OPEN
            with pytest.raises(CircuitOpenError):
                fabric.push(session, chunk)


@pytest.mark.slow
class TestFabricChaos:
    def test_hung_worker_is_killed_and_recovered(self, fitted_model):
        # Chaos hit counters are per worker *process*: a rebuilt worker
        # installs the plan fresh, so its retried call lands on hit 1 and
        # passes while hit 2 of any incarnation hangs for 30s.
        engine = compile_model(fitted_model, precision="fixed16")
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    point="fabric.worker.call",
                    kind="delay",
                    delay=30.0,
                    at=(2,),
                    match=(("method", "push_many"),),
                ),
            )
        )
        with inject(plan):
            with ServingFabric(
                engine, call_timeout=1.0, **_fabric_options()
            ) as fabric:
                for index in range(4):
                    fabric.open_session(f"subject-{index}")
                start = time.monotonic()
                predictions = []
                for session, chunk in _chunks(4, 2):
                    predictions.extend(fabric.push(session, chunk))
                predictions.extend(fabric.drain())
                elapsed = time.monotonic() - start
                # Every wedged call was converted into kill + rebuild +
                # retry, far under the injected 30s hang per fire.
                assert elapsed < 15.0
                assert fabric.timeouts >= 1
                assert fabric.restarts >= 1
                assert len(predictions) == 8  # nothing lost, nothing doubled

    def test_drain_cannot_block_on_a_wedged_worker(self, fitted_model):
        engine = compile_model(fitted_model, precision="fixed16")
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    point="fabric.worker.call",
                    kind="delay",
                    delay=30.0,
                    probability=1.0,
                    match=(("method", "drain"),),
                ),
            )
        )
        from repro.resilience.chaos import install, uninstall

        install(plan)
        try:
            with ServingFabric(
                engine, call_timeout=1.0, **_fabric_options()
            ) as fabric:
                fabric.open_session("subject-0")
                start = time.monotonic()
                # Every incarnation of the worker hangs its drain: the call
                # fails *bounded* (timeout, kill, rebuild, retried once)
                # instead of blocking for the 30s hang.
                with pytest.raises(TimeoutError):
                    fabric.drain()
                assert time.monotonic() - start < 10.0
                assert fabric.timeouts >= 1
                assert fabric.restarts >= 1
                # Fault source removed: the wedged worker is killed on the
                # next timeout and its clean replacement drains fine.
                uninstall()
                assert fabric.drain() == []
        finally:
            uninstall()

    def test_breaker_trips_on_unrecoverable_shard_then_heals(self, fitted_model):
        engine = compile_model(fitted_model, precision="fixed16")
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    point="fabric.worker.call",
                    kind="sigkill",
                    probability=1.0,
                    match=(("method", "push_many"),),
                ),
            )
        )
        options = _fabric_options()
        with inject(plan):
            with ServingFabric(engine, call_timeout=5.0, **options) as fabric:
                for breaker in fabric.breakers:
                    breaker.failure_threshold = 2
                    breaker.probe_interval = 0.3
                for index in range(8):
                    fabric.open_session(f"subject-{index}")
                chunks = _chunks(8, 1)
                failures = 0
                tripped = 0
                for session, chunk in chunks * 2:
                    try:
                        fabric.push(session, chunk)
                    except CircuitOpenError as error:
                        tripped += 1
                        assert error.retry_in >= 0.0
                    except Exception:
                        failures += 1
                assert failures >= 2  # rebuild-and-retry also died
                assert any(breaker.trips >= 1 for breaker in fabric.breakers)
                assert tripped >= 1  # open shards failed fast, no worker call
                # Fault source removed: the next due probe is a recovery.
                from repro.resilience.chaos import uninstall

                uninstall()
                time.sleep(0.35)
                recovered = []
                for session, chunk in chunks:
                    try:
                        recovered.extend(fabric.push(session, chunk))
                    except CircuitOpenError:
                        pass
                recovered.extend(fabric.drain())
                assert all(b.state == CLOSED for b in fabric.breakers)
                assert sum(b.recoveries for b in fabric.breakers) >= 1
                assert recovered  # serving resumed

    def test_worker_death_during_swap_keeps_the_fabric_consistent(
        self, fitted_model
    ):
        engine = compile_model(fitted_model, precision="fixed16")
        replacement = compile_model(fitted_model, precision="fixed16")
        with ServingFabric(engine, call_timeout=5.0, **_fabric_options()) as fabric:
            for index in range(4):
                fabric.open_session(f"subject-{index}")
            before = fabric.route(_chunks(4, 1, seed=5)) + fabric.drain()
            assert len(before) == 4
            # A worker dies right as the swap begins: the shard walk hits a
            # broken pool, rebuilds the worker and retries its swap call.
            os.kill(fabric.worker_info()[0]["pid"], signal.SIGKILL)
            time.sleep(0.2)
            result = fabric.swap(replacement)
            assert result.promoted
            assert fabric.restarts >= 1
            generations = {info["generation"] for info in fabric.worker_info()}
            assert generations == {fabric.generation}  # no torn deployment
            after = fabric.route(_chunks(4, 1, seed=6)) + fabric.drain()
            assert len(after) == 4  # every post-swap window delivered once
