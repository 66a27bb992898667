"""Gateway load harness: latency, overload goodput, drain safety, parity.

Holds :mod:`repro.gateway` to its contract (ISSUE 10):

* **Nominal latency** — a diurnally-modulated multi-client load at a rate
  the backend comfortably sustains must keep p99 request latency bounded
  (generous bound: this is a correctness-of-architecture gate, not a
  micro-benchmark — a blocked event loop or an accidental sync scoring
  path blows it by orders of magnitude).
* **Overload goodput** — bursty traffic at ~2x the admission capacity must
  be *refused explicitly*: every rejected request gets 429/503 (+
  ``Retry-After``), every accepted feed's windows are answered exactly
  once (no duplicates, no losses — the ledger closes), and goodput stays
  >= 70% of nominal capacity: admission control sheds load instead of
  collapsing.
* **Drain safety** — a real ``SIGTERM`` mid-stream must drain within the
  deadline and answer every accepted window: in-flight requests finish,
  buffered windows are flushed and delivered (to mailboxes or the orphan
  ledger), and the scheduler accounting identity holds with zero pending.
* **Parity** — predictions served through the gateway are bit-identical
  to in-process serving on the fixed16 integer engine, with the gateway
  over a ``StreamingService`` and over a 2-worker process ``ServingFabric``
  (stated on integer engines for the same reason as ``bench_fabric.py``:
  their scores are batch-composition invariant, so sharding the sessions
  across workers changes no bit).

Arrival patterns come from :class:`~repro.data.SignalSimulator` streams —
the same synthetic physiology the serving benches use — shaped bursty
(Poisson-ish clusters) and diurnal (sinusoidal rate modulation).

Fast mode for CI (smaller load, same assertions)::

    REPRO_BENCH_FAST=1 PYTHONPATH=src python -m pytest benchmarks/bench_gateway.py -q
"""

import asyncio
import math
import os
import signal
import time

import numpy as np
import pytest

from repro.core.boosthd import BoostHD
from repro.data import CHANNELS, WESAD_STATES, SignalSimulator
from repro.engine import compile_model
from repro.gateway import Gateway, GatewayClient
from repro.serving import ServingFabric, StreamingService

pytestmark = pytest.mark.gateway

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

N_CHANNELS = len(CHANNELS)
N_FEATURES = N_CHANNELS * 4
SAMPLING_RATE = 16
WINDOW_SECONDS = 2
WINDOW_SAMPLES = SAMPLING_RATE * WINDOW_SECONDS

N_CLIENTS = 4 if FAST else 8
CHUNKS_PER_CLIENT = 4 if FAST else 8
WINDOWS_PER_CHUNK = 2
TOTAL_DIM = 1_000 if FAST else 4_000

#: Nominal-load p99 bound, seconds.  Scoring a 2-window chunk takes well
#: under a millisecond; the bound catches architectural regressions (event
#: loop stalls, sync scoring on the loop), not scheduler jitter.
P99_BOUND = 0.40
#: Overload goodput floor: answered windows / nominal capacity.
GOODPUT_FLOOR = 0.70
#: SIGTERM drain budget, seconds.
DRAIN_DEADLINE = 5.0


def _fitted_engine(seed=0, precision="fixed16"):
    rng = np.random.default_rng(seed)
    X_train = rng.standard_normal((96, N_FEATURES)) * 2.0
    y_train = rng.integers(0, 3, size=96)
    model = BoostHD(
        total_dim=TOTAL_DIM, n_learners=8, epochs=0, seed=seed
    ).fit(X_train, y_train)
    return compile_model(model, precision=precision)


SERVICE_OPTIONS = {
    "n_channels": N_CHANNELS,
    "window_samples": WINDOW_SAMPLES,
    "step_samples": WINDOW_SAMPLES,
    "smoothing_window": 1,
    "max_batch": 8,
    "max_wait": 0.002,
}


def _make_service(engine=None, **overrides) -> StreamingService:
    options = {**SERVICE_OPTIONS, **overrides}
    return StreamingService(engine or _fitted_engine(), **options)


def _client_chunks(client_index: int) -> list[list]:
    """One client's stream: consecutive simulator chunks, each W windows."""
    simulator = SignalSimulator(
        sampling_rate=SAMPLING_RATE,
        window_seconds=WINDOW_SECONDS,
        rng=1000 + client_index,
    )
    state = WESAD_STATES[client_index % len(WESAD_STATES)]
    return [
        chunk.tolist()
        for chunk in simulator.stream_chunks(
            state,
            chunk_samples=WINDOW_SAMPLES * WINDOWS_PER_CHUNK,
            n_chunks=CHUNKS_PER_CLIENT,
        )
    ]


def _collect(body, sink: list) -> None:
    for wire in body.get("predictions", []):
        sink.append((wire["session_id"], wire["window_index"], wire["status"]))


async def _drain_sessions(client, sessions, sink: list) -> None:
    """Flush the backend and empty every session mailbox into ``sink``."""
    for session_id in sessions:
        _, body = await client.score(session_id)
        _collect(body, sink)
    for session_id in sessions:
        _, body = await client.predictions(session_id)
        _collect(body, sink)


# ------------------------------------------------------------ nominal latency
def test_nominal_load_p99_latency_bounded():
    async def scenario():
        gateway = Gateway(_make_service(), max_concurrent=64)
        await gateway.start()
        latencies: list[float] = []
        delivered: list[tuple] = []

        async def one_client(index: int):
            async with GatewayClient(
                gateway.host, gateway.port, client_id=f"client-{index}"
            ) as client:
                session_id = f"s{index}"
                await client.open_session(session_id)
                for step, samples in enumerate(_client_chunks(index)):
                    # diurnal shape: sinusoidal inter-arrival modulation
                    phase = 2.0 * math.pi * step / CHUNKS_PER_CLIENT
                    await asyncio.sleep(0.002 * (1.0 + math.sin(phase)))
                    started = time.perf_counter()
                    status, body = await client.feed(session_id, samples)
                    latencies.append(time.perf_counter() - started)
                    assert status == 200
                    _collect(body, delivered)
                await _drain_sessions(client, [session_id], delivered)

        await asyncio.gather(*(one_client(i) for i in range(N_CLIENTS)))
        try:
            submitted = gateway.backend.stats.windows_submitted
        finally:
            await gateway.shutdown(DRAIN_DEADLINE)
        return latencies, delivered, submitted

    latencies, delivered, submitted = asyncio.run(scenario())
    expected = N_CLIENTS * CHUNKS_PER_CLIENT * WINDOWS_PER_CHUNK
    assert submitted == expected
    keys = [(s, w) for s, w, _ in delivered]
    assert len(keys) == len(set(keys)) == expected  # exactly once, all of them
    p50 = float(np.percentile(latencies, 50))
    p99 = float(np.percentile(latencies, 99))
    print(
        f"\nnominal load: {len(latencies)} requests, "
        f"p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms (bound {P99_BOUND * 1e3:.0f}ms)"
    )
    assert p99 < P99_BOUND, (
        f"nominal p99 {p99 * 1e3:.1f}ms breaches the {P99_BOUND * 1e3:.0f}ms bound"
    )


# ---------------------------------------------------------- overload goodput
def test_overload_sheds_explicitly_and_keeps_goodput():
    """2x-capacity bursts: explicit 429/503, exactly-once, goodput >= 70%."""
    per_client_rate = 15.0
    burst_credit = 4.0
    duration = 1.2 if FAST else 2.0

    async def scenario():
        gateway = Gateway(
            _make_service(),
            rate=per_client_rate,
            burst=burst_credit,
            max_concurrent=32,
        )
        await gateway.start()
        outcomes: list[int] = []
        delivered: list[tuple] = []
        windows_accepted = 0

        async def one_client(index: int):
            nonlocal windows_accepted
            chunks = _client_chunks(index)
            async with GatewayClient(
                gateway.host, gateway.port, client_id=f"hot-{index}"
            ) as client:
                session_id = f"s{index}"
                status, _ = await client.open_session(session_id)
                assert status in (201, 429)
                while status == 429:  # keep trying until the session exists
                    await asyncio.sleep(1.0 / per_client_rate)
                    status, _ = await client.open_session(session_id)
                    assert status in (201, 429)
                deadline = time.monotonic() + duration
                step = 0
                while time.monotonic() < deadline:
                    # bursty shape: clusters of back-to-back requests
                    for _ in range(4):
                        samples = chunks[step % len(chunks)]
                        status, body = await client.feed(session_id, samples)
                        outcomes.append(status)
                        assert status in (200, 429, 503), (
                            f"overload must answer 200/429/503, got {status}"
                        )
                        if status == 200:
                            windows_accepted += WINDOWS_PER_CHUNK
                            _collect(body, delivered)
                        step += 1
                    # 2x overload: sleep half as long as the sustainable pace
                    await asyncio.sleep(4 / (2.0 * per_client_rate))
                await _drain_sessions(client, [session_id], delivered)

        await asyncio.gather(*(one_client(i) for i in range(N_CLIENTS)))
        stats = gateway.backend.stats
        pending = gateway.backend.scheduler.pending
        await gateway.shutdown(DRAIN_DEADLINE)
        return outcomes, delivered, windows_accepted, stats, pending

    outcomes, delivered, windows_accepted, stats, pending = asyncio.run(scenario())
    accepted = sum(1 for code in outcomes if code == 200)
    rejected = len(outcomes) - accepted
    assert rejected > 0, "2x overload must trigger explicit rejections"

    # every accepted window answered exactly once; rejected feeds add nothing
    keys = [(s, w) for s, w, _ in delivered]
    assert len(keys) == len(set(keys)), "duplicate prediction on the wire"
    assert len(keys) == windows_accepted, (
        f"accepted {windows_accepted} windows but delivered {len(keys)}"
    )
    assert stats.windows_submitted == windows_accepted
    assert pending == 0

    # goodput: answered windows vs what nominal capacity would have admitted
    elapsed = 1.2 if FAST else 2.0
    nominal_requests = N_CLIENTS * (per_client_rate * elapsed + burst_credit)
    goodput = accepted / nominal_requests
    print(
        f"\noverload: {len(outcomes)} requests -> {accepted} accepted, "
        f"{rejected} rejected (explicit), goodput={goodput:.2f} "
        f"(floor {GOODPUT_FLOOR})"
    )
    assert goodput >= GOODPUT_FLOOR, (
        f"goodput {goodput:.2f} under 2x overload fell below {GOODPUT_FLOOR}"
    )


# --------------------------------------------------------------- drain safety
def test_sigterm_drains_within_deadline_with_zero_loss():
    async def scenario():
        # max_wait=1e9 + big batches: windows stay buffered until the drain
        gateway = Gateway(
            _make_service(max_batch=256, max_wait=1e9), drain_deadline=DRAIN_DEADLINE
        )
        await gateway.start()
        gateway.install_signal_handlers()
        delivered: list[tuple] = []
        sessions = []
        async with GatewayClient(gateway.host, gateway.port) as client:
            for index in range(N_CLIENTS):
                session_id = f"s{index}"
                sessions.append(session_id)
                await client.open_session(session_id)
                for samples in _client_chunks(index)[:2]:
                    status, body = await client.feed(session_id, samples)
                    assert status == 200
                    _collect(body, delivered)
        submitted = gateway.backend.stats.windows_submitted
        started = time.monotonic()
        os.kill(os.getpid(), signal.SIGTERM)  # the real thing, not a method call
        while gateway._shutdown_task is None:
            await asyncio.sleep(0.001)
        report = await gateway._shutdown_task
        drain_seconds = time.monotonic() - started
        return report, drain_seconds, submitted, len(delivered), gateway

    report, drain_seconds, submitted, delivered_live, gateway = asyncio.run(scenario())
    stats, gw_stats = gateway.backend.stats, gateway.stats
    expected = N_CLIENTS * 2 * WINDOWS_PER_CHUNK
    print(
        f"\nSIGTERM drain: {drain_seconds * 1e3:.1f}ms "
        f"(deadline {DRAIN_DEADLINE}s), {submitted} windows accepted, "
        f"{report['flushed_predictions']} flushed at drain, "
        f"{report['undelivered']} awaiting pickup"
    )
    assert submitted == expected
    assert report["clean"] is True
    assert drain_seconds < DRAIN_DEADLINE
    # zero loss: every accepted window was answered — live, or flushed into
    # a mailbox/the orphan ledger during the drain
    assert delivered_live + report["undelivered"] == expected
    assert gw_stats.windows_answered + gw_stats.windows_shed == expected
    assert stats.windows_submitted == stats.windows_scored + stats.windows_shed
    assert gateway.backend.scheduler.pending == 0


# --------------------------------------------------------------------- parity
@pytest.mark.parametrize("kind", ["service", "fabric"])
def test_gateway_predictions_bit_identical_to_in_process(kind):
    engine = _fitted_engine(precision="fixed16")
    streams = {f"s{i}": _client_chunks(i) for i in range(N_CLIENTS)}

    # In-process reference: identical batching policy (full batches only, so
    # batch composition is identical on both paths).
    reference_service = _make_service(engine, max_batch=8, max_wait=1e9)
    reference: dict[tuple, tuple] = {}
    for session_id in streams:
        reference_service.open_session(session_id)
    for session_id, chunks in streams.items():
        for samples in chunks:
            for prediction in reference_service.push(session_id, np.asarray(samples)):
                reference[(prediction.session_id, prediction.window_index)] = (
                    int(prediction.label),
                    tuple(float(v) for v in prediction.scores.tolist()),
                )
    for prediction in reference_service.drain():
        reference[(prediction.session_id, prediction.window_index)] = (
            int(prediction.label),
            tuple(float(v) for v in prediction.scores.tolist()),
        )

    if kind == "service":
        backend = _make_service(engine, max_batch=8, max_wait=1e9)
    else:
        backend = ServingFabric(
            engine, n_workers=2, **{**SERVICE_OPTIONS, "max_batch": 8, "max_wait": 1e9}
        )

    async def scenario():
        gateway = Gateway(backend)
        await gateway.start()
        served: dict[tuple, tuple] = {}

        def take(body):
            for wire in body.get("predictions", []):
                served[(wire["session_id"], wire["window_index"])] = (
                    wire["label"],
                    tuple(wire["scores"]),
                )

        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                for session_id in streams:
                    await client.open_session(session_id)
                for session_id, chunks in streams.items():
                    for samples in chunks:
                        status, body = await client.feed(session_id, samples)
                        assert status == 200
                        take(body)
                for session_id in streams:
                    _, body = await client.score(session_id)
                    take(body)
                    _, body = await client.predictions(session_id)
                    take(body)
        finally:
            await gateway.shutdown(DRAIN_DEADLINE)
        return served

    served = asyncio.run(scenario())
    assert served.keys() == reference.keys()
    mismatches = [key for key in reference if served[key] != reference[key]]
    assert not mismatches, (
        f"{len(mismatches)} predictions differ through the gateway "
        f"(first: {mismatches[0] if mismatches else None})"
    )
    print(
        f"\nparity: {len(served)} predictions served over HTTP through a {kind} "
        "are bit-identical to in-process serving (fixed16)"
    )
