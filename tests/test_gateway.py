"""Gateway edge tests: wire protocol properties, admission, lifecycle.

Three layers, matching the package layout:

* **hypothesis property suites** over the pure pieces — the token bucket
  (the admitted rate can never exceed ``burst + elapsed * rate``, and the
  bucket is a deterministic function of its call sequence under an
  injected clock) and the HTTP request parser (round-trip, and *no* input
  may raise anything but :class:`ProtocolError`);
* **end-to-end asyncio tests** against a real listening gateway — session
  lifecycle (over a service and a fabric backend; a session is an id),
  explicit 429/503/504 refusals, shed/dead-letter wire format (strict
  JSON: no NaN ever), dead-letter replay (also from fabric workers), and
  the orphan mailbox;
* **lifecycle contracts** — graceful drain loses no accepted window, and
  predictions served through the gateway are bit-identical to in-process
  serving.

Everything runs on the stdlib loop via ``asyncio.run`` (tier-1 stays
hermetic; no async test plugin needed).
"""

from __future__ import annotations

import asyncio
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import (
    Gateway,
    GatewayClient,
    ProtocolError,
    RateLimiter,
    TokenBucket,
)
from repro.gateway.http import Request, parse_request_head
from repro.gateway.limits import ConcurrencyLimiter
from repro.core.boosthd import BoostHD
from repro.engine import PRECISIONS
from repro.resilience import FaultInjected, FaultPlan, FaultSpec, inject
from repro.serving import (
    MicroBatchScheduler,
    ModelRegistry,
    ServingFabric,
    StreamingService,
)
from repro.serving.scheduler import SchedulerStats

pytestmark = pytest.mark.gateway

N_CHANNELS = 4
WINDOW = 32
N_FEATURES = N_CHANNELS * 4  # min/max/mean/std per channel


class StubScorer:
    """Deterministic, instant scorer: gateway tests don't need a real model."""

    classes_ = np.array([0, 1, 2])

    def decision_function(self, X):
        X = np.asarray(X)
        return np.stack([X.sum(axis=1), X.mean(axis=1), X.max(axis=1)], axis=1)


class FlakyScorer(StubScorer):
    """Raises until ``healed`` — drives windows into the dead-letter queue."""

    def __init__(self):
        self.healed = False

    def decision_function(self, X):
        if not self.healed:
            raise RuntimeError("scorer down")
        return super().decision_function(X)


SERVICE_OPTIONS = {
    "n_channels": N_CHANNELS,
    "window_samples": WINDOW,
    "step_samples": WINDOW,
    "smoothing_window": 1,
    "max_batch": 4,
    "max_wait": 1e9,  # release on full batches / flush only: deterministic
}


def make_service(scorer=None, **overrides) -> StreamingService:
    return StreamingService(scorer or StubScorer(), **{**SERVICE_OPTIONS, **overrides})


def chunk(n_windows: int = 1, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N_CHANNELS, WINDOW * n_windows)).tolist()


def run(coro):
    return asyncio.run(coro)


async def start_gateway(service=None, **kw) -> Gateway:
    gateway = Gateway(service or make_service(), **kw)
    await gateway.start()
    return gateway


# ---------------------------------------------------------------- token bucket
class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


bucket_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),  # clock advance
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False),  # tokens wanted
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    burst=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    ops=bucket_ops,
)
def test_token_bucket_never_exceeds_rate(rate, burst, ops):
    """Granted tokens over any prefix never exceed ``burst + elapsed*rate``."""
    clock = FakeClock()
    bucket = TokenBucket(rate, burst, clock=clock)
    granted = 0.0
    elapsed = 0.0
    for advance, want in ops:
        clock.advance(advance)
        elapsed += advance
        want = min(want, burst)
        if bucket.try_acquire(want) == 0.0:
            granted += want
        assert granted <= burst + elapsed * rate + 1e-6


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    burst=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    ops=bucket_ops,
)
def test_token_bucket_deterministic_under_injected_clock(rate, burst, ops):
    """Two buckets fed the identical op sequence agree exactly, call by call."""
    first_clock, second_clock = FakeClock(), FakeClock()
    first = TokenBucket(rate, burst, clock=first_clock)
    second = TokenBucket(rate, burst, clock=second_clock)
    for advance, want in ops:
        first_clock.advance(advance)
        second_clock.advance(advance)
        want = min(want, burst)
        assert first.try_acquire(want) == second.try_acquire(want)
        assert first.tokens == second.tokens


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    burst=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    drain=st.integers(min_value=1, max_value=40),
)
def test_token_bucket_retry_after_is_sufficient(rate, burst, drain):
    """Waiting the advertised ``Retry-After`` always earns admission."""
    clock = FakeClock()
    bucket = TokenBucket(rate, burst, clock=clock)
    for _ in range(drain):
        if bucket.try_acquire(1.0) > 0.0:
            break
    retry_after = bucket.try_acquire(1.0)
    if retry_after > 0.0:
        clock.advance(retry_after + 1e-9)
        assert bucket.try_acquire(1.0) == 0.0


def test_rate_limiter_lru_eviction_is_bounded():
    clock = FakeClock()
    limiter = RateLimiter(10.0, 5.0, max_clients=4, clock=clock)
    for index in range(10):
        limiter.try_acquire(f"client-{index}")
    assert len(limiter) == 4
    assert limiter.evictions == 6


def test_concurrency_limiter_rejects_never_queues():
    limiter = ConcurrencyLimiter(2)
    assert limiter.acquire() and limiter.acquire()
    assert not limiter.acquire()
    assert limiter.rejections == 1
    limiter.release()
    assert limiter.acquire()
    assert limiter.high_watermark == 2
    limiter.release()
    limiter.release()
    with pytest.raises(RuntimeError):
        limiter.release()


# ------------------------------------------------------------- parser properties
header_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12
).filter(lambda s: not s.startswith("-"))
header_values = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E, exclude_characters=","),
    min_size=0,
    max_size=24,
)


@settings(max_examples=100, deadline=None)
@given(
    method=st.sampled_from(["GET", "POST", "DELETE", "PUT", "PATCH"]),
    path=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789/-_", min_size=1, max_size=32
    ),
    headers=st.dictionaries(header_names, header_values, max_size=6),
)
def test_request_head_round_trip(method, path, headers):
    target = "/" + path.lstrip("/")
    lines = [f"{method} {target} HTTP/1.1"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = "\r\n".join(lines).encode("ascii")
    parsed_method, parsed_target, parsed_headers = parse_request_head(head)
    assert parsed_method == method
    assert parsed_target == target
    for name, value in headers.items():
        assert parsed_headers[name.lower()] == value.strip()


@settings(max_examples=200, deadline=None)
@given(head=st.binary(max_size=256))
def test_request_head_malformed_never_crashes(head):
    """Arbitrary bytes: parse or ProtocolError — never any other exception."""
    try:
        method, target, headers = parse_request_head(head)
    except ProtocolError:
        return
    assert isinstance(method, str) and isinstance(headers, dict)


# ------------------------------------------------------------------ HTTP e2e
def test_http_session_lifecycle_and_wire_format():
    async def scenario():
        gateway = await start_gateway()
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                status, _ = await client.open_session("s1")
                assert status == 201
                status, body = await client.open_session("s1")
                assert status == 409  # duplicate
                status, body = await client.feed("s1", chunk(4))
                assert status == 200
                predictions = body["predictions"]
                assert len(predictions) == 4  # max_batch=4 released in-request
                for wire in predictions:
                    assert wire["status"] == "scored"
                    assert wire["session_id"] == "s1"
                    assert isinstance(wire["label"], int)
                    assert all(isinstance(s, float) for s in wire["scores"])
                status, body = await client.feed("nope", chunk(1))
                assert status == 404
                status, body = await client.close_session("s1")
                assert status == 200
                status, body = await client.close_session("s1")
                assert status == 404
        finally:
            await gateway.shutdown(2.0)

    run(scenario())


def test_rate_limit_refuses_with_429_and_retry_after():
    async def scenario():
        clock = FakeClock()
        gateway = await start_gateway(rate=1.0, burst=2, clock=clock)
        try:
            async with GatewayClient(
                gateway.host, gateway.port, client_id="greedy"
            ) as client:
                codes = [(await client.open_session(f"s{i}"))[0] for i in range(4)]
                assert codes[:2] == [201, 201]
                assert codes[2:] == [429, 429]  # frozen clock: no refill
                status, body = await client.request("GET", "/v1/sessions")
                assert status == 429 and body["retry_after"] > 0.0
                # a different client has its own bucket
                async with GatewayClient(
                    gateway.host, gateway.port, client_id="other"
                ) as other:
                    status, _ = await other.request("GET", "/v1/sessions")
                    assert status == 200
                # probes are never rate limited
                assert (await client.healthz())[0] == 200
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.rejected_rate_limited >= 3

    run(scenario())


def test_concurrency_limit_refuses_with_503():
    class SlowScorer(StubScorer):
        def decision_function(self, X):
            import time

            time.sleep(0.15)
            return super().decision_function(X)

    async def scenario():
        gateway = await start_gateway(
            make_service(SlowScorer(), max_batch=1), max_concurrent=1
        )
        try:

            async with GatewayClient(gateway.host, gateway.port) as opener:
                for index in range(4):
                    status, _ = await opener.open_session(f"c{index}")
                    assert status == 201

            async def one_feed(index):
                async with GatewayClient(gateway.host, gateway.port) as client:
                    status, _ = await client.feed(f"c{index}", chunk(1))
                    return status

            codes = await asyncio.gather(*(one_feed(i) for i in range(4)))
            assert 200 in codes and 503 in codes
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.rejected_saturated >= 1

    run(scenario())


def test_expired_deadline_rejected_before_admission():
    async def scenario():
        gateway = await start_gateway()
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.open_session("s1")
                status, body = await client.feed("s1", chunk(1), deadline_ms=0)
                assert status == 504
                assert body["accepted"] is False
                for malformed in ("banana", "nan"):
                    status, body = await client.request(
                        "POST",
                        "/v1/sessions/s1/windows",
                        {"samples": chunk(1)},
                        headers={"x-repro-deadline-ms": malformed},
                    )
                    assert status == 400
                # a generous deadline sails through
                status, _ = await client.feed("s1", chunk(1), deadline_ms=30_000)
                assert status == 200
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.rejected_deadline >= 1
        assert gateway.stats.handler_errors == 0

    run(scenario())


@pytest.mark.parametrize(
    "raw, seconds",
    [
        ("0", 0.0),
        ("1500", 1.5),
        ("inf", math.inf),
        ("nan", None),
        ("-1", None),
        ("-inf", None),
        ("banana", None),
        ("", None),
    ],
    ids=["0", "1500", "inf", "nan", "-1", "-inf", "banana", "empty"],
)
def test_deadline_header_is_milliseconds_at_least_zero(raw, seconds):
    """Anything but a number >= 0 is the client's error (400), never a 500."""
    request = Request(
        "POST",
        "/v1/sessions/s1/windows",
        "/v1/sessions/s1/windows",
        headers={"x-repro-deadline-ms": raw},
    )
    if seconds is None:
        with pytest.raises(ProtocolError) as raised:
            Gateway._parse_deadline(request)
        assert raised.value.status == 400
        return
    deadline = Gateway._parse_deadline(request)
    if seconds == math.inf:
        assert deadline.remaining() == math.inf and not deadline.expired
    else:
        assert deadline.expired == (seconds == 0.0)
        assert seconds - 1.0 < deadline.remaining() <= seconds


def test_shed_predictions_serialize_as_strict_json():
    """SHED sentinels (NaN scores in-process) must hit the wire as null."""

    async def scenario():
        gateway = await start_gateway(
            make_service(max_batch=64, max_pending=2)
        )
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.open_session("s1")
                _, feed_body = await client.feed("s1", chunk(6))
                status, body = await client.score("s1")
                assert status == 200
                by_status = {"scored": 0, "shed": 0}
                for wire in feed_body["predictions"] + body["predictions"]:
                    by_status[wire["status"]] += 1
                    if wire["status"] == "shed":
                        assert wire["label"] is None
                        assert wire["scores"] is None
                    else:
                        assert all(math.isfinite(s) for s in wire["scores"])
                assert by_status["shed"] >= 1  # max_pending=2 forced shedding
                assert by_status["scored"] >= 1
                # the ledger closes: answered + shed == submitted
                stats = (await client.stats())[1]["backend"][0]
                assert (
                    stats["windows_submitted"]
                    == stats["windows_scored"] + stats["windows_shed"]
                )
        finally:
            await gateway.shutdown(2.0)

    run(scenario())


def test_dead_letter_replay_endpoint():
    async def scenario():
        scorer = FlakyScorer()
        gateway = await start_gateway(
            make_service(scorer, max_batch=2, max_retries=0)
        )
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.open_session("s1")
                status, body = await client.feed("s1", chunk(2))
                assert status == 500  # scorer down; windows dead-lettered
                status, body = await client.dead_letters()
                assert status == 200
                assert len(body["dead_letters"]) == 2
                for wire in body["dead_letters"]:
                    assert wire["status"] == "dead"
                    assert wire["attempts"] >= 1
                    assert "error" in wire
                scorer.healed = True
                status, body = await client.replay_dead_letters()
                assert status == 200
                assert body["replayed"] == 2
                assert len(body["predictions"]) == 2
                assert all(w["status"] == "scored" for w in body["predictions"])
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.dead_letters_replayed == 2

    run(scenario())


def test_malformed_http_gets_400_and_server_survives():
    async def scenario():
        gateway = await start_gateway()
        try:
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(b"NOT A REQUEST\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n", 1)[0]
            writer.close()
            # the listener is still healthy
            async with GatewayClient(gateway.host, gateway.port) as client:
                assert (await client.healthz())[0] == 200
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.protocol_errors >= 1

    run(scenario())


# ------------------------------------------------------------------- lifecycle
def test_graceful_drain_answers_every_accepted_window():
    async def scenario():
        gateway = await start_gateway(make_service(max_batch=16))
        async with GatewayClient(gateway.host, gateway.port) as client:
            await client.open_session("s1")
            status, body = await client.feed("s1", chunk(5))
            assert status == 200
            assert body["predictions"] == []  # buffered: batch not full
            report = await gateway.shutdown(2.0)
            assert report["clean"] is True
            assert report["flushed_predictions"] == 5
            # after the drain, the listener is gone: new connections refuse
            with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
                await client.request("GET", "/v1/sessions")
        service_stats = gateway.backend.stats
        assert service_stats.windows_submitted == 5
        assert service_stats.windows_scored == 5
        assert gateway.backend.scheduler.pending == 0
        assert (
            gateway.stats.windows_answered + gateway.stats.windows_shed
            == service_stats.windows_scored + service_stats.windows_shed
        )

    run(scenario())


def test_readyz_reflects_draining_state():
    async def scenario():
        gateway = await start_gateway()
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                status, body = await client.readyz()
                assert status == 200
                assert body["ready"] is True
                assert body["draining"] is False
                assert "breakers" in body and "brownout" not in body
                gateway._draining = True  # simulate: SIGTERM received
                status, body = await client.readyz()
                assert status == 503
                assert body["draining"] is True
                gateway._draining = False
        finally:
            await gateway.shutdown(2.0)

    run(scenario())


def test_gateway_predictions_bit_identical_to_in_process():
    """The wire adds serialization, never numerics: scores match exactly."""

    async def scenario():
        streams = {
            f"s{i}": chunk(6, seed=100 + i) for i in range(3)
        }
        # in-process reference: same scorer, same batching policy
        reference = make_service()
        collected: dict[tuple, list] = {}
        for session_id in streams:
            reference.open_session(session_id)
        for session_id, samples in streams.items():
            for prediction in reference.push(session_id, np.asarray(samples)):
                collected[(prediction.session_id, prediction.window_index)] = [
                    float(v) for v in prediction.scores.tolist()
                ]
        for prediction in reference.drain():
            collected[(prediction.session_id, prediction.window_index)] = [
                float(v) for v in prediction.scores.tolist()
            ]

        gateway = await start_gateway(make_service())
        served: dict[tuple, list] = {}
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                for session_id in streams:
                    await client.open_session(session_id)
                for session_id, samples in streams.items():
                    _, body = await client.feed(session_id, samples)
                    for wire in body["predictions"]:
                        served[(wire["session_id"], wire["window_index"])] = wire[
                            "scores"
                        ]
                for session_id in streams:
                    _, body = await client.score(session_id)
                    for wire in body["predictions"]:
                        served[(wire["session_id"], wire["window_index"])] = wire[
                            "scores"
                        ]
        finally:
            await gateway.shutdown(2.0)
        assert served.keys() == collected.keys()
        for key, scores in collected.items():
            assert served[key] == scores  # bit-identical: json floats round-trip

    run(scenario())


# ------------------------------------------------------------------ model swap
@pytest.fixture(scope="module")
def swap_registry(tmp_path_factory):
    """A registry holding one small model ``"m"`` over the gateway's features."""
    rng = np.random.default_rng(3)
    centers = np.repeat(np.eye(3, N_FEATURES) * 4, 20, axis=0)
    X = rng.normal(size=(60, N_FEATURES)) + centers
    y = np.repeat(np.arange(3), 20)
    registry = ModelRegistry(tmp_path_factory.mktemp("swap-registry"))
    registry.save("m", BoostHD(total_dim=240, n_learners=3, epochs=1, seed=0).fit(X, y))
    return registry


def make_backend(kind: str, registry, **overrides):
    """A service or a 1-worker fabric over the registry's fixed16 model."""
    engine = registry.load_compiled("m", precision="fixed16")
    if kind == "service":
        return make_service(engine, **overrides)
    options = {**SERVICE_OPTIONS, **overrides}
    return ServingFabric(engine, n_workers=1, **options)


def _swap(backend, registry, send):
    """Status, response and gateway stats of one swap ``send(client)``."""

    async def scenario():
        gateway = await start_gateway(backend, registry=registry, registry_name="m")
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                status, response = await send(client)
        finally:
            await gateway.shutdown(2.0)
        return status, response, gateway.stats

    return run(scenario())


def swap_once(backend, registry, **request):
    """Status and body of one ``GatewayClient.swap`` against ``backend``."""
    return _swap(backend, registry, lambda client: client.swap(**request))[:2]


def swap_body(backend, registry, body):
    """Status, response and gateway stats of a raw swap ``body``."""
    return _swap(
        backend,
        registry,
        lambda client: client.request("POST", "/v1/model/swap", body),
    )


def test_swap_promotes_and_reports_the_generation(swap_registry):
    status, body = swap_once(make_service(), swap_registry, precision="fixed16")
    assert status == 200
    assert body["swapped"] is True and body["generation"] == 1


def test_swap_unknown_precision_is_400(swap_registry):
    status, body = swap_once(make_service(), swap_registry, precision="fixed4")
    assert status == 400
    assert all(repr(name) in body["error"] for name in PRECISIONS)


def test_swap_stray_compile_option_is_400(swap_registry):
    """A swap names a precision and nothing else: no ``compile_options``."""
    service = make_service()
    for stray in ({"compile_options": {"dtype": "float64"}}, {"threshold": 0.1}):
        status, body, _ = swap_body(
            service, swap_registry, {"precision": "cascade-fixed16", **stray}
        )
        assert status == 400
        assert repr(next(iter(stray))) in body["error"]
    assert service.generation == 0


@pytest.mark.parametrize(
    "option", ["chunk_size", "cache_size", "cache_bytes", "dtype"]
)
def test_swap_removed_engine_option_is_400(swap_registry, option):
    """A removed engine option is an unknown swap key; the error names it
    and the keys a swap takes."""
    service = make_service()
    status, body, _ = swap_body(
        service, swap_registry, {"precision": "fixed16", option: 8}
    )
    assert status == 400
    assert repr(option) in body["error"]
    assert all(key in body["error"] for key in ("name", "version", "precision"))
    assert service.generation == 0


@pytest.mark.parametrize(
    "body", [[1, 2], "x", 5, {"name": 5}, {"version": "1"}, {"precision": 16}]
)
def test_malformed_swap_body_is_400(swap_registry, body):
    """Not a handler error: a body that is not a JSON object, or a field of
    the wrong type, is the client's mistake, and the answer says so."""
    service = make_service()
    status, response, stats = swap_body(service, swap_registry, body)
    assert status == 400
    assert "swap" in response["error"]
    assert stats.handler_errors == 0
    assert service.generation == 0


def test_swap_unknown_model_or_version_is_404(swap_registry):
    status, body = swap_once(make_service(), swap_registry, name="nope")
    assert status == 404
    assert "no versions of model" in body["error"]
    status, body = swap_once(make_service(), swap_registry, version=9)
    assert status == 404
    assert "no version v9" in body["error"]


def test_a_stored_version_the_registry_refuses_is_500(swap_registry, tmp_path):
    """404 is for a version the registry does not hold.  A stored version
    it refuses to load, for want of a checksum or for a damaged archive,
    is damage on the server side: 500, counted as a handler error."""
    registry = ModelRegistry(tmp_path)
    model = swap_registry.load("m")
    registry.save("m", model)
    registry.save("m", model)
    manifest = tmp_path / "m" / "v1" / "meta.json"
    meta = json.loads(manifest.read_text())
    del meta["checksum"]
    manifest.write_text(json.dumps(meta))
    archive = tmp_path / "m" / "v2" / "model.npz"
    data = bytearray(archive.read_bytes())
    data[len(data) // 2] ^= 0xFF
    archive.write_bytes(bytes(data))
    answers = {}
    for version in (9, 1, 2):
        service = make_service()
        status, body, stats = swap_body(
            service, registry, {"version": version, "precision": "fixed16"}
        )
        answers[version] = (status, stats.handler_errors)
        assert service.generation == 0
    assert answers == {9: (404, 0), 1: (500, 1), 2: (500, 1)}


def test_swap_cascade_on_a_fabric_is_400(swap_registry):
    fabric = make_backend("fabric", swap_registry)
    status, body = swap_once(fabric, swap_registry, precision="cascade-fixed16")
    assert status == 400
    assert "cannot publish" in body["error"]
    assert fabric.generation == 0


def test_declined_fabric_swap_is_409_not_200(swap_registry):
    """A swap whose new segment fails its checksum must not report success."""
    fabric = make_backend("fabric", swap_registry)
    plan = FaultPlan(faults=(FaultSpec(point="shm.publish", kind="corrupt", at=(1,)),))
    with inject(plan):
        status, body = swap_once(fabric, swap_registry, precision="fixed16")
    assert status == 409
    assert body["swapped"] is False and body["generation"] == 0
    assert "integrity check failed" in body["reason"]
    assert fabric.generation == 0


# -------------------------------------------------------------------- backends
@pytest.mark.parametrize("kind", ["service", "fabric"])
def test_gateway_serves_either_backend(swap_registry, kind):
    """One wire over an in-process service and a fabric on the same model."""

    async def scenario():
        gateway = await start_gateway(make_backend(kind, swap_registry))
        async with GatewayClient(gateway.host, gateway.port) as client:
            assert (await client.healthz())[1]["backend"] == kind
            status, body = await client.request("GET", "/v1/model")
            assert status == 200
            assert body == {"backend": kind, "generation": 0, "swaps": 0}
            assert (await client.open_session("s1"))[0] == 201
            assert (await client.open_session("s2"))[0] == 201
            status, body = await client.feed("s1", chunk(3))
            assert status == 200 and body["predictions"] == []  # 3 pending
            # s2's window fills the batch; s1's three land in its mailbox.
            status, body = await client.feed("s2", chunk(1))
            assert [w["session_id"] for w in body["predictions"]] == ["s2"]
            status, body = await client.predictions("s1")
            assert status == 200
            assert [w["window_index"] for w in body["predictions"]] == [0, 1, 2]
            assert all(w["status"] == "scored" for w in body["predictions"])
            await client.feed("s1", chunk(2))
            status, body = await client.score("s1")
            assert status == 200
            assert [w["window_index"] for w in body["predictions"]] == [3, 4]
            await client.feed("s2", chunk(1))  # stays pending until the drain
            assert (await client.close_session("s1"))[0] == 200
            status, body = await client.readyz()
            assert status == 200
            assert body == {
                "ready": True,
                "draining": False,
                "breakers": [] if kind == "service" else ["closed"],
                "in_flight": 0,
                "saturation": 0.0,
                "open_sessions": 1,
                "generation": 0,
            }
            status, body = await client.stats()
            assert status == 200 and len(body["backend"]) == 1
            (row,) = body["backend"]
            assert set(SchedulerStats.COUNTS) <= set(row)
            assert row["windows_scored"] == 6  # s2's last window is pending
        report = await gateway.shutdown(2.0)
        assert report["clean"] is True
        assert report["flushed_predictions"] == 1
        assert gateway.stats.windows_answered == 7

    run(scenario())


@pytest.mark.parametrize("kind", ["service", "fabric"])
def test_invalid_session_override_is_400_and_a_duplicate_409(swap_registry, kind):
    """A session is a string id: a windowing override, or any other key, is
    the client's error, named in the answer, and not a handler error, and
    so is an id that is not a string; an id already open is a conflict."""

    async def scenario():
        gateway = await start_gateway(make_backend(kind, swap_registry))
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                for extra in (
                    {"n_channels": 1},
                    {"window_samples": 0},
                    {"step_samples": 8, "statistics": ["mean"]},
                    {"overrides": {}},
                ):
                    status, body = await client.request(
                        "POST", "/v1/sessions", {"session_id": "s1", **extra}
                    )
                    assert status == 400
                    assert all(repr(key) in body["error"] for key in extra)
                for session_id in (5, ["s1"], {"id": "s1"}, True):
                    status, body = await client.request(
                        "POST", "/v1/sessions", {"session_id": session_id}
                    )
                    assert status == 400
                    assert "session_id must be a string" in body["error"]
                assert not gateway.backend.sessions
                assert (await client.open_session("s1"))[0] == 201
                status, body = await client.open_session("s1")
                assert status == 409
                assert "already open" in body["error"]
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.handler_errors == 0
        assert gateway.stats.protocol_errors == 8

    run(scenario())


@pytest.mark.parametrize("kind", ["service", "fabric"])
def test_a_refused_session_body_leaves_every_session_scoring(swap_registry, kind):
    """One client asking for its own windowing cannot stop the others: its
    body is refused, so no narrower window joins their fused batches."""

    async def scenario():
        gateway = await start_gateway(make_backend(kind, swap_registry))
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                for session_id in ("s0", "s1", "s2"):
                    assert (await client.open_session(session_id))[0] == 201
                status, _ = await client.request(
                    "POST", "/v1/sessions", {"session_id": "bad", "n_channels": 1}
                )
                assert status == 400
                one_channel = np.zeros((1, 2 * WINDOW)).tolist()
                assert (await client.feed("bad", one_channel))[0] == 404
                scored = []
                for round_ in range(3):
                    for index, session_id in enumerate(("s0", "s1", "s2")):
                        status, body = await client.feed(
                            session_id, chunk(2, seed=10 * round_ + index)
                        )
                        assert status == 200
                        scored.extend(body["predictions"])
                for session_id in ("s0", "s1", "s2"):
                    status, body = await client.score(session_id)
                    assert status == 200
                    scored.extend(body["predictions"])
                status, body = await client.dead_letters()
                assert status == 200 and body["dead_letters"] == []
        finally:
            await gateway.shutdown(2.0)
        keys = sorted((wire["session_id"], wire["window_index"]) for wire in scored)
        assert keys == [(f"s{n}", index) for n in range(3) for index in range(6)]
        assert all(wire["status"] == "scored" for wire in scored)
        assert gateway.stats.handler_errors == 0

    run(scenario())


@pytest.mark.parametrize("session_id", ["a/b", "a b", "a?b", "a#b", "a%2Fb"])
def test_every_accepted_session_id_can_be_fed_scored_and_closed(session_id):
    """An id may hold any character: the client percent-encodes it and the
    router unquotes each path segment after splitting, so the id reaches
    its own session."""

    async def scenario():
        gateway = await start_gateway()
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                status, body = await client.open_session(session_id)
                assert (status, body["session_id"]) == (201, session_id)
                status, body = await client.request("GET", "/v1/sessions")
                assert body["sessions"] == [session_id]
                status, body = await client.feed(session_id, chunk(4))
                assert status == 200
                assert [w["session_id"] for w in body["predictions"]] == [session_id] * 4
                await client.feed(session_id, chunk(1))
                status, body = await client.score(session_id)
                assert status == 200
                assert [w["window_index"] for w in body["predictions"]] == [4]
                status, body = await client.close_session(session_id)
                assert (status, body["open"]) == (200, False)
                status, body = await client.request("GET", "/v1/sessions")
                assert body["sessions"] == []
        finally:
            await gateway.shutdown(2.0)
        assert not gateway.backend.sessions
        assert gateway.stats.handler_errors == 0

    run(scenario())


@pytest.mark.parametrize("kind", ["service", "fabric"])
def test_a_session_the_gateway_did_not_open_is_404(swap_registry, kind):
    """The gateway serves only the sessions it opened: one opened on the
    backend directly has no mailbox, so its windows would land in the
    orphan mailbox.  Feed, score and close refuse it, and the session
    list leaves it out."""

    async def scenario():
        backend = make_backend(kind, swap_registry)
        backend.open_session("direct")
        gateway = await start_gateway(backend)
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                assert (await client.feed("direct", chunk(4)))[0] == 404
                assert (await client.score("direct"))[0] == 404
                assert (await client.close_session("direct"))[0] == 404
                assert (await client.open_session("s1"))[0] == 201
                status, body = await client.request("GET", "/v1/sessions")
                assert body["sessions"] == ["s1"]
                assert (await client.readyz())[1]["open_sessions"] == 1
                status, body = await client.feed("s1", chunk(4))
                assert [w["session_id"] for w in body["predictions"]] == ["s1"] * 4
                status, body = await client.stats()
                assert body["orphaned_predictions"] == 0
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.handler_errors == 0

    run(scenario())


def test_closed_session_windows_are_answered_into_the_orphan_mailbox():
    """Windows buffered when their session closes are still scored at the
    drain, and land in the orphan mailbox: answered, never lost."""

    async def scenario():
        gateway = await start_gateway()
        async with GatewayClient(gateway.host, gateway.port) as client:
            await client.open_session("s1")
            # two windows buffered (max_batch=4: nothing released yet)
            status, body = await client.feed("s1", chunk(2))
            assert status == 200 and body["predictions"] == []
            status, body = await client.close_session("s1")
            assert status == 200 and body["orphaned"] == 0
        answered_before = gateway.stats.windows_answered
        report = await gateway.shutdown(2.0)
        assert gateway.stats.windows_answered == answered_before + 2
        assert report["flushed_predictions"] == 2
        assert report["undelivered"] == 2

    run(scenario())


def test_websocket_upgrade_is_404_and_the_listener_keeps_serving():
    """The gateway speaks HTTP only: an upgrade request is an unknown route."""

    async def scenario():
        gateway = await start_gateway()
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                status, body = await client.request(
                    "GET",
                    "/v1/stream",
                    headers={
                        "Upgrade": "websocket",
                        "Connection": "Upgrade",
                        "Sec-WebSocket-Key": "dGhlIHNhbXBsZSBub25jZQ==",
                        "Sec-WebSocket-Version": "13",
                    },
                )
                assert status == 404
                assert "/v1/stream" in body["error"]
                # the same connection, and a fresh one, still serve
                assert (await client.healthz())[0] == 200
                assert (await client.open_session("s1"))[0] == 201
            async with GatewayClient(gateway.host, gateway.port) as client:
                assert (await client.healthz())[0] == 200
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.handler_errors == 0

    run(scenario())


@pytest.mark.parametrize("kind", ["service", "fabric"])
def test_stats_reads_the_backend_on_the_backend_thread(
    swap_registry, kind, monkeypatch
):
    """``GET /v1/stats`` never blocks the event loop on a backend read."""
    threads = []

    def recording(original):
        def backend_stats(self):
            threads.append(threading.current_thread().name)
            return original(self)

        return backend_stats

    monkeypatch.setattr(
        Gateway, "_backend_stats", recording(Gateway._backend_stats)
    )

    async def scenario():
        gateway = await start_gateway(make_backend(kind, swap_registry))
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                status, body = await client.stats()
                assert status == 200 and len(body["backend"]) == 1
        finally:
            await gateway.shutdown(2.0)

    run(scenario())
    assert threads and all(name.startswith("gateway-backend") for name in threads)


def test_fabric_dead_letters_reach_the_gateway(swap_registry):
    """Windows dead-lettered inside a fabric worker are listed and replayed."""
    plan = FaultPlan(
        faults=(FaultSpec(point="scheduler.score", kind="exception", at=(1,)),)
    )

    async def scenario():
        fabric = make_backend("fabric", swap_registry, max_batch=2, max_retries=0)
        gateway = await start_gateway(fabric)
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.open_session("s1")
                status, _ = await client.feed("s1", chunk(2))
                assert status == 500  # the injected scorer fault
                status, body = await client.dead_letters()
                assert status == 200
                assert [w["window_index"] for w in body["dead_letters"]] == [0, 1]
                assert all(w["status"] == "dead" for w in body["dead_letters"])
                status, body = await client.replay_dead_letters()
                assert status == 200
                assert body["replayed"] == 2
                assert [w["status"] for w in body["predictions"]] == ["scored"] * 2
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.dead_letters_replayed == 2

    with inject(plan):
        run(scenario())


def test_gateway_refuses_an_unknown_backend():
    with pytest.raises(TypeError, match="StreamingService or ServingFabric"):
        Gateway(object())


# ----------------------------------------------------------------------- chaos
def test_chaos_gateway_request_fault_yields_500_not_crash():
    async def scenario():
        gateway = await start_gateway()
        plan = FaultPlan(
            seed=7,
            faults=(FaultSpec(point="gateway.request", kind="exception", at=(1,)),),
        )
        try:
            with inject(plan):
                async with GatewayClient(gateway.host, gateway.port) as client:
                    status, body = await client.open_session("s1")
                    assert status == 500
                    assert "chaos" in body["error"]
                    # next hit doesn't match `at`: the edge recovered
                    status, _ = await client.open_session("s1")
                    assert status == 201
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.handler_errors >= 1

    run(scenario())


def test_slow_loris_client_is_bounded_by_request_timeout():
    async def scenario():
        gateway = await start_gateway(request_timeout=1.0)
        try:
            client = GatewayClient(
                gateway.host, gateway.port, trickle=(8, 0.02)
            )
            # a trickled request that fits inside the budget still succeeds
            status, _ = await client.healthz()
            assert status == 200
            await client.close()
            # one that stalls forever is cut off with 408
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(b"GET /healthz HT")  # ...and never finishes
            await writer.drain()
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=2.0)
            assert b"408" in head.split(b"\r\n", 1)[0]
            writer.close()
        finally:
            await gateway.shutdown(2.0)

    run(scenario())


def test_mid_stream_disconnect_does_not_leak_or_crash():
    async def scenario():
        gateway = await start_gateway()
        try:
            aborter = GatewayClient(gateway.host, gateway.port)
            await aborter.abort_mid_request()
            await asyncio.sleep(0.05)
            async with GatewayClient(gateway.host, gateway.port) as client:
                assert (await client.healthz())[0] == 200
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.disconnects >= 1

    run(scenario())


def test_prediction_wire_is_strict_json():
    """Every wire dict the gateway emits survives allow_nan=False dumps."""
    scheduler = MicroBatchScheduler(
        StubScorer(), max_batch=8, max_wait=1e9, max_pending=2
    )
    rng = np.random.default_rng(0)
    for index in range(6):
        scheduler.submit("s", index, rng.normal(size=N_FEATURES))
    predictions = scheduler.flush()
    assert any(p.shed for p in predictions)
    for prediction in predictions:
        text = json.dumps(prediction.to_wire(), allow_nan=False)
        decoded = json.loads(text)
        assert decoded["status"] == prediction.status


def test_prediction_wire_keys():
    """Scored and shed predictions carry the same wire keys, and only these."""
    scheduler = MicroBatchScheduler(
        StubScorer(), max_batch=8, max_wait=1e9, max_pending=1
    )
    scheduler.submit("s", 0, np.zeros(N_FEATURES))
    scheduler.submit("s", 1, np.ones(N_FEATURES))  # sheds window 0
    shed, scored = scheduler.flush()
    assert shed.shed and not scored.shed
    keys = {
        "session_id",
        "window_index",
        "status",
        "label",
        "scores",
        "queue_seconds",
        "score_seconds",
        "batch_size",
    }
    assert set(shed.to_wire()) == keys
    assert set(scored.to_wire()) == keys
