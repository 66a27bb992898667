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
  serving;
* **the HTTP contract** — one hypothesis state machine
  (:class:`GatewayMachine`) drives a live gateway over a service and a
  fabric and checks every answer against a reference model.

Everything runs on the stdlib loop (tier-1 stays hermetic; no async test
plugin needed).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path
from typing import NamedTuple
from urllib.parse import quote, unquote

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.gateway import (
    Gateway,
    GatewayClient,
    ProtocolError,
    RateLimiter,
    TokenBucket,
)
from repro.gateway.client import _read_response, _request_bytes
from repro.gateway import app, limits
from repro.gateway.http import Request, parse_request_head
from repro.gateway.limits import ConcurrencyLimiter
from repro.core.boosthd import BoostHD
from repro.obs import capture
from repro.resilience import FaultPlan, FaultSpec, inject
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


async def send_raw(gateway, method, path, payload=None, headers=None, *, trickle=None):
    """One request on a connection of its own, with any headers, written
    whole or ``trickle=(chunk_bytes, delay_seconds)`` at a time: a slow
    client.  Returns ``(status, parsed body)``."""
    reader, writer = await asyncio.open_connection(gateway.host, gateway.port)
    try:
        raw = _request_bytes(method, path, payload, headers or {}, gateway.host)
        step, delay = trickle or (len(raw), 0.0)
        for start in range(0, len(raw), step):
            writer.write(raw[start : start + step])
            await writer.drain()
            await asyncio.sleep(delay)
        status, _, body = await _read_response(reader)
    finally:
        writer.close()
    return status, json.loads(body) if body else None


#: The first six scoring calls fail: a window in all six exhausts the
#: scheduler's five retries and is dead-lettered.
DEAD_LETTER_PLAN = FaultPlan(
    faults=(FaultSpec(point="scheduler.score", kind="exception", at=tuple(range(1, 7))),)
)


# ---------------------------------------------------------------- token bucket
class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


#: Clock advances, one request after each.
bucket_ops = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=60
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
    granted = 0
    elapsed = 0.0
    for advance in ops:
        clock.advance(advance)
        elapsed += advance
        if bucket.try_acquire() == 0.0:
            granted += 1
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
    for advance in ops:
        first_clock.advance(advance)
        second_clock.advance(advance)
        assert first.try_acquire() == second.try_acquire()


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
        if bucket.try_acquire() > 0.0:
            break
    retry_after = bucket.try_acquire()
    if retry_after > 0.0:
        clock.advance(retry_after + 1e-9)
        assert bucket.try_acquire() == 0.0


def test_rate_limiter_lru_eviction_is_bounded(monkeypatch):
    monkeypatch.setattr(limits, "_MAX_CLIENTS", 4)
    clock = FakeClock()
    limiter = RateLimiter(10.0, 5.0, clock=clock)
    for index in range(10):
        limiter.try_acquire(f"client-{index}")
    assert len(limiter) == 4


def test_concurrency_limiter_rejects_never_queues():
    limiter = ConcurrencyLimiter(2)
    assert limiter.acquire() and limiter.acquire()
    assert not limiter.acquire()
    limiter.release()
    assert limiter.acquire()
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
                # a percent-encoded /v1 path is admitted like the plain one
                assert (await client.request("GET", "/%761/sessions"))[0] == 429
                # a different client has its own bucket
                async with GatewayClient(
                    gateway.host, gateway.port, client_id="other"
                ) as other:
                    status, _ = await other.request("GET", "/v1/sessions")
                    assert status == 200
                # probes are never rate limited
                assert (await client.request("GET", "/healthz"))[0] == 200
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
            async with GatewayClient(gateway.host, gateway.port, deadline_ms=0) as client:
                status, body = await client.feed("s1", chunk(1))
                assert status == 504
                assert body["accepted"] is False
            for malformed in ("banana", "nan"):
                status, body = await send_raw(
                    gateway,
                    "POST",
                    "/v1/sessions/s1/windows",
                    {"samples": chunk(1)},
                    {"x-repro-deadline-ms": malformed},
                )
                assert status == 400
            # a generous deadline sails through
            async with GatewayClient(
                gateway.host, gateway.port, deadline_ms=30_000
            ) as client:
                status, _ = await client.feed("s1", chunk(1))
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
        gateway = await start_gateway(make_service(max_batch=2))
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.open_session("s1")
                status, body = await client.feed("s1", chunk(2))
                assert status == 500  # scorer down: the windows stay queued
                for _ in range(5):  # five retries, the last dead-letters them
                    assert (await client.score("s1"))[0] == 500
                status, body = await client.request("GET", "/v1/dead-letters")
                assert status == 200
                assert len(body["dead_letters"]) == 2
                for wire in body["dead_letters"]:
                    assert wire["status"] == "dead"
                    assert wire["attempts"] == 6
                    assert "error" in wire
                status, body = await client.request("POST", "/v1/dead-letters/replay")
                assert status == 200
                assert body["replayed"] == 2
                assert len(body["predictions"]) == 2
                assert all(w["status"] == "scored" for w in body["predictions"])
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.dead_letters_replayed == 2

    with inject(DEAD_LETTER_PLAN):
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
            assert (await send_raw(gateway, "GET", "/healthz"))[0] == 200
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


def test_a_body_that_is_not_utf8_is_400():
    """JSON bodies are UTF-8, so a byte search for booleans sees the text:
    a UTF-16 body cannot carry a ``true`` past it."""
    text = json.dumps({"samples": [[1.5, True] + [0.5] * (WINDOW - 2)] * N_CHANNELS})
    path = "/v1/sessions/s1/windows"
    request = Request("POST", path, path, body=text.encode("utf-16"))
    with pytest.raises(ProtocolError, match="invalid JSON") as raised:
        request.json()
    assert raised.value.status == 400


# ------------------------------------------------------------- stored model
@pytest.fixture(scope="module")
def model_registry(tmp_path_factory):
    """A registry holding one small model ``"m"`` over the gateway's features."""
    rng = np.random.default_rng(3)
    centers = np.repeat(np.eye(3, N_FEATURES) * 4, 20, axis=0)
    X = rng.normal(size=(60, N_FEATURES)) + centers
    y = np.repeat(np.arange(3), 20)
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.save("m", BoostHD(total_dim=240, n_learners=3, epochs=1, seed=0).fit(X, y))
    return registry


def make_backend(kind: str, registry, **overrides):
    """A service or a 1-worker fabric over the registry's fixed16 model."""
    engine = registry.load_compiled("m", precision="fixed16")
    if kind == "service":
        return make_service(engine, **overrides)
    options = {**SERVICE_OPTIONS, **overrides}
    return ServingFabric(engine, n_workers=1, **options)


# -------------------------------------------------------------------- backends
@pytest.mark.parametrize("kind", ["service", "fabric"])
def test_gateway_serves_either_backend(model_registry, kind):
    """One wire over an in-process service and a fabric on the same model."""

    async def scenario():
        gateway = await start_gateway(make_backend(kind, model_registry))
        async with GatewayClient(gateway.host, gateway.port) as client:
            assert (await client.request("GET", "/healthz"))[1]["backend"] == kind
            status, body = await client.request("GET", "/v1/model")
            assert status == 200
            assert body == {"backend": kind, "generation": 0}
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
def test_a_refused_session_body_leaves_every_session_scoring(model_registry, kind):
    """One client asking for its own windowing cannot stop the others: its
    body is refused, so no narrower window joins their fused batches."""

    async def scenario():
        gateway = await start_gateway(make_backend(kind, model_registry))
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
                status, body = await client.request("GET", "/v1/dead-letters")
                assert status == 200 and body["dead_letters"] == []
        finally:
            await gateway.shutdown(2.0)
        keys = sorted((wire["session_id"], wire["window_index"]) for wire in scored)
        assert keys == [(f"s{n}", index) for n in range(3) for index in range(6)]
        assert all(wire["status"] == "scored" for wire in scored)
        assert gateway.stats.handler_errors == 0

    run(scenario())


def test_a_reopened_session_gets_none_of_its_namesakes_windows():
    """Windows a closed session left pending are answered into the orphan
    mailbox, even when its id is opened again before they are scored."""

    async def scenario():
        gateway = await start_gateway()
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.open_session("s1")
                await client.feed("s1", chunk(2))  # pending: max_batch=4
                await client.close_session("s1")
                await client.open_session("s1")
                _, fed = await client.feed("s1", chunk(2, seed=1))
                _, scored = await client.score("s1")
                _, stats = await client.stats()
        finally:
            await gateway.shutdown(2.0)
        answered = fed["predictions"] + scored["predictions"]
        assert [wire["window_index"] for wire in answered] == [0, 1]
        assert stats["orphaned_predictions"] == 2

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


@pytest.mark.parametrize("kind", ["service", "fabric"])
def test_stats_reads_the_backend_on_the_backend_thread(
    model_registry, kind, monkeypatch
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
        gateway = await start_gateway(make_backend(kind, model_registry))
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                status, body = await client.stats()
                assert status == 200 and len(body["backend"]) == 1
        finally:
            await gateway.shutdown(2.0)

    run(scenario())
    assert threads and all(name.startswith("gateway-backend") for name in threads)


def test_fabric_dead_letters_reach_the_gateway(model_registry):
    """Windows dead-lettered inside a fabric worker are listed and replayed."""

    async def scenario():
        fabric = make_backend("fabric", model_registry, max_batch=2)
        gateway = await start_gateway(fabric)
        try:
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.open_session("s1")
                status, _ = await client.feed("s1", chunk(2))
                assert status == 500  # the injected scorer fault
                for _ in range(5):  # five retries, the last dead-letters them
                    assert (await client.score("s1"))[0] == 500
                status, body = await client.request("GET", "/v1/dead-letters")
                assert status == 200
                assert [w["window_index"] for w in body["dead_letters"]] == [0, 1]
                assert all(w["status"] == "dead" for w in body["dead_letters"])
                status, body = await client.request("POST", "/v1/dead-letters/replay")
                assert status == 200
                assert body["replayed"] == 2
                assert [w["status"] for w in body["predictions"]] == ["scored"] * 2
        finally:
            await gateway.shutdown(2.0)
        assert gateway.stats.dead_letters_replayed == 2

    with inject(DEAD_LETTER_PLAN):
        run(scenario())


def test_gateway_refuses_an_unknown_backend():
    with pytest.raises(TypeError, match="StreamingService or ServingFabric"):
        Gateway(object())


@pytest.mark.parametrize(
    "setting, match",
    [
        ({"rate": 0}, "rate"),
        ({"rate": -1}, "rate"),
        ({"rate": math.nan}, "rate"),
        ({"rate": 10, "burst": 0}, "burst"),
        ({"rate": 10, "burst": 0.5}, "burst"),
        ({"drain_deadline": -1}, "drain_deadline"),
        ({"drain_deadline": math.nan}, "drain_deadline"),
    ],
    ids=["rate-0", "rate-negative", "rate-nan", "burst-0", "burst-half", "drain-negative", "drain-nan"],
)
def test_a_setting_no_request_could_pass_is_refused_when_built(setting, match):
    """A rate or burst no token bucket could grant with would answer every
    ``/v1`` request 500, and a drain budget below zero would make shutdown
    raise before it closes the listener: each is a ValueError here."""
    with pytest.raises(ValueError, match=match):
        Gateway(make_service(), **setting)


@pytest.mark.parametrize(
    "flags",
    [
        ("--rate", "0"),
        ("--burst", "0.5"),
        ("--drain-deadline", "-1"),
        ("--drain-deadline", "nan"),
        ("--max-concurrent", "0"),
        ("--precision", "nope"),
    ],
    ids=["rate-0", "burst-half", "drain-negative", "drain-nan", "concurrent-0", "precision"],
)
def test_the_demo_gateway_refuses_a_setting_before_it_trains(flags):
    """``python -m repro.gateway`` checks every setting with the rule the
    gateway or the engine applies, so a refused one is a usage error that
    costs no training run."""
    src = Path(app.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-m", "repro.gateway", "--port", "0", *flags],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert result.returncode == 2, result.stdout + result.stderr
    assert f"error: argument {flags[0]}: " in result.stderr
    assert "Training" not in result.stdout + result.stderr


def test_a_refused_shutdown_budget_changes_nothing():
    """``shutdown`` checks its budget before it stops accepting: after a
    refused call the gateway still serves, and a plain shutdown drains."""

    async def scenario():
        gateway = await start_gateway()
        for budget in (-1, math.nan):
            with pytest.raises(ValueError, match="drain_deadline"):
                await gateway.shutdown(budget)
            assert (await send_raw(gateway, "GET", "/healthz"))[0] == 200
            assert (await send_raw(gateway, "GET", "/readyz"))[0] == 200
        await gateway.shutdown()
        return gateway

    assert run(scenario()).stats.drained_clean


def test_an_unset_burst_is_the_rate_and_at_least_one():
    assert Gateway(make_service(), rate=20.0).rate_limiter.burst == 20.0
    assert Gateway(make_service(), rate=0.5).rate_limiter.burst == 1.0


def test_shutdown_waits_for_a_handler_that_is_still_closing(monkeypatch):
    """A connection handler leaves the gateway's task set only once its
    socket has closed, so shutdown waits for (or cancels) one that is
    closing, and no handler outlives the drain."""
    wait_closed = asyncio.StreamWriter.wait_closed

    async def slow_wait_closed(writer):
        await asyncio.sleep(0.5)
        await wait_closed(writer)

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", slow_wait_closed)

    async def scenario():
        gateway = await start_gateway()
        reader, writer = await asyncio.open_connection(gateway.host, gateway.port)
        writer.write(_request_bytes("GET", "/healthz", None, {}, "gw"))
        assert (await _read_response(reader))[0] == 200
        writer.close()
        while gateway._connections:  # the handler saw EOF and is closing
            await asyncio.sleep(0.005)
        await gateway.shutdown(1.0)
        return [
            task
            for task in asyncio.all_tasks()
            if task.get_coro().__qualname__ == "Gateway._handle_connection"
        ]

    assert run(scenario()) == []


# ------------------------------------------------------------ the contract
#: The contract the machine checks, stated apart from the gateway's table:
#: every path pattern and the methods it answers.
CONTRACT = {
    "/healthz": {"GET"},
    "/readyz": {"GET"},
    "/metrics": {"GET"},
    "/v1/sessions": {"GET", "POST"},
    "/v1/sessions/{id}": {"DELETE"},
    "/v1/sessions/{id}/windows": {"POST"},
    "/v1/sessions/{id}/score": {"POST"},
    "/v1/sessions/{id}/predictions": {"GET"},
    "/v1/model": {"GET"},
    "/v1/dead-letters": {"GET"},
    "/v1/dead-letters/replay": {"POST"},
    "/v1/stats": {"GET"},
}
#: The body keys of the routes that take any: key -> (JSON types, required).
BODIES = {
    ("POST", "/v1/sessions"): {"session_id": ((str,), True)},
    ("POST", "/v1/sessions/{id}/windows"): {"samples": ((list,), True)},
}
JSON_NAMES = {str: "string", list: "array"}
#: The backends' scheduler releases full batches of this many windows.
MAX_BATCH = SERVICE_OPTIONS["max_batch"]
IDS = ("s1", "a/b", "a b", "a?b", "a#b", "a%2Fb", "")
#: Session bodies refused with a 400: a windowing override or any other
#: stray key, and an id that is not a JSON string.
REFUSED_OPENS = (
    {"session_id": "s1", "n_channels": 1},
    {"session_id": "s1", "window_samples": 0},
    {"session_id": "s1", "step_samples": 8, "statistics": ["mean"]},
    {"session_id": "s1", "overrides": {}},
    *({"session_id": session_id} for session_id in (5, ["s1"], {"id": "s1"}, True)),
)
METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH")
UPGRADE = {
    "Upgrade": "websocket",
    "Connection": "Upgrade",
    "Sec-WebSocket-Key": "dGhlIHNhbXBsZSBub25jZQ==",
    "Sec-WebSocket-Version": "13",
}
FEEDS = (
    "numbers",
    "strings",
    "booleans",
    "null",
    "ragged",
    "float-and-bool",
    "int-and-bool",
    "not-an-array",
    "missing",
    "stray",
)


def route_of(path: str) -> tuple[str | None, str | None]:
    """The contract's pattern for a raw path, and its unquoted ``{id}``."""
    segments = [unquote(part) for part in path.split("/")]
    for pattern in CONTRACT:
        fixed = pattern.split("/")
        if len(fixed) == len(segments) and all(
            want == got or (want == "{id}" and got) for want, got in zip(fixed, segments)
        ):
            ids = [got for want, got in zip(fixed, segments) if want == "{id}"]
            return pattern, (ids[0] if ids else None)
    return None, None


def session_path(session_id: str, *action: str) -> str:
    return "/".join(("/v1/sessions", quote(session_id, safe=""), *action))


def feed_body(kind: str, channels: int, windows: int, seed: int):
    rows = np.random.default_rng(seed).normal(size=(channels, WINDOW * windows)).tolist()
    width = WINDOW * windows
    replace = {
        "strings": [["1.5"] * width] * channels,
        "booleans": [[True] * width] * channels,
        "null": [[None] * width] * channels,
        "ragged": [row[: width - 1] if index == 0 else row for index, row in enumerate(rows)],
        "float-and-bool": [[1.5, True] + row[2:] for row in rows],
        "int-and-bool": [[1, True] + [0] * (width - 2)] * channels,
        "not-an-array": "1.5",
    }
    if kind == "missing":
        return {}
    if kind == "stray":
        return {"samples": rows, "true": 1}
    return {"samples": replace.get(kind, rows)}


def samples_valid(samples) -> bool:
    """The contract's feed samples: N_CHANNELS equal rows of JSON numbers."""
    return (
        len(samples) == N_CHANNELS
        and all(type(row) is list and len(row) == len(samples[0]) for row in samples)
        and all(type(value) in (int, float) for row in samples for value in row)
    )


def submitted(backend) -> int:
    rows = backend.stats() if isinstance(backend, ServingFabric) else [backend.stats.as_dict()]
    return sum(row["windows_submitted"] for row in rows)


class Expect(NamedTuple):
    status: int
    keys: tuple = ()  # what a 400's error must hold: the keys it names
    effect: object = None  # the model's update, given the response body


class GatewayMachine(RuleBasedStateMachine):
    """A live gateway against a reference model of open ids and mailboxes."""

    def __init__(self, kind: str, registry):
        super().__init__()
        self.kind, self.registry = kind, registry
        self.loop = asyncio.new_event_loop()
        self.gateway = None
        self.open: dict[str, None] = {}  # gateway-opened ids, in opening order
        self.direct: set[str] = set()  # ids opened on the backend directly
        self.closed: set[str] = set()  # ids the gateway closed
        self.unflushed: set[str] = set()  # closed since the last backend drain
        self.fed: dict[str, int] = {}  # windows fed to each open session
        self.pending: list[tuple[str, int]] = []  # windows not yet scored, oldest first
        self.mailbox: dict[str, list[int]] = {}  # window indices answered to an open id
        self.orphans = 0  # windows answered into the orphan mailbox
        self.windows = 0  # windows the backend accepted
        self.bad_requests = 0  # 400s the model predicted

    @initialize(opened=st.lists(st.sampled_from(IDS[:-1]), max_size=3, unique=True))
    def start(self, opened):
        self.gateway = self.run(start_gateway(make_backend(self.kind, self.registry)))
        self.connect()
        for session_id in opened:
            self.send("POST", "/v1/sessions", {"session_id": session_id})

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def connect(self):
        self.reader, self.writer = self.run(
            asyncio.open_connection(self.gateway.host, self.gateway.port)
        )

    def exchange(self, method, path, payload=None, headers=None):
        self.writer.write(_request_bytes(method, path, payload, headers or {}, "gw"))
        status, response_headers, body = self.run(_read_response(self.reader))
        if response_headers.get("content-type") == "application/json":
            body = json.loads(body)
        return status, response_headers, body

    # --------------------------------------------------------------- model
    def expect(self, method: str, path: str, payload) -> Expect:
        pattern, session_id = route_of(path)
        if pattern is None:
            return Expect(404)
        if method not in CONTRACT[pattern]:
            return Expect(405)
        # The handler's expectation: expect_<method><pattern as a name>.
        handler = getattr(
            self,
            "expect_" + method.lower() + pattern.replace("{id}", "id").translate(
                {ord("/"): "_", ord("-"): "_"}
            ),
        )
        if not pattern.startswith("/v1/"):  # a probe
            return handler(None, {})
        if session_id is not None and session_id not in self.open:
            return Expect(404)
        spec = BODIES.get((method, pattern), {})
        body = {} if payload is None else payload
        if type(body) is not dict:
            return Expect(400)
        for key, (_, required) in spec.items():
            if required and key not in body:
                return Expect(400, (repr(key),))
        stray = [key for key in body if key not in spec]
        if stray:
            return Expect(400, tuple(map(repr, (*stray, *spec))))
        for key, value in body.items():
            if type(value) not in spec[key][0]:
                names = " or ".join(JSON_NAMES[kind] for kind in spec[key][0])
                return Expect(400, (f"{key!r} must be a JSON {names}",))
        return handler(session_id, body)

    def expect_get_healthz(self, session_id, body):
        return Expect(200)

    def expect_get_readyz(self, session_id, body):
        def effect(response):
            assert response["open_sessions"] == len(self.open)

        return Expect(200, effect=effect)

    expect_get_metrics = expect_get_healthz

    def release(self, every: bool = False) -> None:
        """The scheduler: full batches (every window on a drain), oldest
        first, each answered into its id's mailbox, or the orphan mailbox
        once the gateway has closed the id."""
        count = len(self.pending) if every else len(self.pending) // MAX_BATCH * MAX_BATCH
        for session_id, index in self.pending[:count]:
            if session_id in self.open:
                self.mailbox[session_id].append(index)
            else:
                self.orphans += 1
        del self.pending[:count]

    def flush(self) -> None:
        """A backend-wide drain: what a score, or reopening a closed id, runs."""
        self.release(every=True)
        self.unflushed.clear()

    def expect_post_v1_sessions(self, session_id, body):
        session_id = body["session_id"]
        if not session_id:
            return Expect(400, ("session_id",))
        # A closed namesake's pending windows are flushed before the open.
        flush = self.flush if session_id in self.unflushed else None
        if session_id in self.open or session_id in self.direct:
            return Expect(409, effect=flush and (lambda response: flush()))

        def effect(response):
            assert response == {"session_id": session_id, "open": True}
            if flush:
                flush()
            self.open[session_id] = None
            self.fed[session_id], self.mailbox[session_id] = 0, []

        return Expect(201, effect=effect)

    def expect_get_v1_sessions(self, session_id, body):
        def effect(response):
            assert response["sessions"] == list(self.open)

        return Expect(200, effect=effect)

    def expect_delete_v1_sessions_id(self, session_id, body):
        def effect(response):
            leftover = len(self.mailbox[session_id])
            assert response == {"session_id": session_id, "open": False, "orphaned": leftover}
            self.orphans += leftover
            for ledger in (self.open, self.fed, self.mailbox):
                del ledger[session_id]
            self.closed.add(session_id)
            self.unflushed.add(session_id)

        return Expect(200, effect=effect)

    def deliver(self, session_id, response):
        """The answer is the id's mailbox, exactly and in order, now empty."""
        assert response["session_id"] == session_id
        keys = [(wire["session_id"], wire["window_index"]) for wire in response["predictions"]]
        assert keys == [(session_id, index) for index in self.mailbox[session_id]]
        self.mailbox[session_id].clear()

    def expect_post_v1_sessions_id_windows(self, session_id, body):
        samples = body["samples"]
        if not samples_valid(samples):
            return Expect(400, ("samples",))
        windows = len(samples[0]) // WINDOW

        def effect(response):
            fed = self.fed[session_id]
            self.pending += [(session_id, fed + index) for index in range(windows)]
            self.fed[session_id] += windows
            self.windows += windows
            self.release()
            self.deliver(session_id, response)

        return Expect(200, effect=effect)

    def expect_post_v1_sessions_id_score(self, session_id, body):
        def effect(response):
            self.flush()
            self.deliver(session_id, response)

        return Expect(200, effect=effect)

    def expect_get_v1_sessions_id_predictions(self, session_id, body):
        return Expect(200, effect=partial(self.deliver, session_id))

    def expect_get_v1_model(self, session_id, body):
        def effect(response):
            assert response == {"backend": self.kind, "generation": 0}

        return Expect(200, effect=effect)

    def expect_get_v1_dead_letters(self, session_id, body):
        return Expect(200)

    def expect_post_v1_dead_letters_replay(self, session_id, body):
        def effect(response):
            assert response == {"replayed": 0, "predictions": []}

        return Expect(200, effect=effect)

    def expect_get_v1_stats(self, session_id, body):
        def effect(response):
            assert response["orphaned_predictions"] == self.orphans

        return Expect(200, effect=effect)

    # ----------------------------------------------------------- checking
    def send(self, method: str, path: str, payload=None, headers=None) -> None:
        expect = self.expect(method, path, payload)
        status, response_headers, response = self.exchange(method, path, payload, headers)
        assert status == expect.status, (method, path, payload, status, response)
        assert status < 500
        if status == 405:
            allowed = set(response_headers["allow"].split(", "))
            assert allowed == CONTRACT[route_of(path)[0]]
        if status == 400:
            self.bad_requests += 1
            assert all(key in response["error"] for key in expect.keys), response
        if status == 404 and route_of(path)[0] is None:
            assert repr(path) in response["error"]
        if status == 409 and method == "POST" and path == "/v1/sessions":
            assert "already open" in response["error"]
        if 400 <= status < 500:
            status, _, listed = self.exchange("GET", "/v1/sessions")
            assert (status, listed["sessions"]) == (200, list(self.open))
            assert submitted(self.gateway.backend) == self.windows
            assert self.gateway.backend.generation == 0
        if expect.effect is not None:
            expect.effect(response)
        assert set(self.gateway.backend.sessions) == set(self.open) | self.direct

    def some_id(self, data) -> str:
        """An open id three times in four, else any id (open or not)."""
        if self.open and data.draw(st.integers(0, 3)):
            return data.draw(st.sampled_from(sorted(self.open)))
        return data.draw(st.sampled_from(IDS))

    # -------------------------------------------------------------- rules
    @rule(
        data=st.data(),
        stray=st.sampled_from(
            [()] * 12
            + [("n_channels",), ("window_samples",), ("step_samples", "statistics")]
            + [("overrides",)]
        ),
        not_object=st.sampled_from([None] * 12 + [["s1"], "s1", 5]),
    )
    def open_session(self, data, stray, not_object):
        if self.closed and data.draw(st.booleans()):
            session_id = data.draw(st.sampled_from(sorted(self.closed)))
        else:
            session_id = data.draw(
                st.sampled_from(
                    IDS * 4 + (5, 1.5, True, None, ["s1"], {"id": "s1"}, "<missing>")
                )
            )
        body = {} if session_id == "<missing>" else {"session_id": session_id}
        body.update(dict.fromkeys(stray, 1))
        self.send("POST", "/v1/sessions", body if not_object is None else not_object)

    @rule(data=st.data())
    def close_session(self, data):
        self.send("DELETE", session_path(self.some_id(data)))

    @rule(
        data=st.data(),
        kind=st.sampled_from(("numbers",) * 6 + FEEDS),
        channels=st.sampled_from([N_CHANNELS] * 6 + [1, 2, 3, 5]),
        windows=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def feed(self, data, kind, channels, windows, seed):
        path = session_path(self.some_id(data), "windows")
        self.send("POST", path, feed_body(kind, channels, windows, seed))

    @rule(data=st.data())
    def score(self, data):
        self.send("POST", session_path(self.some_id(data), "score"))

    @rule(data=st.data())
    def predictions(self, data):
        self.send("GET", session_path(self.some_id(data), "predictions"))

    @rule(session_id=st.sampled_from(IDS[:-1]))
    def open_on_the_backend(self, session_id):
        if session_id not in self.open and session_id not in self.direct:
            self.gateway.backend.open_session(session_id)
            self.direct.add(session_id)

    @rule(
        data=st.data(),
        method=st.sampled_from(METHODS),
        pattern=st.sampled_from(
            [*CONTRACT, "/", "*", "/v1", "/v1/nope", "/v1/stream", "/v1/model/swap"]
        ),
        mangle=st.sampled_from(["", "", "", "double", "trailing", "prefix"]),
        at=st.integers(0, 5),
        upgrade=st.booleans(),
        fresh=st.booleans(),
    )
    def any_request(self, data, method, pattern, mangle, at, upgrade, fresh):
        path = pattern.replace("{id}", quote(self.some_id(data) or "x", safe=""))
        if mangle == "double":
            slashes = [index for index, char in enumerate(path) if char == "/"]
            if slashes:
                cut = slashes[at % len(slashes)]
                path = path[:cut] + "/" + path[cut:]
        elif mangle:
            path = path + "/" if mangle == "trailing" else "//x" + path
        if fresh:
            self.writer.close()
            self.connect()
        self.send(method, path, headers=UPGRADE if upgrade else None)
        if upgrade:  # HTTP only: a fresh connection is served as well
            self.writer.close()
            self.connect()
            self.send("GET", "/healthz")

    async def stop(self):
        self.writer.close()
        await self.gateway.shutdown(2.0)
        # Let the connection handlers finish closing their sockets.
        await asyncio.gather(*asyncio.all_tasks() - {asyncio.current_task()})

    def round_trip(self, session_id: str) -> None:
        """Open an id twice (the second a 409) and score it, so nothing is
        pending; feed it a full batch and a window more, which the feed and
        a second score answer; close it, and ask for its predictions.  Each
        request takes the id's percent-encoded path.  An id the backend
        opened answers both opens with 409 and the rest with 404."""
        self.send("POST", "/v1/sessions", {"session_id": session_id})
        self.send("POST", "/v1/sessions", {"session_id": session_id})
        self.send("GET", "/readyz")
        self.send("POST", session_path(session_id, "score"))
        self.send("POST", session_path(session_id, "windows"), {"samples": chunk(MAX_BATCH + 1)})
        self.send("POST", session_path(session_id, "score"))
        self.send("DELETE", session_path(session_id))
        self.send("GET", session_path(session_id, "predictions"))

    def teardown(self):
        """Every example ends with the same cases, whatever the rules drew:
        each refused open, each id's round trip and the orphan count."""
        if self.gateway is not None:
            try:
                for body in REFUSED_OPENS:
                    self.send("POST", "/v1/sessions", body)
                for session_id in IDS[:-1]:
                    self.round_trip(session_id)
                self.send("GET", "/v1/stats")
            finally:  # a failed case still shuts the gateway down
                self.run(self.stop())
        self.loop.close()
        if self.gateway is not None:
            assert self.gateway.stats.handler_errors == 0
            assert self.gateway.stats.protocol_errors == self.bad_requests


@pytest.mark.parametrize(
    "kind, examples, steps",
    [("service", 30, 25), ("fabric", 8, 20)],
    ids=["service", "fabric"],
)
def test_the_gateway_keeps_its_contract(model_registry, kind, examples, steps):
    """One state machine checks the whole HTTP contract: every status is
    the model's, a 405 names the path's methods in ``Allow``, a 400 names
    the offending key (and the JSON type a value lacks), a 409 says the id
    is already open, nothing answers 5xx, and no 4xx changes a session,
    the windows submitted or the generation (the same connection serves
    the next request); the backend holds exactly the gateway's and the
    directly opened ids; every feed, score and predictions answer is the
    id's mailbox, exactly and in order, with batches of ``MAX_BATCH``
    released oldest first; open and close answer with the id, and a close
    with the windows it orphaned; the orphan count in ``/v1/stats`` is the
    model's; after an upgrade request a fresh connection is served too.
    Every example ends with each refused open body and every id's round
    trip, and with no handler error and one protocol error per 400."""
    with capture():
        run_state_machine_as_test(
            lambda: GatewayMachine(kind, model_registry),
            settings=settings(
                max_examples=examples,
                stateful_step_count=steps,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            ),
        )


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


def test_slow_loris_client_is_bounded_by_request_timeout(monkeypatch):
    monkeypatch.setattr(app, "_REQUEST_TIMEOUT", 1.0)

    async def scenario():
        gateway = await start_gateway()
        try:
            # a trickled request that fits inside the budget still succeeds
            status, _ = await send_raw(gateway, "GET", "/healthz", trickle=(8, 0.02))
            assert status == 200
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
            # half a request, then the connection is torn down
            payload = {"session_id": "aborted", "padding": "x" * 512}
            raw = _request_bytes("POST", "/v1/sessions", payload, {}, "gw")
            _, writer = await asyncio.open_connection(gateway.host, gateway.port)
            writer.write(raw[: len(raw) // 2])
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.05)
            assert (await send_raw(gateway, "GET", "/healthz"))[0] == 200
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
