"""The hardened asyncio network edge: :class:`Gateway`.

One event loop coalesces any number of concurrent HTTP/1.1 clients into
the in-process :class:`~repro.serving.StreamingService` (or a
multi-process :class:`~repro.serving.ServingFabric`) behind it.  The
gateway's job is *robustness at the edge* — everything the scheduler and
fabric assume about their callers is enforced here:

* **Admission control** — per-client token buckets
  (:class:`~repro.gateway.limits.RateLimiter`) and a global in-flight bound
  (:class:`~repro.gateway.limits.ConcurrencyLimiter`) refuse overload with
  explicit 429/503 + ``Retry-After``, never queue it: queue growth at the
  edge is the silent latency collapse the scheduler's shedding prevents.
* **Deadline propagation** — an ``x-repro-deadline-ms`` header becomes a
  :class:`~repro.resilience.Deadline` threaded through backend calls: 504
  before any window is accepted, or 504 with ``"accepted": true`` after —
  those windows are still answered into the session mailbox.
* **Lifecycle** — liveness (``/healthz``), readiness (``/readyz``: draining
  state and fabric circuit breakers), and a SIGTERM-triggered
  :meth:`Gateway.shutdown` that loses no accepted window, enforced by
  ``benchmarks/bench_gateway.py``.

Delivery model: predictions released by any backend call are routed
*exactly once* into per-session mailboxes, drained by the session's next
``feed``/``score``/``predictions`` call.  Predictions for closed sessions
land in the orphan mailbox — still accounted as answered, never lost.
The accounting identity mirrors the scheduler's: ``windows_answered +
windows_shed`` on the gateway equals scored + shed in the backend.

Every (method, path) the gateway answers is one entry of the route table
:data:`_ROUTES` at the end of this module, with the JSON body it takes;
one matcher applies it in the order ``docs/gateway.md`` states.

The backend runs on a dedicated single-thread executor: the scheduler stays
single-threaded (its design contract) while the event loop stays free to
multiplex thousands of sockets.  Both backends answer the same serving calls
with the same return types, so the gateway calls whichever it holds
directly; only ``/v1/stats`` reads their two stats shapes.
"""

from __future__ import annotations

import asyncio
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, NamedTuple
from urllib.parse import unquote

import numpy as np

from ..obs import OBS, Tally, prometheus_text
from ..resilience import CircuitOpenError, Deadline, DeadlineExceeded, OPEN
from ..resilience.chaos import CHAOS
from ..serving import ServingFabric, StreamingService
from .http import ProtocolError, Request, json_response, read_request, response_bytes
from .limits import ConcurrencyLimiter, RateLimiter

__all__ = ["DEADLINE_HEADER", "Gateway", "GatewayStats"]

#: Request header carrying the client's end-to-end deadline, milliseconds.
DEADLINE_HEADER = "x-repro-deadline-ms"
#: Request header carrying an explicit client identity for rate limiting.
CLIENT_HEADER = "x-repro-client"
#: Per-request header/body read budget, seconds: the slow-loris bound.  A
#: stalled client gets 408 and its connection closed.
_REQUEST_TIMEOUT = 10.0


def _drain_budget(seconds: float) -> float:
    """``seconds`` as a float, or :exc:`ValueError` for a drain budget
    below zero."""
    if not seconds >= 0:  # NaN fails this too
        raise ValueError(f"drain_deadline must be >= 0, got {seconds}")
    return float(seconds)


class GatewayStats(Tally):
    """Edge accounting of one gateway.

    ``windows_answered`` counts scored predictions delivered to a session
    mailbox or the orphan mailbox; ``windows_shed`` the explicit SHED
    deliveries.  Together with the backend's scheduler stats they
    close the no-silent-loss ledger the drain contract asserts.
    """

    COUNTS = {
        **{
            field: (
                f"repro_gateway_{field}_total",
                f"Gateway edge accounting: {field.replace('_', ' ')}.",
            )
            for field in (
                "requests",
                "windows_answered",
                "windows_shed",
                "rejected_rate_limited",
                "rejected_saturated",
                "rejected_draining",
                "rejected_deadline",
                "late_responses",
                "protocol_errors",
                "disconnects",
                "handler_errors",
                "dead_letters_replayed",
            )
        },
        "drains": ("repro_gateway_drains_total", "Graceful gateway drains completed."),
    }

    def __init__(self) -> None:
        super().__init__()
        self.drain_seconds = 0.0
        self.drained_clean: bool | None = None

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "drain_seconds": self.drain_seconds,
            "drained_clean": self.drained_clean,
        }

    def __repr__(self) -> str:
        return (
            f"GatewayStats(requests={self.requests}, "
            f"answered={self.windows_answered}, shed={self.windows_shed}, "
            f"rejected={self.rejected_rate_limited + self.rejected_saturated}, "
            f"errors={self.protocol_errors + self.handler_errors})"
        )


class Gateway:
    """Asyncio HTTP/1.1 front-end over a serving backend.

    Parameters
    ----------
    backend:
        A :class:`~repro.serving.StreamingService` (in-process) or
        :class:`~repro.serving.ServingFabric` (multi-process); anything
        else raises :exc:`TypeError`.
    host, port:
        Bind address; ``port=0`` picks a free port (``gateway.port`` after
        :meth:`start`).
    rate, burst:
        Per-client token-bucket admission (requests/s and burst size);
        ``rate=None`` disables rate limiting, and ``burst=None`` means
        ``max(1, rate)``.  Applies to every ``/v1`` request;
        health/readiness/metrics probes are never rate limited.  A rate or
        burst no bucket could grant with (``rate <= 0``, ``burst < 1``)
        raises :exc:`ValueError` here.
    max_concurrent:
        Global in-flight HTTP request bound — beyond it requests get 503 +
        ``Retry-After`` immediately.
    drain_deadline:
        Default SIGTERM/:meth:`shutdown` drain budget, seconds (>= 0).
    clock:
        Monotonic time source for the admission limiters (injectable for
        deterministic tests).

    The read bounds are fixed: 10 s per request (``_REQUEST_TIMEOUT``, then
    408), a 16 KiB head (431) and an 8 MiB body (413).
    """

    def __init__(
        self,
        backend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate: float | None = None,
        burst: float | None = None,
        max_concurrent: int = 256,
        drain_deadline: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if isinstance(backend, StreamingService):
            self.kind = "service"
        elif isinstance(backend, ServingFabric):
            self.kind = "fabric"
        else:
            raise TypeError(
                f"cannot serve a {type(backend).__name__}; expected a "
                "StreamingService or ServingFabric"
            )
        self.drain_deadline = _drain_budget(drain_deadline)
        self.backend = backend
        self.host = host
        self.port = int(port)
        self.rate_limiter = (
            RateLimiter(rate, max(1.0, rate) if burst is None else burst, clock=clock)
            if rate is not None
            else None
        )
        self.concurrency = ConcurrencyLimiter(max_concurrent)
        self.stats = GatewayStats()
        self._mailboxes: dict[str, deque] = {}
        self._closed_since_drain: set[str] = set()  # their windows may be pending
        self._orphans: deque[dict] = deque()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gateway-backend"
        )
        self._draining = False
        self._closed = False
        self._handlers: set[asyncio.Task] = set()
        self._active_requests = 0
        self._connections: set[asyncio.StreamWriter] = set()
        self._shutdown_task: asyncio.Task | None = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> "Gateway":
        """Bind and start accepting connections (idempotent port discovery)."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=65_536,  # the stream buffer; read_request bounds the head
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger one graceful :meth:`shutdown` (drain)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        """Schedule a graceful shutdown from sync context (signal handler)."""
        if self._shutdown_task is None and self._loop is not None:
            self._shutdown_task = self._loop.create_task(self.shutdown())

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` completes (SIGTERM-driven)."""
        if self._server is None:
            await self.start()
        self.install_signal_handlers()
        while not self._closed:
            await asyncio.sleep(0.05)

    async def shutdown(self, deadline_seconds: float | None = None) -> dict:
        """Graceful drain: stop accepting, flush in-flight, lose nothing.

        1. mark draining (readiness flips to 503) and close the listener;
        2. wait for in-flight HTTP handlers within the budget;
        3. flush every pending window through the backend (the fabric drain
           gets the remaining :class:`~repro.resilience.Deadline`, so one
           wedged worker cannot stall shutdown past it) and deliver the
           predictions;
        4. stop the backend and the executor.

        Returns a report; ``stats.drained_clean`` records whether every
        step finished inside the deadline.  Idempotent — concurrent calls
        await the same drain.  A negative or NaN ``deadline_seconds``
        raises :exc:`ValueError` before anything else, and the refused call
        changes nothing: the gateway keeps serving.
        """
        budget = _drain_budget(
            self.drain_deadline if deadline_seconds is None else deadline_seconds
        )
        if self._shutdown_task is not None and self._shutdown_task is not asyncio.current_task():
            return await asyncio.shield(self._shutdown_task)
        started = time.monotonic()
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        deadline = Deadline(budget)
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

        # In-flight requests (not idle keep-alive connections): wait, but
        # never past the budget.
        while self._active_requests > 0 and not deadline.expired:
            await asyncio.sleep(0.005)

        flushed = 0
        try:
            predictions = await asyncio.wait_for(
                self._loop.run_in_executor(
                    self._pool, partial(self.backend.drain, deadline=deadline)
                ),
                timeout=None if deadline.budget() is None else deadline.budget() + 0.25,
            )
            self._deliver(predictions)
            flushed = len(predictions)
        except Exception:
            self.stats.bump("handler_errors")

        for writer in list(self._connections):
            writer.close()
        # Reap connection handlers: closed sockets end them promptly; cancel
        # stragglers so no task outlives the drain.
        if self._handlers:
            _, pending = await asyncio.wait(set(self._handlers), timeout=0.25)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=0.25)
        self.backend.shutdown()
        self._pool.shutdown(wait=False)
        self._closed = True
        elapsed = time.monotonic() - started
        self.stats.bump("drains")
        self.stats.drain_seconds = elapsed
        self.stats.drained_clean = not deadline.expired
        if OBS.enabled:
            OBS.metrics.histogram(
                "repro_gateway_drain_seconds", "Graceful drain duration."
            ).observe(elapsed)
        return {
            "drained": True,
            "clean": self.stats.drained_clean,
            "seconds": elapsed,
            "flushed_predictions": flushed,
            "undelivered": self.pending_undelivered(),
        }

    def pending_undelivered(self) -> int:
        """Predictions answered into mailboxes that no client has fetched.

        After a drain this is the count of answered-but-unfetched windows
        (session mailboxes + orphans) — they were *answered*, their owners just
        never came back for them; the drain-safety ledger counts them.
        """
        return len(self._orphans) + sum(map(len, self._mailboxes.values()))

    # -------------------------------------------------------------- delivery
    def _deliver(self, predictions) -> None:
        """Route released predictions to their owners — exactly once each."""
        if not predictions:
            return
        answered = shed = 0
        for prediction in predictions:
            wire = prediction.to_wire()
            if prediction.shed:
                shed += 1
            else:
                answered += 1
            self._mailboxes.get(prediction.session_id, self._orphans).append(wire)
        if answered:
            self.stats.bump("windows_answered", answered)
        if shed:
            self.stats.bump("windows_shed", shed)

    async def _call_backend(
        self, fn, deadline: Deadline | None = None, *, deliver: bool = True
    ):
        """Run a backend call on the backend thread, awaited under ``deadline``.

        Delivery happens in the done-callback — not in the awaiting handler
        — so predictions are routed exactly once even when the handler has
        timed out on its deadline (:class:`asyncio.TimeoutError`: the
        shielded call keeps running) or its client has disconnected.  Calls
        whose result is not a prediction list (inspection endpoints) pass
        ``deliver=False``.
        """
        task = asyncio.ensure_future(self._loop.run_in_executor(self._pool, fn))

        def _on_done(done: asyncio.Task) -> None:
            if done.cancelled() or done.exception() is not None:
                return
            if deliver and isinstance(done.result(), list):
                self._deliver(done.result())

        task.add_done_callback(_on_done)
        if deadline is None or deadline.budget() is None:
            return await asyncio.shield(task)
        return await asyncio.wait_for(asyncio.shield(task), timeout=deadline.budget())

    def _drain_mailbox(self, session_id: str) -> list[dict]:
        mailbox = self._mailboxes.get(session_id, deque())
        drained = list(mailbox)
        mailbox.clear()
        return drained

    # ------------------------------------------------------------ connection
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._connections.add(writer)
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else str(peer)
        try:
            await self._connection_loop(reader, writer, peer_host)
        except asyncio.CancelledError:
            # Torn down by shutdown (or loop close): exit cleanly so the
            # streams-protocol callback never sees a cancelled task.
            self.stats.bump("disconnects")
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            self.stats.bump("disconnects")
        except Exception:
            self.stats.bump("handler_errors")
        finally:
            # The task leaves _handlers only once its socket has closed, so
            # shutdown() waits for (or cancels) a handler that is closing.
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            self._handlers.discard(task)

    async def _connection_loop(self, reader, writer, peer_host: str) -> None:
        while True:
            if CHAOS.enabled:
                # Injected in a worker thread so a `delay` fault models a
                # stalled read without freezing the whole event loop.
                await self._loop.run_in_executor(
                    None,
                    partial(CHAOS.hit, "gateway.read", client=peer_host),
                )
            try:
                request = await asyncio.wait_for(
                    read_request(reader), timeout=_REQUEST_TIMEOUT
                )
            except asyncio.TimeoutError:
                self.stats.bump("disconnects")
                writer.write(
                    json_response(408, {"error": "request read timed out"}, close=True)
                )
                await writer.drain()
                return
            except ProtocolError as error:
                self.stats.bump("protocol_errors")
                writer.write(
                    json_response(error.status, {"error": str(error)}, close=True)
                )
                await writer.drain()
                return
            if request is None:
                return  # clean keep-alive EOF
            client = request.header(CLIENT_HEADER, peer_host)
            close = not request.keep_alive
            self._active_requests += 1
            try:
                response = await self._handle_request(request, client)
            finally:
                self._active_requests -= 1
            if close:
                response = response.replace(
                    b"Connection: keep-alive", b"Connection: close", 1
                )
            writer.write(response)
            await writer.drain()
            if close:
                return

    # --------------------------------------------------------------- routing
    async def _handle_request(self, request: Request, client: str) -> bytes:
        self.stats.bump("requests")
        started = time.perf_counter()
        try:
            response = await self._answer(request, client)
        except ProtocolError as error:
            self.stats.bump("protocol_errors")
            response = json_response(error.status, {"error": str(error)})
        except DeadlineExceeded as error:
            self.stats.bump("rejected_deadline")
            response = json_response(504, {"error": str(error), "accepted": False})
        except CircuitOpenError as error:
            response = json_response(
                503,
                {"error": str(error)},
                headers={"Retry-After": f"{max(error.retry_in, 0.05):.3f}"},
            )
        except Exception as error:
            self.stats.bump("handler_errors")
            response = json_response(
                500, {"error": f"{type(error).__name__}: {error}"}
            )
        if OBS.enabled:
            OBS.metrics.histogram(
                "repro_gateway_request_seconds",
                "End-to-end gateway request handling latency.",
            ).observe(time.perf_counter() - started)
        return response

    async def _answer(self, request: Request, client: str) -> bytes:
        """The matcher: apply :data:`_ROUTES` in the order ``docs/gateway.md``
        states (route, probes, admission, session, body, handler)."""
        path, method = request.path, request.method
        pattern, session_id = _match(path)
        if pattern is None:
            return json_response(404, {"error": f"no route {path!r}"})
        route = _ROUTES[pattern].get(method)
        if route is None:
            error = {"error": f"{method} not allowed on {path}"}
            return json_response(405, error, headers={"Allow": ", ".join(_ROUTES[pattern])})
        if not pattern.startswith("/v1/"):  # a probe: never admission controlled
            return await route.handler(self, _Call(request, None, {}, None))
        if self._draining:
            payload = {"error": "gateway is draining", "draining": True}
            return self._refuse("rejected_draining", 503, payload, "1")
        if self.rate_limiter is not None:
            retry_after = self.rate_limiter.try_acquire(client)
            if retry_after > 0.0:
                payload = {"error": "rate limit exceeded", "retry_after": retry_after}
                return self._refuse(
                    "rejected_rate_limited", 429, payload, f"{retry_after:.3f}"
                )
        if not self.concurrency.acquire():
            payload = {
                "error": "concurrency limit reached",
                "in_flight": self.concurrency.in_flight,
            }
            return self._refuse("rejected_saturated", 503, payload, "0.050")
        try:
            deadline = self._parse_deadline(request)
            if deadline is not None and deadline.expired:
                payload = {"error": "deadline already expired", "accepted": False}
                return self._refuse("rejected_deadline", 504, payload)
            if CHAOS.enabled:
                await self._loop.run_in_executor(
                    None, partial(CHAOS.hit, "gateway.request", path=path)
                )
            if session_id is not None and session_id not in self._mailboxes:
                return json_response(404, {"error": f"no open session {session_id!r}"})
            body = _checked_body(route, request)
            return await route.handler(self, _Call(request, session_id, body, deadline))
        finally:
            self.concurrency.release()

    def _refuse(
        self, count: str, status: int, payload: dict, retry_after: str | None = None
    ) -> bytes:
        """An admission refusal, counted in the stats field ``count``."""
        self.stats.bump(count)
        headers = None if retry_after is None else {"Retry-After": retry_after}
        return json_response(status, payload, headers=headers)

    # -------------------------------------------------------------- handlers
    async def _open(self, call: _Call) -> bytes:
        session_id = call.body["session_id"]
        if not session_id:
            raise ProtocolError("'session_id' must not be empty")
        if session_id in self._closed_since_drain:
            # Windows its closed namesake left pending would be answered
            # into the new mailbox: flush them to the orphan mailbox first.
            await self._flush(None)
        try:
            await self._call_backend(partial(self.backend.open_session, session_id))
        except ValueError as error:  # the one error an id raises: already open
            return json_response(409, {"error": str(error)})
        self._mailboxes.setdefault(session_id, deque())
        return json_response(201, {"session_id": session_id, "open": True})

    async def _sessions(self, call: _Call) -> bytes:
        return json_response(200, {"sessions": list(self._mailboxes)})

    async def _close(self, call: _Call) -> bytes:
        session_id = call.session_id
        try:
            await self._call_backend(partial(self.backend.close_session, session_id))
        except KeyError:
            return json_response(404, {"error": f"no open session {session_id!r}"})
        leftover = self._mailboxes.pop(session_id, ())
        self._orphans.extend(leftover)
        self._closed_since_drain.add(session_id)
        return json_response(
            200, {"session_id": session_id, "open": False, "orphaned": len(leftover)}
        )

    @staticmethod
    def _parse_samples(raw: bytes, samples: list, n_channels: int) -> np.ndarray:
        """The ``samples`` array of a feed body whose only key is ``samples``
        (``raw`` is the body as sent): ``n_channels`` rows of JSON numbers."""
        # With "samples" the only key, a true or false anywhere in the body
        # is a boolean or sits inside a string, and neither is a number.
        # NumPy would promote a boolean mixed into numeric rows to 1 or 0.
        if b"true" in raw or b"false" in raw:
            raise ProtocolError("samples are not numeric")
        # Parse without a dtype: a float64 parse would accept numeric
        # strings.  Ragged rows raise ValueError.
        try:
            array = np.asarray(samples)
        except (TypeError, ValueError):
            raise ProtocolError("samples are not numeric") from None
        if array.dtype.kind not in "iuf":
            raise ProtocolError("samples are not numeric")
        array = array.astype(np.float64, copy=False)
        if array.ndim != 2:
            raise ProtocolError(
                f"samples must be 2-D (n_channels, n_samples), got ndim={array.ndim}"
            )
        if array.shape[0] != n_channels:
            raise ProtocolError(
                f"samples must have {n_channels} rows (one per channel), "
                f"got {array.shape[0]}"
            )
        if not np.isfinite(array).all():
            raise ProtocolError("samples contain non-finite values")
        return array

    async def _feed(self, call: _Call) -> bytes:
        session_id = call.session_id
        samples = self._parse_samples(
            call.request.body, call.body["samples"], self.backend.n_channels
        )
        if call.deadline is not None:
            call.deadline.check("feed admission")
        try:
            await self._call_backend(
                partial(self.backend.push, session_id, samples), call.deadline
            )
        except asyncio.TimeoutError:
            # The windows were accepted and WILL be answered (the shielded
            # backend call continues and delivers into the mailbox); only
            # this response is late.
            self.stats.bump("late_responses")
            payload = {"error": "deadline exceeded after admission", "accepted": True}
            return json_response(504, {**payload, "session_id": session_id})
        except KeyError as error:
            return json_response(404, {"error": str(error.args[0])})
        return await self._predictions(call)

    async def _flush(self, deadline: Deadline | None) -> None:
        """A backend-wide drain.  It also answers every window the sessions
        closed before it left pending, so those ids have none afterwards."""
        closed = set(self._closed_since_drain)
        await self._call_backend(partial(self.backend.drain, deadline=deadline), deadline)
        self._closed_since_drain -= closed

    async def _score(self, call: _Call) -> bytes:
        try:
            await self._flush(call.deadline)
        except asyncio.TimeoutError:
            self.stats.bump("late_responses")
            return json_response(
                504, {"error": "deadline exceeded during flush", "accepted": True}
            )
        return await self._predictions(call)

    async def _predictions(self, call: _Call) -> bytes:
        """The session's mailbox, drained: ``{session_id, predictions}``."""
        session_id = call.session_id
        return json_response(
            200,
            {"session_id": session_id, "predictions": self._drain_mailbox(session_id)},
        )

    async def _model(self, call: _Call) -> bytes:
        return json_response(
            200, {"backend": self.kind, "generation": self.backend.generation}
        )

    async def _dead_letters(self, call: _Call) -> bytes:
        letters = await self._call_backend(
            lambda: list(self.backend.dead_letters), call.deadline, deliver=False
        )
        return json_response(
            200, {"dead_letters": [letter.to_wire() for letter in letters]}
        )

    async def _replay(self, call: _Call) -> bytes:
        replayed, predictions = await self._call_backend(
            self.backend.replay_dead_letters, call.deadline
        )
        self._deliver(predictions)
        if replayed:
            self.stats.bump("dead_letters_replayed", replayed)
        sessions = dict.fromkeys(p.session_id for p in predictions)
        flat = [wire for session in sessions for wire in self._drain_mailbox(session)]
        return json_response(200, {"replayed": replayed, "predictions": flat})

    async def _stats(self, call: _Call) -> bytes:
        backend = await self._call_backend(
            self._backend_stats, call.deadline, deliver=False
        )
        return json_response(
            200,
            {
                "gateway": self.stats.as_dict(),
                "backend": backend,
                "in_flight": self.concurrency.in_flight,
                "orphaned_predictions": len(self._orphans),
            },
        )

    async def _healthz(self, call: _Call) -> bytes:
        return json_response(200, {"status": "alive", "backend": self.kind})

    async def _readyz(self, call: _Call) -> bytes:
        breakers = [breaker.state for breaker in self.backend.breakers]
        ready = not self._draining and OPEN not in breakers
        payload = {
            "ready": ready,
            "draining": self._draining,
            "breakers": breakers,
            "in_flight": self.concurrency.in_flight,
            "saturation": self.concurrency.saturation,
            "open_sessions": len(self._mailboxes),
            "generation": self.backend.generation,
        }
        return json_response(200 if ready else 503, payload)

    def _backend_stats(self) -> list[dict]:
        """``/v1/stats`` backend rows: one per fabric shard, one for a service.

        Runs on the backend thread, like every other backend call: a fabric
        row is a round trip to its worker, and a service row reads the
        scheduler the backend thread updates.
        """
        if self.kind == "fabric":
            return self.backend.stats()
        stats = self.backend.stats
        return [
            {
                **stats.as_dict(),
                "pending": self.backend.scheduler.pending,
                "p50_ms": stats.latency_percentile(50) * 1e3,
                "p99_ms": stats.latency_percentile(99) * 1e3,
            }
        ]

    async def _metrics(self, call: _Call) -> bytes:
        if not OBS.enabled:
            return json_response(
                503, {"error": "observability disabled; enable with REPRO_OBS=1"}
            )
        text = prometheus_text(OBS.metrics.snapshot()).encode("utf-8")
        return response_bytes(200, text, content_type="text/plain; version=0.0.4")

    @staticmethod
    def _parse_deadline(request: Request) -> Deadline | None:
        raw = request.header(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            millis = float(raw)
        except ValueError:
            raise ProtocolError(f"malformed {DEADLINE_HEADER} header: {raw!r}") from None
        if not millis >= 0:  # NaN fails this too
            raise ProtocolError(f"{DEADLINE_HEADER} must be >= 0, got {millis}")
        return Deadline(millis / 1000.0)

    def __repr__(self) -> str:
        return (
            f"Gateway(backend={self.kind}, address={self.address}, "
            f"draining={self._draining}, {self.stats!r})"
        )


# ------------------------------------------------------------- route table
class _Call(NamedTuple):
    """What the matcher hands a handler: checked and ready to use."""

    request: Request
    session_id: str | None  # the unquoted {id} segment
    body: dict  # the checked JSON body ({} when empty)
    deadline: Deadline | None


class _Route(NamedTuple):
    """The handler of one (method, path) and the JSON body it takes."""

    handler: Callable
    body: dict = {}  # key -> accepted JSON types; never mutated
    required: tuple[str, ...] = ()


#: JSON type names of the Python types ``json.loads`` returns.
_JSON_NAMES = {str: "string", list: "array"}

#: Every (method, path) the gateway answers.  A path is fixed segments and
#: at most one ``{id}``: a session id this gateway opened.
_ROUTES: dict[str, dict[str, _Route]] = {
    "/healthz": {"GET": _Route(Gateway._healthz)},
    "/readyz": {"GET": _Route(Gateway._readyz)},
    "/metrics": {"GET": _Route(Gateway._metrics)},
    "/v1/sessions": {
        "POST": _Route(Gateway._open, {"session_id": (str,)}, ("session_id",)),
        "GET": _Route(Gateway._sessions),
    },
    "/v1/sessions/{id}": {"DELETE": _Route(Gateway._close)},
    "/v1/sessions/{id}/windows": {
        "POST": _Route(Gateway._feed, {"samples": (list,)}, ("samples",)),
    },
    "/v1/sessions/{id}/score": {"POST": _Route(Gateway._score)},
    "/v1/sessions/{id}/predictions": {"GET": _Route(Gateway._predictions)},
    "/v1/model": {"GET": _Route(Gateway._model)},
    "/v1/dead-letters": {"GET": _Route(Gateway._dead_letters)},
    "/v1/dead-letters/replay": {"POST": _Route(Gateway._replay)},
    "/v1/stats": {"GET": _Route(Gateway._stats)},
}


def _match(path: str) -> tuple[str | None, str | None]:
    """The table's path pattern for a raw request path, and its ``{id}``.

    The path is split on ``/`` before each segment is unquoted, so an id
    may hold an encoded ``/``; empty segments are kept, and ``{id}`` never
    matches one.  ``(None, None)`` when no path matches.
    """
    segments = [unquote(part) for part in path.split("/")]
    for pattern in _ROUTES:
        fixed = pattern.split("/")
        if len(fixed) == len(segments) and all(
            want == got or (want == "{id}" and got) for want, got in zip(fixed, segments)
        ):
            return pattern, segments[fixed.index("{id}")] if "{id}" in fixed else None
    return None, None


def _checked_body(route: _Route, request: Request) -> dict:
    """The JSON object body the route takes; a :class:`ProtocolError` (400)
    naming the key otherwise.  An empty body reads as ``{}``."""
    body = request.json() if request.body else {}
    if not isinstance(body, dict):
        raise ProtocolError("body must be a JSON object")
    for key in route.required:
        if key not in body:
            raise ProtocolError(f"body is missing {key!r}")
    stray = sorted(set(body) - set(route.body))
    if stray:
        raise ProtocolError(
            f"unexpected body keys {stray}; this route takes {sorted(route.body)}"
        )
    for key, value in body.items():
        types = route.body[key]
        if type(value) not in types:  # so a boolean is not an integer
            names = " or ".join(_JSON_NAMES[kind] for kind in types)
            raise ProtocolError(f"{key!r} must be a JSON {names}")
    return body
