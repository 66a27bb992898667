"""The hardened asyncio network edge: :class:`Gateway`.

One event loop coalesces any number of concurrent HTTP/1.1 clients into
the in-process :class:`~repro.serving.StreamingService` (or a
multi-process :class:`~repro.serving.ServingFabric`) behind it.  The
gateway's job is *robustness at the edge* — everything the scheduler and
fabric assume about their callers is enforced here:

* **Admission control** — a per-client :class:`~repro.gateway.limits
  .RateLimiter` token bucket plus a global
  :class:`~repro.gateway.limits.ConcurrencyLimiter`.  Overload is refused
  with explicit 429/503 + ``Retry-After``, never queued: queue growth at
  the edge is exactly the silent latency collapse PR 9's shed machinery
  exists to prevent.  Window-level pressure beyond the edge still flows
  through the scheduler's ``max_pending`` bound and comes back as explicit
  ``status="shed"`` predictions.
* **Deadline propagation** — an ``x-repro-deadline-ms`` request header
  becomes a :class:`~repro.resilience.Deadline` threaded through backend
  calls: expired-before-work requests are refused with 504 (no window
  accepted), and a request whose budget runs out *after* its windows were
  accepted gets 504 with ``"accepted": true`` — the windows are still
  scored and answered into the session mailbox, because an accepted window
  is never silently dropped.
* **Lifecycle** — liveness (``/healthz``) and readiness (``/readyz``, wired
  to draining state and fabric circuit breakers), and a
  SIGTERM-triggered :meth:`Gateway.shutdown`: stop accepting, finish
  in-flight requests, flush every pending window through the backend within
  a drain deadline, deliver the results, then close — zero accepted-window
  loss, enforced by ``benchmarks/bench_gateway.py``.

Delivery model: predictions released by any backend call are routed
*exactly once* into per-session mailboxes, drained by the session's next
``feed``/``score``/``predictions`` call.  Predictions for closed sessions
land in the orphan mailbox — still accounted as answered, never lost.
The accounting identity mirrors the scheduler's: ``windows_answered +
windows_shed`` on the gateway equals scored + shed in the backend.  A
session is a string id: ``POST /v1/sessions`` takes ``{"session_id"}`` and
nothing else, and every session has the backend's one windowing.  The
gateway serves only the sessions it opened, the ones with a mailbox:
feed, score, predictions and close answer 404 for any other id, even one
open on the backend, whose windows would land in the orphan mailbox.  In
a path an id is one percent-encoded segment, unquoted after the path is
split.

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
from urllib.parse import unquote

import numpy as np

from ..obs import OBS, Tally, prometheus_text
from ..resilience import CircuitOpenError, Deadline, DeadlineExceeded, OPEN
from ..resilience.chaos import CHAOS
from ..engine import EngineError, resolve_precision
from ..serving import RegistryError, ServingFabric, StreamingService, SwapResult
from ..serving.shm import IntegrityError
from .http import ProtocolError, Request, json_response, read_request, response_bytes
from .limits import ConcurrencyLimiter, RateLimiter

__all__ = ["DEADLINE_HEADER", "Gateway", "GatewayStats"]

#: Request header carrying the client's end-to-end deadline, milliseconds.
DEADLINE_HEADER = "x-repro-deadline-ms"
#: Request header carrying an explicit client identity for rate limiting.
CLIENT_HEADER = "x-repro-client"


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
        ``rate=None`` disables rate limiting.  Applies to every ``/v1``
        request; health/readiness/metrics probes are never rate limited.
    max_concurrent:
        Global in-flight HTTP request bound — beyond it requests get 503 +
        ``Retry-After`` immediately.
    max_clients:
        Rate-limiter memory bound (LRU-evicted client buckets).
    registry, registry_name:
        Optional :class:`~repro.serving.ModelRegistry` (and default model
        name) backing ``POST /v1/model/swap``.
    drain_deadline:
        Default SIGTERM/:meth:`shutdown` drain budget, seconds.
    request_timeout:
        Per-request header/body read budget, seconds — the slow-loris
        bound; a stalled client gets 408 and its connection closed.
    max_header_bytes, max_body_bytes:
        Hard input bounds (431 / 413 beyond them).
    clock:
        Monotonic time source for the admission limiters (injectable for
        deterministic tests).
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
        max_clients: int = 4096,
        registry=None,
        registry_name: str | None = None,
        drain_deadline: float = 5.0,
        request_timeout: float = 10.0,
        max_header_bytes: int = 16_384,
        max_body_bytes: int = 8_388_608,
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
        self.backend = backend
        self.host = host
        self.port = int(port)
        self.registry = registry
        self.registry_name = registry_name
        self.drain_deadline = float(drain_deadline)
        self.request_timeout = float(request_timeout)
        self.max_header_bytes = int(max_header_bytes)
        self.max_body_bytes = int(max_body_bytes)
        self.rate_limiter = (
            RateLimiter(rate, burst or max(1.0, rate), max_clients=max_clients, clock=clock)
            if rate is not None
            else None
        )
        self.concurrency = ConcurrencyLimiter(max_concurrent)
        self.stats = GatewayStats()
        self._routes: dict[str, deque] = {}
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
            limit=max(self.max_header_bytes, 65_536),
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

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
        await the same drain.
        """
        if self._shutdown_task is not None and self._shutdown_task is not asyncio.current_task():
            return await asyncio.shield(self._shutdown_task)
        started = time.monotonic()
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        deadline = Deadline(
            self.drain_deadline if deadline_seconds is None else deadline_seconds
        )
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
        return len(self._orphans) + sum(map(len, self._routes.values()))

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
            self._routes.get(prediction.session_id, self._orphans).append(wire)
        if answered:
            self.stats.bump("windows_answered", answered)
        if shed:
            self.stats.bump("windows_shed", shed)

    def _submit_backend(self, fn, *, deliver: bool = True) -> asyncio.Task:
        """Run a backend call on the backend thread; deliver on completion.

        Delivery happens in the done-callback — not in the awaiting handler
        — so predictions are routed exactly once even when the handler has
        timed out on its deadline or its client has disconnected.  Calls
        whose result is not a prediction list (inspection endpoints) pass
        ``deliver=False``.
        """
        task = asyncio.ensure_future(self._loop.run_in_executor(self._pool, fn))

        def _on_done(done: asyncio.Task) -> None:
            if done.cancelled():
                return
            error = done.exception()
            if error is None and deliver:
                result = done.result()
                if isinstance(result, SwapResult):
                    result = list(result.flushed)
                if isinstance(result, list):
                    self._deliver(result)

        task.add_done_callback(_on_done)
        return task

    async def _await_backend(self, task: asyncio.Task, deadline: Deadline | None):
        """Await a backend task under the request deadline.

        Raises :class:`asyncio.TimeoutError` when the budget runs out first;
        the shielded task keeps running and still delivers its predictions.
        """
        if deadline is None or deadline.budget() is None:
            return await asyncio.shield(task)
        return await asyncio.wait_for(asyncio.shield(task), timeout=deadline.budget())

    def _drain_mailbox(self, session_id: str) -> list[dict]:
        route = self._routes.get(session_id)
        if route is None:
            return []
        drained = list(route)
        route.clear()
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
            self._handlers.discard(task)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

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
                    read_request(
                        reader,
                        max_header_bytes=self.max_header_bytes,
                        max_body_bytes=self.max_body_bytes,
                    ),
                    timeout=self.request_timeout,
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
            response = await self._admit_and_dispatch(request, client)
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

    async def _admit_and_dispatch(self, request: Request, client: str) -> bytes:
        path, method = request.path, request.method
        # Probes and telemetry bypass admission control entirely.
        if path == "/healthz":
            return json_response(200, {"status": "alive", "backend": self.kind})
        if path == "/readyz":
            return self._readyz()
        if path == "/metrics":
            return self._metrics()
        if self._draining:
            self.stats.bump("rejected_draining")
            return json_response(
                503,
                {"error": "gateway is draining", "draining": True},
                headers={"Retry-After": "1"},
            )
        if self.rate_limiter is not None:
            retry_after = self.rate_limiter.try_acquire(client)
            if retry_after > 0.0:
                self.stats.bump("rejected_rate_limited")
                return json_response(
                    429,
                    {"error": "rate limit exceeded", "retry_after": retry_after},
                    headers={"Retry-After": f"{retry_after:.3f}"},
                )
        if not self.concurrency.acquire():
            self.stats.bump("rejected_saturated")
            return json_response(
                503,
                {
                    "error": "concurrency limit reached",
                    "in_flight": self.concurrency.in_flight,
                },
                headers={"Retry-After": "0.050"},
            )
        try:
            deadline = self._parse_deadline(request)
            if deadline is not None and deadline.expired:
                self.stats.bump("rejected_deadline")
                return json_response(
                    504, {"error": "deadline already expired", "accepted": False}
                )
            if CHAOS.enabled:
                await self._loop.run_in_executor(
                    None, partial(CHAOS.hit, "gateway.request", path=path)
                )
            return await self._dispatch(request, deadline)
        finally:
            self.concurrency.release()

    async def _dispatch(self, request: Request, deadline: Deadline | None) -> bytes:
        path, method = request.path, request.method
        # Split the raw path, then unquote each segment: a session id may
        # hold any character, an encoded "/" included.
        parts = [unquote(part) for part in path.split("/") if part]
        if parts[:1] != ["v1"]:
            return json_response(404, {"error": f"no route {path!r}"})
        rest = parts[1:]
        if rest == ["sessions"]:
            if method == "POST":
                return await self._create_session(request)
            if method == "GET":
                return json_response(200, {"sessions": list(self._routes)})
            return json_response(405, {"error": f"{method} not allowed on {path}"})
        if len(rest) == 2 and rest[0] == "sessions":
            if method == "DELETE":
                return await self._close_session(rest[1])
            return json_response(405, {"error": f"{method} not allowed on {path}"})
        if len(rest) == 3 and rest[0] == "sessions":
            session_id, action = rest[1], rest[2]
            if action == "windows" and method == "POST":
                return await self._feed(session_id, request, deadline)
            if action == "score" and method == "POST":
                return await self._score(session_id, deadline)
            if action == "predictions" and method == "GET":
                if session_id not in self._routes:
                    return json_response(
                        404, {"error": f"no open session {session_id!r}"}
                    )
                return json_response(
                    200, {"predictions": self._drain_mailbox(session_id)}
                )
            return json_response(404, {"error": f"no route {path!r}"})
        if rest == ["model"] and method == "GET":
            return json_response(
                200,
                {
                    "backend": self.kind,
                    "generation": self.backend.generation,
                    "swaps": self.backend.generation,
                },
            )
        if rest == ["model", "swap"] and method == "POST":
            return await self._swap(request)
        if rest == ["dead-letters"] and method == "GET":
            letters = await self._await_backend(
                self._submit_backend(
                    lambda: list(self.backend.dead_letters), deliver=False
                ),
                deadline,
            )
            return json_response(
                200, {"dead_letters": [letter.to_wire() for letter in letters]}
            )
        if rest == ["dead-letters", "replay"] and method == "POST":
            return await self._replay_dead_letters(deadline)
        if rest == ["stats"] and method == "GET":
            backend = await self._await_backend(
                self._submit_backend(self._backend_stats, deliver=False), deadline
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
        return json_response(404, {"error": f"no route {path!r}"})

    # -------------------------------------------------------------- handlers
    async def _create_session(self, request: Request) -> bytes:
        body = request.json() or {}
        if not isinstance(body, dict) or not body.get("session_id"):
            raise ProtocolError("body must be a JSON object with a session_id")
        session_id = body["session_id"]
        if not isinstance(session_id, str):
            raise ProtocolError("session_id must be a string")
        stray = sorted(set(body) - {"session_id"})
        if stray:
            raise ProtocolError(
                f"unexpected session keys {stray}; a session takes only a "
                "session_id (its windowing is the backend's)"
            )
        try:
            await self._await_backend(
                self._submit_backend(partial(self.backend.open_session, session_id)),
                None,
            )
        except ValueError as error:  # the one error an id raises: already open
            return json_response(409, {"error": str(error)})
        self._routes.setdefault(session_id, deque())
        return json_response(201, {"session_id": session_id, "open": True})

    async def _close_session(self, session_id: str) -> bytes:
        if session_id not in self._routes:
            return json_response(404, {"error": f"no open session {session_id!r}"})
        try:
            await self._await_backend(
                self._submit_backend(partial(self.backend.close_session, session_id)),
                None,
            )
        except KeyError:
            return json_response(404, {"error": f"no open session {session_id!r}"})
        leftover = self._drain_mailbox(session_id)
        self._orphans.extend(leftover)
        self._routes.pop(session_id, None)
        return json_response(
            200, {"session_id": session_id, "open": False, "orphaned": len(leftover)}
        )

    @staticmethod
    def _parse_samples(request: Request) -> np.ndarray:
        body = request.json()
        if not isinstance(body, dict) or "samples" not in body:
            raise ProtocolError("body must be a JSON object with a samples array")
        stray = sorted(set(body) - {"samples"})
        if stray:
            raise ProtocolError(
                f"unexpected feed keys {stray}; a feed body holds only samples"
            )
        # With "samples" the only key, a true or false anywhere in the body
        # is a boolean or sits inside a string, and neither is a number.
        # NumPy would promote a boolean mixed into numeric rows to 1 or 0.
        if b"true" in request.body or b"false" in request.body:
            raise ProtocolError("samples are not numeric")
        # Parse without a dtype: a float64 parse would accept numeric
        # strings.  Ragged rows raise ValueError.
        try:
            samples = np.asarray(body["samples"])
        except (TypeError, ValueError):
            raise ProtocolError("samples are not numeric") from None
        if samples.dtype.kind not in "iuf":
            raise ProtocolError("samples are not numeric")
        samples = samples.astype(np.float64, copy=False)
        if samples.ndim != 2:
            raise ProtocolError(
                f"samples must be 2-D (n_channels, n_samples), got ndim={samples.ndim}"
            )
        if not np.isfinite(samples).all():
            raise ProtocolError("samples contain non-finite values")
        return samples

    async def _feed(
        self, session_id: str, request: Request, deadline: Deadline | None
    ) -> bytes:
        samples = self._parse_samples(request)
        if session_id not in self._routes:
            return json_response(404, {"error": f"no open session {session_id!r}"})
        if deadline is not None:
            deadline.check("feed admission")
        task = self._submit_backend(partial(self.backend.push, session_id, samples))
        try:
            await self._await_backend(task, deadline)
        except asyncio.TimeoutError:
            # The windows were accepted and WILL be answered (the shielded
            # backend call continues and delivers into the mailbox); only
            # this response is late.
            self.stats.bump("late_responses")
            return json_response(
                504,
                {
                    "error": "deadline exceeded after admission",
                    "accepted": True,
                    "session_id": session_id,
                },
            )
        except KeyError as error:
            return json_response(404, {"error": str(error.args[0])})
        return json_response(
            200,
            {
                "session_id": session_id,
                "predictions": self._drain_mailbox(session_id),
            },
        )

    async def _score(self, session_id: str, deadline: Deadline | None) -> bytes:
        if session_id not in self._routes:
            return json_response(404, {"error": f"no open session {session_id!r}"})
        task = self._submit_backend(partial(self.backend.drain, deadline=deadline))
        try:
            await self._await_backend(task, deadline)
        except asyncio.TimeoutError:
            self.stats.bump("late_responses")
            return json_response(
                504, {"error": "deadline exceeded during flush", "accepted": True}
            )
        return json_response(
            200,
            {"session_id": session_id, "predictions": self._drain_mailbox(session_id)},
        )

    async def _swap(self, request: Request) -> bytes:
        if self.registry is None:
            return json_response(
                409, {"error": "gateway was started without a model registry"}
            )
        body = request.json() if request.body else {}
        if not isinstance(body, dict):
            raise ProtocolError("swap body must be a JSON object")
        stray = sorted(set(body) - {"name", "version", "precision"})
        if stray:
            raise ProtocolError(
                f"unexpected swap keys {stray}; a swap takes name, version "
                "and precision"
            )
        name = body.get("name", self.registry_name)
        if not name:
            raise ProtocolError("swap needs a model name (or a registry_name default)")
        version = body.get("version")
        precision = body.get("precision", "float64")
        if not (
            isinstance(name, str)
            and isinstance(precision, str)
            and (version is None or type(version) is int)
        ):
            raise ProtocolError(
                "swap takes a string name and precision and an integer version"
            )
        try:
            resolve_precision(precision)
        except EngineError as error:
            raise ProtocolError(str(error)) from None
        # 400 for a name the registry refuses to look up (checked before
        # any file is read), 404 only for a name or version it lacks: a
        # stored version it refuses to load is damage on the server side,
        # answered 500.
        try:
            stored = self.registry.versions(name)
        except RegistryError as error:
            raise ProtocolError(str(error)) from None
        if not stored:
            return json_response(404, {"error": f"no versions of model {name!r}"})
        if version is not None and version not in stored:
            return json_response(
                404, {"error": f"model {name!r} has no version v{version}"}
            )

        def load_and_swap():
            engine = self.registry.load_compiled(name, version, precision=precision)
            return self.backend.swap(engine)

        try:
            result = await self._await_backend(self._submit_backend(load_and_swap), None)
        except IntegrityError:
            raise  # damage on the server side, not a bad request
        except EngineError as error:
            # An engine this backend cannot serve (a fabric cannot publish a
            # cascade).
            raise ProtocolError(str(error)) from None
        payload = {
            "swapped": result.promoted,
            "name": name,
            "version": version,
            "precision": precision,
            "generation": self.backend.generation,
        }
        if not result.promoted:
            return json_response(409, {**payload, "reason": result.reason})
        return json_response(200, payload)

    async def _replay_dead_letters(self, deadline: Deadline | None) -> bytes:
        result = await self._await_backend(
            self._submit_backend(self.backend.replay_dead_letters), deadline
        )
        replayed, predictions = result
        self._deliver(predictions)
        if replayed:
            self.stats.bump("dead_letters_replayed", replayed)
        sessions = dict.fromkeys(p.session_id for p in predictions)
        flat = [
            wire
            for session_id in sessions
            for wire in self._drain_mailbox(session_id)
        ]
        return json_response(200, {"replayed": replayed, "predictions": flat})

    def _readyz(self) -> bytes:
        breakers = [breaker.state for breaker in self.backend.breakers]
        ready = not self._draining and OPEN not in breakers
        payload = {
            "ready": ready,
            "draining": self._draining,
            "breakers": breakers,
            "in_flight": self.concurrency.in_flight,
            "saturation": self.concurrency.saturation,
            "open_sessions": len(self._routes),
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

    def _metrics(self) -> bytes:
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
