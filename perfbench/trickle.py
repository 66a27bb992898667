"""The gateway phase of ``cohort-paper``'s traced run: short windows over HTTP.

Sixteen sessions stream 32-sample windows (16 Hz x 2 s, smoothing 30), one
window per ``POST /v1/sessions/{id}/windows`` feed, to a gateway running in
its own process (:mod:`perfbench.gateway_child`) over a fixed16 service.  The
load generator is one asyncio loop with two keep-alive
:class:`~repro.gateway.GatewayClient` connections; session ``s`` always uses
connection ``s % 2``.

Feeds are sent on a fixed schedule (open loop) at the constant offered rate
``FIXED_RATE``: feed ``k`` is due at ``k / rate`` and goes to session
``k % 16``.  A window's latency runs from its feed's *due* time to the
return of the response that carried its prediction, so a stalled generator
is charged to the windows it delays.  The gateway answers a feed with the
predictions already in that session's mailbox.  The scheduler releases a
held window in the first pump at least ``max_wait`` (2 ms) after it was
submitted, and only a feed pumps; so when a feed *sent* at least
``MAX_WAIT_S`` after a held window's feed returned comes back, the generator
fetches that window's session mailbox with one ``GET .../predictions`` on
the same connection.  Each phase ends with one ``POST .../score`` flush and
a final poll of every session.

:func:`measure` runs an untraced and a traced gateway process in turn and
returns the gateway layer's per-layer metrics.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import itertools
import json
import os
import pickle
import struct
import subprocess
import sys
import time

from repro import compile_model
from repro.data import CHANNELS
from repro.gateway import GatewayClient
from repro.gateway.http import Request, json_response, parse_request_head

from . import streams
from .gateway_child import MAX_WAIT_S
from .harness import OUT, ROOT, Outcome, median, percentile_ms
from .model import fit_model
from .tracer import instrument, serving_layers

N_SESSIONS = 16
POOL = 64
SAMPLING_RATE = 16.0
WINDOW_SECONDS = 2.0
N_CONNECTIONS = 2
HOST = "127.0.0.1"

#: Offered rate (windows/s): about a third of what the gateway sustains with
#: a p99 within 25 ms on the 2-vCPU host the benchmark was defined on.
FIXED_RATE = 150.0
#: Windows due in a phase's last COOLDOWN_S are delivered by its closing sweep,
#: not by steady-state traffic; they are checked but not in the latency sample.
COOLDOWN_S = 0.05


class GatewayProcess:
    """A running :mod:`perfbench.gateway_child`; :meth:`stop` returns its report."""

    def __init__(self, engine, scaler, *, trace: bool = False, trace_path: str = "") -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.gateway_child"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=os.environ,
        )
        payload = pickle.dumps(
            {
                "engine": engine,
                "scaler": scaler,
                "n_channels": len(CHANNELS),
                "window_samples": int(SAMPLING_RATE * WINDOW_SECONDS),
                "smoothing_window": streams.SMOOTHING,
                "trace": trace,
                "trace_path": trace_path,
            }
        )
        self.proc.stdin.write(struct.pack("<Q", len(payload)) + payload)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"gateway process exited with {self.proc.returncode}")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        return json.loads(out.decode().strip().splitlines()[-1])


class Context:
    """Inputs, fitted model and engine, and a started gateway with open sessions."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cohort = streams.make_cohort(
            seed,
            n_sessions=N_SESSIONS,
            pool=POOL,
            sampling_rate=SAMPLING_RATE,
            window_seconds=WINDOW_SECONDS,
        )
        # The request bodies' sample arrays, built before anything is timed.
        self.samples = [
            [self.cohort.windows[session, index].tolist() for index in range(POOL)]
            for session in range(N_SESSIONS)
        ]
        self.fitted = fit_model(
            seed,
            sampling_rate=SAMPLING_RATE,
            window_seconds=WINDOW_SECONDS,
        )
        self.engine = compile_model(self.fitted.model, precision="fixed16")
        self.gateway = None
        self.report: dict = {}
        self.start_gateway()

    def start_gateway(self, *, trace: bool = False, trace_path: str = "") -> None:
        self.gateway = GatewayProcess(
            self.engine, self.fitted.dataset.scaler, trace=trace, trace_path=trace_path
        )
        self.ledger = Ledger(self.cohort)
        asyncio.run(self._open_sessions())

    async def _open_sessions(self) -> None:
        async with GatewayClient(HOST, self.gateway.port) as client:
            for session_id in self.cohort.session_ids:
                status, body = await client.open_session(session_id)
                if status != 201:
                    raise RuntimeError(f"open_session {session_id}: {status} {body}")

    def close(self) -> dict:
        if self.gateway is not None:
            self.report = self.gateway.stop()
            self.gateway = None
        return self.report


class Phase:
    """Latency samples of one load phase."""

    def __init__(self) -> None:
        self.latencies: list = []
        self.lags: list = []
        self.windows = 0
        self.cooldown = float("inf")  # due time after which latency is not sampled


class Ledger:
    """Every window fed to one gateway process and what came back for it."""

    def __init__(self, cohort: streams.Cohort) -> None:
        self.cohort = cohort
        self.next_index = [0] * len(cohort.session_ids)
        self.fed: dict = {}  # (session_id, window_index) -> due time
        self.outstanding = {session_id: set() for session_id in cohort.session_ids}
        self.delivered: list = []
        self.served: dict = {}
        self.statuses: dict = {}
        self.replies: list = []  # a sample of feed reply bodies

    def feed(self, session: int, due: float):
        session_id = self.cohort.session_ids[session]
        index = self.next_index[session]
        self.next_index[session] += 1
        self.fed[(session_id, index)] = due
        self.outstanding[session_id].add(index)
        return session_id, index

    def take(self, status: int, body, returned: float, phase: Phase) -> None:
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if not isinstance(body, dict):
            return
        for wire in body.get("predictions", ()):
            key = (wire["session_id"], int(wire["window_index"]))
            self.delivered.append(key)
            self.outstanding[key[0]].discard(key[1])
            if wire["status"] != "scored":
                continue
            self.served[key] = (wire["label"], tuple(wire["scores"]))
            phase.windows += 1
            if self.fed[key] < phase.cooldown:
                phase.latencies.append(returned - self.fed[key])

    def counts(self) -> dict:
        return dict(enumerate(self.next_index))


async def drive(context: Context, rate: float, seconds: float) -> Phase:
    """One open-loop phase at ``rate`` windows/s for ``seconds``, then a sweep."""
    ledger = context.ledger
    samples = context.samples
    session_ids = ledger.cohort.session_ids
    phase = Phase()
    clock = time.perf_counter
    clients = [
        GatewayClient(HOST, context.gateway.port, client_id=f"loadgen-{index}")
        for index in range(N_CONNECTIONS)
    ]
    for client in clients:
        await client.connect()
    total = max(1, round(rate * seconds))
    order = itertools.count()
    # Windows the scheduler may still hold: (send time from which a feed's pump
    # releases them, order, session).
    held: list = []
    gc.collect()
    gc.freeze()  # keep collector pauses over earlier phases' objects out of the load
    start = clock() + 0.005
    phase.cooldown = start + total / rate - COOLDOWN_S

    async def connection(index: int) -> None:
        client = clients[index]
        for k in range(index, total, N_CONNECTIONS):
            due = start + k / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            session = k % N_SESSIONS
            _, window_index = ledger.feed(session, due)
            sent = clock()
            phase.lags.append(sent - due)
            status, body = await client.feed(
                session_ids[session], samples[session][window_index % POOL]
            )
            returned = clock()
            if len(ledger.replies) < 256 and isinstance(body, dict):
                ledger.replies.append(body)
            ledger.take(status, body, returned, phase)
            if ledger.outstanding[session_ids[session]]:
                heapq.heappush(held, (returned + MAX_WAIT_S, next(order), session))
            released = set()
            while held and held[0][0] <= sent:
                released.add(heapq.heappop(held)[2])
            for session in sorted(released):
                session_id = session_ids[session]
                if not ledger.outstanding[session_id]:
                    continue  # its own feed already delivered it
                status, body = await client.predictions(session_id)
                returned = clock()
                ledger.take(status, body, returned, phase)
                if ledger.outstanding[session_id]:  # not in the released batch
                    heapq.heappush(held, (returned, next(order), session))

    try:
        await asyncio.gather(*(connection(index) for index in range(N_CONNECTIONS)))
        # Flush what the scheduler still holds, then collect every mailbox.
        status, body = await clients[0].score(ledger.cohort.session_ids[0])
        ledger.take(status, body, clock(), phase)
        for session, session_id in enumerate(ledger.cohort.session_ids):
            if ledger.outstanding[session_id]:
                client = clients[session % N_CONNECTIONS]
                status, body = await client.predictions(session_id)
                ledger.take(status, body, clock(), phase)
    finally:
        for client in clients:
            await client.close()
    return phase


def check(outcome: Outcome, context: Context, report: dict) -> None:
    """Exactly once, HTTP 200 only, and wire results equal to in-process serving."""
    ledger = context.ledger
    outcome.attempted += len(ledger.fed)
    streams.check_exactly_once(outcome, set(ledger.fed), ledger.delivered)
    refused = sum(count for status, count in ledger.statuses.items() if status != 200)
    outcome.check("http_200", refused == 0, f"statuses {ledger.statuses}", refused)
    scheduler = report["scheduler"]
    lost = scheduler["shed"] + scheduler["dead"]
    outcome.check(
        "scheduler_clean",
        lost + scheduler["failures"] == 0,
        f"shed={scheduler['shed']} dead={scheduler['dead']} "
        f"failures={scheduler['failures']}",
        lost,
    )
    reference, error = streams.replay_reference(
        context.cohort, ledger.counts(), context.engine, context.fitted.dataset.scaler.transform
    )
    streams.check_against_reference(outcome, ledger.served, reference, error)


def _codec_us(context: Context) -> tuple:
    """Median gateway parse and encode time of one feed, on recorded bodies."""
    session_id = context.cohort.session_ids[0]
    target = f"/v1/sessions/{session_id}/windows"
    parse, encode = [], []
    for session in range(N_SESSIONS):
        for index in range(0, POOL, 8):
            body = json.dumps({"samples": context.samples[session][index]}).encode()
            head = (
                f"POST {target} HTTP/1.1\r\nHost: {HOST}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                f"x-repro-client: loadgen-0"
            ).encode("ascii")
            start = time.perf_counter()
            method, _, headers = parse_request_head(head)
            Request(method=method, target=target, path=target, headers=headers, body=body).json()
            parse.append(time.perf_counter() - start)
    for reply in context.ledger.replies:
        start = time.perf_counter()
        json_response(200, reply)
        encode.append(time.perf_counter() - start)
    return median(parse) * 1e6, median(encode) * 1e6


def measure(outcome: Outcome, seed: int, seconds: float, spans) -> dict:
    """Untraced gateway, then a traced one, ``seconds`` each; per-layer metrics.

    The traced gateway process records its own spans (written to its own
    Chrome trace); ``spans`` gets the client side's ``GatewayClient.feed``
    round trips.
    The gateway process's CPU per window is the traced time the layers
    account for; ``gateway.residual_us_per_window`` is what the backend
    layers and the measured parse/encode leave of it: the event loop, socket
    I/O and the hand-off to the backend thread.
    """
    context = Context(seed)
    try:
        plain = asyncio.run(drive(context, FIXED_RATE, seconds))
        plain_report = context.close()
        check(outcome, context, plain_report)
        path = OUT / f"cohort-paper-seed{seed}.gateway.trace.json"
        context.start_gateway(trace=True, trace_path=str(path))
        with instrument(spans):
            traced = asyncio.run(drive(context, FIXED_RATE, seconds))
        report = context.close()
    finally:
        context.close()
    check(outcome, context, report)
    windows = traced.windows
    layers = serving_layers(report["trace"], windows)
    backend_us = layers.pop("accounted_us")
    requests = report["gateway"]["requests"]
    plain_cpu_us = plain_report["cpu_s"] / plain.windows * 1e6
    cpu_us = report["cpu_s"] / windows * 1e6
    parse_us, encode_us = _codec_us(context)
    feeds = [record.duration for record in spans.spans if record.name == "gateway.feed"]
    rejected = sum(
        value
        for name, value in report["gateway"].items()
        if name.startswith("rejected_")
    )
    outcome.info.update(
        gateway_trace_file=str(path.relative_to(ROOT)),
        gateway_windows=windows,
        gateway_window_samples=int(SAMPLING_RATE * WINDOW_SECONDS),
        gateway_fixed_rate_wps=FIXED_RATE,
        gateway_window_p50_ms=percentile_ms(traced.latencies, 50),
        gateway_window_p99_ms=percentile_ms(traced.latencies, 99),
        gateway_latency_samples=len(traced.latencies),
        gateway_requests_per_window=requests / windows,
        gateway_untraced_cpu_us_per_window=plain_cpu_us,
        gateway_trace_overhead_pct=(cpu_us / plain_cpu_us - 1.0) * 100.0,
        gateway_session_us_per_window=layers["session.push_us_per_window"],
        gateway_scheduler_batch_size_mean=report["scheduler"]["windows"]
        / max(report["scheduler"]["batches"], 1),
        gateway_loop_error_messages=report["loop_error_messages"],
    )
    return {
        "gateway.rtt_p50_ms": percentile_ms(feeds, 50),
        "gateway.rtt_p99_ms": percentile_ms(feeds, 99),
        "gateway.backend_us_per_window": backend_us,
        "gateway.self_us_per_request": (report["cpu_s"] - backend_us * windows / 1e6)
        / requests
        * 1e6,
        "gateway.parse_us": parse_us,
        "gateway.encode_us": encode_us,
        "gateway.rejected": rejected,
        "gateway.loop_errors": plain_report["loop_errors"] + report["loop_errors"],
        "gateway.cpu_us_per_window": cpu_us,
        "gateway.residual_us_per_window": cpu_us
        - backend_us
        - requests / windows * (parse_us + encode_us),
        "loadgen.lag_p99_ms": percentile_ms(traced.lags, 99),
    }
