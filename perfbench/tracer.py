"""Span tracing of the serving stack, driven from the benchmark's side of the API.

The traced run wraps public calls -- ``StreamSession.push``,
``StreamingService.push``/``drain``, ``MicroBatchScheduler.submit``/``pump``/
``flush``, the service's transform callable, a proxy around the scorer's
``decision_function``, the ``repro.engine.train`` entry points and
``GatewayClient.feed`` -- and records one :class:`repro.obs.trace.SpanRecord`
per call, with its parent's name, its depth and the window it belongs to, in
a :class:`~repro.obs.trace.SpanRecorder`.  Nothing inside ``src/`` changes:
:func:`instrument` installs the wrappers and removes them on exit.

A span's *self time* is its duration minus the time its child spans cover;
:func:`aggregate` computes it after the run from the records' nesting.  Spans
are exported with :func:`repro.obs.export.write_chrome_trace`.
"""

from __future__ import annotations

import contextlib
import os
import threading

import repro.engine.train.bundling as bundling
import repro.engine.train.encoding as encoding
import repro.engine.train.exact as exact
import repro.engine.train.minibatch as minibatch
import repro.serving.fabric as fabric
from repro.gateway import GatewayClient
from repro.obs.export import write_chrome_trace
from repro.obs.trace import SpanRecord, SpanRecorder
from repro.serving.scheduler import MicroBatchScheduler
from repro.serving.service import StreamingService
from repro.serving.session import StreamSession

#: Holds every span of a traced phase: self times need every child span.
SPAN_CAPACITY = 2_000_000

#: (module, function, span name) of the ``repro.engine.train`` entry points.
TRAIN_ENTRY_POINTS = (
    (encoding, "encode_ensemble", "train.encode"),
    (bundling, "bundle_classes", "train.bundle"),
    (exact, "adaptive_pass_exact", "train.adaptive"),
    (minibatch, "adaptive_pass_minibatch", "train.adaptive"),
)


def recorder() -> SpanRecorder:
    return SpanRecorder(SPAN_CAPACITY)


class TimedScorer:
    """Scorer proxy: one ``engine.score`` span, with its row count, per call."""

    def __init__(self, spans: SpanRecorder, scorer) -> None:
        self._spans = spans
        self._scorer = scorer

    def decision_function(self, X):
        with self._spans.span("engine.score", rows=len(X)):
            return self._scorer.decision_function(X)

    def __getattr__(self, name):
        return getattr(self._scorer, name)


@contextlib.contextmanager
def patching():
    """Yield ``patch(owner, attribute, make)``, which replaces ``owner.attribute``
    by ``make(original)``; every patch is undone when the block exits."""
    originals = []

    def patch(owner, attribute, make):
        original = vars(owner)[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    try:
        yield patch
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


@contextlib.contextmanager
def instrument(spans: SpanRecorder):
    """Wrap the public calls listed above for the duration of the block.

    Services constructed inside the block get a timed transform and a timed
    scorer proxy.  The wrappers are class- and module-level, so fabric
    workers forked inside the block trace themselves; each returns its own
    spans through ``ServingFabric.worker_info()``.
    """

    def spanned(name, window=lambda *args: ""):
        def make(original):
            def wrapper(*args, **kwargs):
                with spans.span(name, window=window(*args)):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def first_str(owner, *args):
        return args[0] if args and isinstance(args[0], str) else ""

    def service_init(original):
        def __init__(self, scorer, **options):
            original(self, scorer, **options)
            if self.transform is not None:
                self.transform = spanned("service.transform")(self.transform)
            self.scheduler.scorer = TimedScorer(spans, self.scheduler.scorer)

        return __init__

    def worker_info(original):
        def info(self):
            pid = os.getpid()
            return {**original(self), "trace": [r for r in spans.spans if r.pid == pid]}

        return info

    def client_feed(original):
        # Coroutines interleave on one thread, so these spans are recorded
        # whole, outside the recorder's per-thread nesting.
        async def feed(self, session_id, samples, **options):
            start = spans.clock()
            try:
                return await original(self, session_id, samples, **options)
            finally:
                record = SpanRecord(
                    "gateway.feed", start, spans.clock(), 0, None,
                    threading.get_ident(), os.getpid(), (("window", session_id),),
                )
                spans.extend([record])

        return feed

    with patching() as patch:
        patch(
            StreamSession,
            "push",
            spanned("session.push", lambda self, *_: f"{self.session_id}/{self.windows_emitted}"),
        )
        patch(StreamingService, "__init__", service_init)
        patch(StreamingService, "push", spanned("service.push", first_str))
        patch(StreamingService, "drain", spanned("service.drain", first_str))
        patch(MicroBatchScheduler, "submit", spanned("scheduler.submit", first_str))
        patch(MicroBatchScheduler, "pump", spanned("scheduler.pump", first_str))
        patch(MicroBatchScheduler, "flush", spanned("scheduler.flush", first_str))
        patch(fabric._ShardRuntime, "info", worker_info)
        patch(GatewayClient, "feed", client_feed)
        for module, function, name in TRAIN_ENTRY_POINTS:
            patch(module, function, spanned(name))
        yield spans


def aggregate(records) -> dict:
    """Per span name ``[calls, total_s, self_s, rows]`` over finished spans.

    Spans close children first, so on one thread a span's children are the
    spans one level deeper that closed since the last span at its own depth.
    """
    if len(records) >= SPAN_CAPACITY:
        raise RuntimeError("span recorder full: self times would be wrong")
    totals: dict = {}
    pending: dict = {}  # (pid, thread, depth) -> closed child time not yet claimed
    for record in records:
        where = (record.pid, record.thread)
        duration = record.duration
        children = pending.pop((where, record.depth + 1), 0.0)
        pending[(where, record.depth)] = pending.get((where, record.depth), 0.0) + duration
        entry = totals.setdefault(record.name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        entry[3] += record.attrs.get("rows", 0)
    return totals


def serving_layers(totals: dict, windows: int) -> dict:
    """Per-window self times of the in-service layers, microseconds.

    ``accounted_us`` is the time inside the root spans (``service.push`` and
    ``service.drain``), which the five layer figures sum to exactly.
    """

    def total(name):
        return totals.get(name, (0, 0.0, 0.0, 0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0, 0))[2]

    scale = 1e6 / max(windows, 1)
    calls, _, _, rows = totals.get("engine.score", (0, 0.0, 0.0, 0))
    return {
        "session.push_us_per_window": own("session.push") * scale,
        "service.transform_us_per_window": total("service.transform") * scale,
        "service.self_us_per_window": (own("service.push") + own("service.drain")) * scale,
        "scheduler.self_us_per_window": (
            own("scheduler.submit") + own("scheduler.pump") + own("scheduler.flush")
        )
        * scale,
        "engine.score_us_per_window": total("engine.score") * scale,
        "engine.rows_per_call_mean": rows / max(calls, 1),
        "accounted_us": (total("service.push") + total("service.drain")) * scale,
    }


def write_trace(path, records) -> str:
    """Write span records as a Chrome trace through ``repro.obs.export``."""
    spans = SpanRecorder(capacity=max(len(records), 1))
    spans.extend(records)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return write_chrome_trace(spans, path)
