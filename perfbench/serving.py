"""``cohort-paper``: 64 WESAD-windowed sessions, closed loop, in process.

64 sessions at 32 Hz x 20 s windows (640 samples, smoothing 30) push one
window-sized chunk per session per round, round-robin, one chunk per
:meth:`~repro.serving.StreamingService.push`, into an in-process service at
fixed16 with the dataset's scaler as the transform and the default batching
policy.  A window's latency runs from the call that supplied its last sample
to the return that delivered its prediction.

The traced run adds a fabric phase: the same inputs, each round of 64 chunks
routed through :meth:`~repro.serving.ServingFabric.route` over two worker
processes, for the fabric layer's per-layer metrics.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from repro import compile_model
from repro.data import CHANNELS
from repro.serving import ServingFabric, StreamingService

from . import streams, trickle
from .harness import OUT, SETUP_REPEATS, SPEED, Outcome, median, percentile_ms, rss_mb, segments
from .model import engine_layers, fit_model
from .tracer import aggregate, instrument, recorder, serving_layers, write_trace

N_SESSIONS = 64
POOL = 16
SAMPLING_RATE = 32.0
WINDOW_SECONDS = 20.0
#: Sessions whose streams are replayed for the feature and bitwise gates.
CHECK_SESSIONS = 8
N_WORKERS = 2


class Context:
    """Everything set-up builds: inputs, fitted model, engine, serving stack."""

    def __init__(self, seed: int, spans=None) -> None:
        self.seed = seed
        self.cohort = streams.make_cohort(
            seed,
            n_sessions=N_SESSIONS,
            pool=POOL,
            sampling_rate=SAMPLING_RATE,
            window_seconds=WINDOW_SECONDS,
        )
        self.fitted = fit_model(
            seed,
            sampling_rate=SAMPLING_RATE,
            window_seconds=WINDOW_SECONDS,
            spans=spans,
        )
        self.engine = compile_model(self.fitted.model, precision="fixed16")
        self.transform = self.fitted.dataset.scaler.transform
        self.fabric = False  # in-process service; traced runs also build a fabric
        self.stack = self.build_stack()

    def build_stack(self):
        options = {
            "n_channels": len(CHANNELS),
            "window_samples": self.cohort.window_samples,
            "smoothing_window": streams.SMOOTHING,
            "transform": self.transform,
        }
        if self.fabric:
            stack = ServingFabric(self.engine, n_workers=N_WORKERS, **options)
        else:
            stack = StreamingService(self.engine, **options)
        for session_id in self.cohort.session_ids:
            stack.open_session(session_id)
        return stack

    def close(self) -> None:
        if self.fabric:
            self.stack.shutdown()


class Ledger:
    """What one timed phase fed, delivered and how long each window took.

    Stamps are ``time.perf_counter`` readings; :meth:`finish` reads them
    through the host-speed clock once the phase's last knot is set.
    """

    def __init__(self) -> None:
        self.fed: dict = {}  # (session_id, window_index) -> call time
        self.delivered: list = []
        self.served: dict = {}
        self.stamps: list = []  # (call that fed the window, return that delivered it)
        self.queue_waits: list = []
        self.calls: list = []  # (call, return, windows delivered) per serving call
        self.counts: dict = {}  # session index -> windows fed
        self.started = self.ended = 0.0
        self.peak_rss_mb = 0.0
        self.sample_predictions: list = []  # the largest reply seen

    def take(self, predictions, call: float, returned: float) -> None:
        self.calls.append((call, returned, len(predictions)))
        if len(predictions) > len(self.sample_predictions):
            self.sample_predictions = list(predictions)
        for prediction in predictions:
            key = (prediction.session_id, int(prediction.window_index))
            self.delivered.append(key)
            if prediction.shed:  # counted by the scheduler_clean gate
                continue
            self.served[key] = (int(prediction.label), tuple(prediction.scores.tolist()))
            self.stamps.append((self.fed[key], returned))
            self.queue_waits.append(prediction.queue_seconds)

    def finish(self) -> None:
        """Latencies, wall and in-call time at the reference host speed."""
        fed, returned = np.asarray(self.stamps).T
        self.latencies = SPEED(returned) - SPEED(fed)
        self.wall = SPEED.seconds(self.started, self.ended)
        calls = np.asarray(self.calls)
        self.busy_raw = float(np.sum(calls[:, 1] - calls[:, 0]))
        self.busy = float(np.sum(SPEED(calls[:, 1]) - SPEED(calls[:, 0])))

    @property
    def windows(self) -> int:
        return len(self.served)


def drive(context: Context, seconds: float) -> Ledger:
    """Closed loop over rounds until ``seconds`` elapse, then drain.

    Between rounds the host speed is recalibrated and the resident memory
    sampled every ``CALIBRATE_EVERY_S``.
    """
    cohort, stack = context.cohort, context.stack
    ledger = Ledger()
    clock = time.perf_counter
    SPEED.calibrate()
    ledger.started = clock()
    deadline = ledger.started + seconds
    window_index = 0
    while clock() < deadline:
        if SPEED.due():
            ledger.peak_rss_mb = max(ledger.peak_rss_mb, rss_mb())
            SPEED.calibrate()
        if context.fabric:
            items = [
                (session_id, cohort.chunk(session, window_index))
                for session, session_id in enumerate(cohort.session_ids)
            ]
            call = clock()
            for session_id, _ in items:
                ledger.fed[(session_id, window_index)] = call
            predictions = stack.route(items)
            returned = clock()
            ledger.take(predictions, call, returned)
            for session in range(len(cohort.session_ids)):
                ledger.counts[session] = window_index + 1
        else:
            for session, session_id in enumerate(cohort.session_ids):
                call = clock()
                ledger.fed[(session_id, window_index)] = call
                predictions = stack.push(session_id, cohort.chunk(session, window_index))
                returned = clock()
                ledger.take(predictions, call, returned)
                ledger.counts[session] = window_index + 1
                if returned >= deadline:
                    break
        window_index += 1
    call = clock()
    predictions = stack.drain()
    returned = clock()
    ledger.take(predictions, call, returned)
    ledger.ended = returned
    ledger.peak_rss_mb = max(ledger.peak_rss_mb, rss_mb())
    SPEED.calibrate()
    ledger.finish()
    return ledger


def check(outcome: Outcome, context: Context, ledger: Ledger, counters: dict) -> None:
    """The exactly-once gate on every window, feature/bitwise gates on a sample."""
    outcome.attempted += len(ledger.fed)
    streams.check_exactly_once(outcome, set(ledger.fed), ledger.delivered)
    lost = counters["shed"] + counters["dead"]
    outcome.check(
        "scheduler_clean",
        lost + counters["failures"] == 0,
        f"shed={counters['shed']} dead={counters['dead']} failures={counters['failures']}",
        lost,
    )
    rng = np.random.default_rng([context.seed, 11])
    sample = sorted(rng.choice(N_SESSIONS, size=CHECK_SESSIONS, replace=False).tolist())
    reference, error = streams.replay_reference(
        context.cohort,
        {session: ledger.counts.get(session, 0) for session in sample},
        context.engine,
        context.transform,
    )
    streams.check_against_reference(outcome, ledger.served, reference, error)


def scheduler_counters(context: Context) -> dict:
    """Scheduler totals across the serving stack (one service or every shard)."""
    if context.fabric:
        shards = context.stack.stats()
        windows = sum(shard["windows"] for shard in shards)
        batches = sum(shard["batches"] for shard in shards)
        return {
            "windows": windows,
            "batches": batches,
            "shed": sum(shard["windows_shed"] for shard in shards),
            "dead": sum(shard["windows_dead"] for shard in shards),
            "failures": sum(shard["score_failures"] for shard in shards),
            "per_shard": [shard["windows"] for shard in shards],
        }
    stats = context.stack.stats
    return {
        "windows": stats.windows_scored,
        "batches": stats.batches,
        "shed": stats.windows_shed,
        "dead": stats.windows_dead,
        "failures": stats.score_failures,
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    outcome.info.update(
        workload="cohort-paper",
        sessions=N_SESSIONS,
        window_samples=int(SAMPLING_RATE * WINDOW_SECONDS),
        pool_windows_per_session=POOL,
        loop="closed",
    )
    if trace:
        return run_traced(outcome, seed, seconds)

    def measure(context: Context, index: int):
        ledger = drive(context, seconds / SETUP_REPEATS)
        counters = scheduler_counters(context)
        check(outcome, context, ledger, counters)
        accuracy = streams.accuracy(context.cohort, ledger.served)
        return context.fitted.fit_s, ledger, counters, accuracy

    setup_times, results = segments(lambda: Context(seed), measure)
    fits, ledgers, counters, accuracies = zip(*results)
    latencies = np.concatenate([ledger.latencies for ledger in ledgers])
    windows = [ledger.windows for ledger in ledgers]
    windows_per_s = sum(windows) / sum(ledger.wall for ledger in ledgers)
    outcome.metrics.update(
        {
            "setup_s": median(setup_times),
            "windows_per_s": windows_per_s,
            "window_p50_ms": percentile_ms(latencies, 50),
            # A slow spell of the shared host can fill one segment's tail.
            "window_p99_ms": median(percentile_ms(ledger.latencies, 99) for ledger in ledgers),
            "fit_s": median(fits),
            "accuracy": float(np.average(accuracies, weights=windows)),
            "peak_rss_mb": max(ledger.peak_rss_mb for ledger in ledgers),
        }
    )
    outcome.info.update(
        windows=sum(windows),
        latency_samples=len(latencies),
        segment_p99_ms=[percentile_ms(ledger.latencies, 99) for ledger in ledgers],
        setup_times_s=setup_times,
        fit_times_s=fits,
        raw_windows_per_s=sum(windows) / sum(ledger.ended - ledger.started for ledger in ledgers),
        batch_size_mean=sum(c["windows"] for c in counters)
        / max(sum(c["batches"] for c in counters), 1),
    )
    return outcome


#: Shares of a traced run: in-process untraced, in-process traced, fabric
#: traced, and each of the gateway phase's untraced and traced halves.
TRACE_SHARES = (0.3, 0.3, 0.2, 0.1)


def run_traced(outcome: Outcome, seed: int, seconds: float) -> Outcome:
    """Untraced and traced in-process phases, a traced fabric phase, a gateway phase.

    The in-process phases give the session, service, scheduler and engine
    layers and the tracing overhead; the fabric phase routes the same inputs
    through ``ServingFabric(n_workers=2).route()`` for the fabric layer; the
    gateway phase (:mod:`perfbench.trickle`) sends 32-sample windows over
    HTTP to a gateway process for the gateway layer.
    Layer times are raw wall time; the overhead compares in-call times at the
    reference host speed.
    """
    plain_share, traced_share, fabric_share, gateway_share = TRACE_SHARES
    spans = recorder()
    context = Context(seed, spans=spans)
    plain = drive(context, seconds * plain_share)
    with instrument(spans):
        context.stack = context.build_stack()
        traced = drive(context, seconds * traced_share)
        counters = scheduler_counters(context)
        records = list(spans.spans)  # before the gate's replay adds session spans
        check(outcome, context, traced, counters)
        context.fabric = True
        context.stack = context.build_stack()
        try:
            routed = drive(context, seconds * fabric_share)
            fabric_counters = scheduler_counters(context)
            infos = context.stack.worker_info()
            restarts, timeouts = context.stack.restarts, context.stack.timeouts
        finally:
            context.close()
        check(outcome, context, routed, fabric_counters)
    metrics = outcome.metrics
    metrics.update(trickle.measure(outcome, seed, seconds * gateway_share, spans))
    worker_records = [record for info in infos for record in info["trace"]]
    windows = traced.windows
    layers = serving_layers(aggregate(records), windows)
    traced_us = traced.busy_raw / windows * 1e6
    accounted = layers.pop("accounted_us")
    critical = _critical_worker_seconds(routed.calls, worker_records)
    per_shard = fabric_counters["per_shard"]
    metrics.update(context.fitted.train)
    metrics.update(
        engine_layers(context.fitted.model, context.transform(context.cohort.features()))
    )
    metrics.update(layers)
    metrics.update(
        {
            "session.share_of_window": layers["session.push_us_per_window"] / traced_us,
            "scheduler.batch_size_mean": counters["windows"] / max(counters["batches"], 1),
            "scheduler.queue_wait_p50_ms": percentile_ms(traced.queue_waits, 50),
            "scheduler.queue_wait_p99_ms": percentile_ms(traced.queue_waits, 99),
            "scheduler.shed": counters["shed"],
            "scheduler.dead": counters["dead"],
            "scheduler.score_failures": counters["failures"],
            "fabric.route_us_per_window": routed.busy_raw / routed.windows * 1e6,
            "fabric.ipc_us_per_window": (routed.busy_raw - critical) / routed.windows * 1e6,
            "fabric.ipc_bytes_per_window": _ipc_bytes_per_window(context, routed),
            "fabric.shard_imbalance": max(per_shard) / (sum(per_shard) / len(per_shard)),
            "fabric.worker_uss_mb": sum(info["uss_bytes"] or 0 for info in infos) / 2**20,
            "fabric.restarts": restarts,
            "fabric.timeouts": timeouts,
            "obs.trace_overhead_pct": (
                (traced.busy / traced.windows) / (plain.busy / plain.windows) - 1.0
            )
            * 100.0,
            "trace.us_per_window": traced_us,
            "trace.residual_us_per_window": traced_us - accounted,
            "error_ratio": outcome.failed / max(outcome.attempted, 1),
        }
    )
    path = OUT / f"cohort-paper-seed{seed}.trace.json"
    feeds = [record for record in spans.spans if record.name == "gateway.feed"]
    write_trace(str(path), records + worker_records + feeds)
    outcome.info.update(
        trace_file=str(path.relative_to(OUT.parent.parent)),
        windows=windows,
        routed_windows=routed.windows,
        untraced_us_per_window=plain.busy_raw / plain.windows * 1e6,
        fabric_worker_us_per_window=serving_layers(
            aggregate(worker_records), routed.windows
        )["accounted_us"],
    )
    return outcome


def _critical_worker_seconds(calls, records) -> float:
    """Per route call, the busiest worker's time inside ``service.push`` spans."""
    by_pid: dict = {}
    for record in records:
        if record.name == "service.push" and record.depth == 0:
            by_pid.setdefault(record.pid, []).append((record.start, record.end))
    total = 0.0
    spans = {pid: np.asarray(sorted(items)) for pid, items in by_pid.items()}
    for call, returned, _ in calls:
        busiest = 0.0
        for items in spans.values():
            lo, hi = np.searchsorted(items[:, 0], [call, returned])
            busiest = max(busiest, float(np.sum(items[lo:hi, 1] - items[lo:hi, 0])))
        total += busiest
    return total


def _ipc_bytes_per_window(context: Context, ledger: Ledger) -> float:
    """Pickled request plus reply bytes of one routed round, per window."""
    cohort = context.cohort
    request = [
        (session_id, cohort.chunk(session, 0))
        for session, session_id in enumerate(cohort.session_ids)
    ]
    sent = len(pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)) / len(request)
    replies = ledger.sample_predictions
    received = len(pickle.dumps(replies, protocol=pickle.HIGHEST_PROTOCOL)) / len(replies)
    return sent + received
