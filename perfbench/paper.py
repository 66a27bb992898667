"""``paper-fit-score``: the paper experiment, fit then score at four precisions.

Set-up generates ``load_wesad`` defaults (1125 windows x 28 features, 15
subjects), splits it 80/20 by subject with a fixed seed, fits
``BoostHD(total_dim=4000, n_learners=10, epochs=20)`` seeded by the run's seed
and compiles float64, fixed16, bipolar-packed and cascade-fixed16 engines.
The timed loop scores the held-out rows in 64-row calls, one precision after
another, until the run time is up.  Each row's latency is the duration of the
call that scored it.
"""

from __future__ import annotations

import time

import numpy as np

from repro import compile_model

from .harness import OUT, SETUP_REPEATS, SPEED, Outcome, median, percentile_ms, rss_mb, segments
from .model import PRECISIONS, engine_layers, fit_model
from .tracer import TimedScorer, aggregate, recorder, serving_layers, write_trace

BATCH = 64
#: Least share of held-out labels fixed16 and the cascade must share with float64.
AGREEMENT_FLOOR = 0.99


class Context:
    def __init__(self, seed: int, spans=None) -> None:
        self.fitted = fit_model(seed, spans=spans)
        self.engines = {
            precision: compile_model(self.fitted.model, precision=precision)
            for precision in PRECISIONS
        }


class Passes:
    """Scoring passes over the held-out rows until time is up.

    Every precision in turn scores the rows in ``BATCH``-row calls; a row's
    latency is the duration of the call that scored it.  Between passes the
    host speed is recalibrated and the resident memory sampled every
    ``CALIBRATE_EVERY_S``; durations are at the reference host speed.
    """

    def __init__(self, engines: dict, rows: np.ndarray, seconds: float) -> None:
        chunks = [rows[start : start + BATCH] for start in range(0, len(rows), BATCH)]
        self.labels: dict = {}
        self.peak_rss_mb = 0.0
        calls = []  # (start, end) of every decision_function call
        clock = time.perf_counter
        SPEED.calibrate()
        deadline = clock() + seconds
        while clock() < deadline:
            if SPEED.due():
                self.peak_rss_mb = max(self.peak_rss_mb, rss_mb())
                SPEED.calibrate()
            for precision, engine in engines.items():
                parts = []
                for chunk in chunks:
                    call = clock()
                    parts.append(engine.decision_function(chunk))
                    calls.append((call, clock()))
                self.labels[precision] = engine.classes_[np.argmax(np.vstack(parts), axis=1)]
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb())
        SPEED.calibrate()
        starts, ends = np.asarray(calls).T
        sizes = np.array([len(chunk) for chunk in chunks])
        passes = len(calls) // len(chunks)
        self.rows = int(sizes.sum()) * passes
        self.busy_raw = float(np.sum(ends - starts))
        durations = SPEED(ends) - SPEED(starts)
        self.busy = float(np.sum(durations))
        self.latencies = np.repeat(durations, np.tile(sizes, passes))


def check(outcome: Outcome, context: Context, labels: dict) -> None:
    """Loop-path parity of float64, agreement of fixed16 and the cascade."""
    fitted = context.fitted
    reference = fitted.model.predict(fitted.X_test)
    mismatched = int(np.sum(labels["float64"] != reference))
    outcome.check(
        "float64_equals_loop_path",
        mismatched == 0,
        f"{len(reference) - mismatched}/{len(reference)} held-out labels equal BoostHD.predict",
        mismatched,
    )
    for precision in ("fixed16", "cascade-fixed16"):
        agree = float(np.mean(labels[precision] == labels["float64"]))
        outcome.check(
            f"{precision}_agreement",
            agree >= AGREEMENT_FLOOR,
            f"{agree:.4f} of labels equal float64 (floor {AGREEMENT_FLOOR})",
            int(round((1 - agree) * len(reference))),
        )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    outcome.info.update(workload="paper-fit-score", batch_rows=BATCH, loop="closed")
    if trace:
        return run_traced(outcome, seed, seconds)

    def measure(context: Context, index: int):
        passes = Passes(context.engines, context.fitted.X_test, seconds / SETUP_REPEATS)
        outcome.attempted += passes.rows
        check(outcome, context, passes.labels)
        accuracy = float(np.mean(passes.labels["float64"] == context.fitted.y_test))
        return context.fitted.fit_s, passes, accuracy

    setup_times, results = segments(lambda: Context(seed), measure)
    fits, passes, accuracies = zip(*results)
    latencies = np.concatenate([segment.latencies for segment in passes])
    # Rows scored per second of scoring calls, summed over the precisions.
    rows = sum(segment.rows for segment in passes)
    rows_per_s = rows / sum(segment.busy for segment in passes)
    outcome.metrics.update(
        {
            "setup_s": median(setup_times),
            "windows_per_s": rows_per_s,
            "window_p50_ms": percentile_ms(latencies, 50),
            # A slow spell of the shared host can fill one segment's tail.
            "window_p99_ms": median(percentile_ms(segment.latencies, 99) for segment in passes),
            "fit_s": median(fits),
            "accuracy": median(accuracies),
            "peak_rss_mb": max(segment.peak_rss_mb for segment in passes),
        }
    )
    outcome.info.update(
        latency_samples=len(latencies),
        segment_p99_ms=[percentile_ms(segment.latencies, 99) for segment in passes],
        setup_times_s=setup_times,
        fit_times_s=fits,
        raw_rows_per_s=rows / sum(segment.busy_raw for segment in passes),
    )
    return outcome


def run_traced(outcome: Outcome, seed: int, seconds: float) -> Outcome:
    """Traced fit, engine-layer timings, untraced vs traced scoring passes."""
    spans = recorder()
    context = Context(seed, spans=spans)
    rows = context.fitted.X_test
    plain = Passes(context.engines, rows, seconds / 2)
    timed = {precision: TimedScorer(spans, engine) for precision, engine in context.engines.items()}
    traced = Passes(timed, rows, seconds / 2)
    outcome.attempted = traced.rows
    check(outcome, context, traced.labels)
    records = list(spans.spans)
    layers = serving_layers(aggregate(records), traced.rows)
    engine_us = layers["engine.score_us_per_window"]
    traced_us = traced.busy_raw / traced.rows * 1e6
    outcome.metrics.update(context.fitted.train)
    outcome.metrics.update(engine_layers(context.fitted.model, rows))
    outcome.metrics.update(
        {
            "engine.score_us_per_window": engine_us,
            "engine.rows_per_call_mean": layers["engine.rows_per_call_mean"],
            "obs.trace_overhead_pct": (
                (traced.busy / traced.rows) / (plain.busy / plain.rows) - 1.0
            )
            * 100.0,
            "trace.us_per_window": traced_us,
            "trace.residual_us_per_window": traced_us - engine_us,
            "error_ratio": outcome.failed / max(outcome.attempted, 1),
        }
    )
    path = OUT / f"paper-fit-score-seed{seed}.trace.json"
    write_trace(str(path), records)
    outcome.info.update(
        trace_file=str(path.relative_to(OUT.parent.parent)),
        rows_scored=traced.rows,
        fit_s=context.fitted.fit_s,
    )
    return outcome
