"""Tests for repro.obs: metrics, tracing, export, and the no-op guarantee.

The load-bearing properties, each tested below:

* **Percentile error bound** — log-bucket histogram percentiles are within
  the advertised ``sqrt(growth)`` multiplicative factor of the exact
  nearest-rank statistic for any in-range sample (hypothesis).
* **Merge algebra** — :meth:`MetricsRegistry.merge` is associative and
  commutative with the empty snapshot as identity, which is what makes
  worker fold-in order-independent (hypothesis).
* **Span invariants** — close-order recording, correct parent/depth
  bookkeeping, bounded ring buffer, valid Chrome trace-event JSON.
* **No-op equivalence** — with observability off (the default) the
  instrumented scoring paths produce bit-identical predictions to the
  observed paths, and the null instruments record nothing.
* **Suite telemetry parity** — merged per-worker snapshots from a
  4-worker ``run_suite`` equal the serial run's registry for all counters.
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import json
import math
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boosthd import BoostHD
from repro.engine import compile_model
from repro.engine.cascade import CascadeStats
from repro.experiments import run_suite
from repro.gateway import Gateway, GatewayClient
from repro.obs import (
    NULL_RECORDER,
    NULL_REGISTRY,
    OBS,
    Histogram,
    MetricsRegistry,
    SpanRecorder,
    Tally,
    capture,
    empty_snapshot,
    enable,
    log_bucket_bounds,
    prometheus_text,
    sanitize_metric_name,
    scoped_registry,
    write_chrome_trace,
)
from repro.obs.metrics import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
from repro.serving import StreamingService
from repro.serving.scheduler import MicroBatchScheduler, SchedulerStats

pytestmark = pytest.mark.obs


def _obs_off():
    OBS.enabled, OBS.metrics, OBS.recorder = False, NULL_REGISTRY, NULL_RECORDER


@pytest.fixture(autouse=True)
def _obs_off_between_tests():
    """Every test starts and ends with observability disabled."""
    _obs_off()
    yield
    _obs_off()


@pytest.fixture(scope="module")
def fitted_model(request):
    blobs_split = request.getfixturevalue("blobs_split")
    X_train, _, y_train, _ = blobs_split
    return BoostHD(total_dim=96, n_learners=4, epochs=2, seed=0).fit(
        X_train, y_train
    )


# --------------------------------------------------------------------------
# Histogram: bucket exactness and the percentile error bound.
# --------------------------------------------------------------------------

#: Binary-fraction observations: sums of a few of these are exact in float64,
#: which keeps merge associativity testable to the last bit.
exact_values = st.integers(min_value=1, max_value=64).map(lambda n: n / 16.0)

in_range_values = st.floats(
    min_value=2e-6, max_value=9.0, allow_nan=False, allow_infinity=False
)


def true_percentile(values: list[float], percentile: float) -> float:
    """The exact nearest-rank statistic :meth:`Histogram.percentile` estimates."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestHistogram:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(in_range_values, min_size=1, max_size=200),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_within_relative_error_bound(self, values, percentile):
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        estimate = histogram.percentile(percentile)
        truth = true_percentile(values, percentile)
        factor = math.sqrt(10 ** (1 / histogram.per_decade)) * (1 + 1e-9)
        assert truth / factor <= estimate <= truth * factor

    @settings(max_examples=50, deadline=None)
    @given(st.lists(in_range_values, min_size=1, max_size=100))
    def test_exact_moments_ride_alongside(self, values):
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        assert histogram.count == len(values)
        assert histogram.min == min(values)
        assert histogram.max == max(values)
        assert histogram.sum == pytest.approx(sum(values))
        assert sum(histogram.counts) == len(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=40), st.lists(st.floats(), max_size=80))
    def test_observe_many_is_a_loop_of_observe_bit_for_bit(self, before, batch):
        """For every float input, NaN and +-inf included: NaN lands in
        bucket 0 (where ``bisect_left`` puts it), ``sum`` adds in arrival
        order, and ``min``/``max`` keep ``observe()``'s first-wins
        comparisons."""

        def state(histogram):
            moments = (histogram.sum, histogram.min, histogram.max)
            return histogram.counts, histogram.count, [
                None if value is None else (type(value), np.float64(value).tobytes())
                for value in moments
            ]

        looped, batched = Histogram(), Histogram()
        for histogram in (looped, batched):
            for value in before:
                histogram.observe(value)
        for value in batch:
            looped.observe(value)
        batched.observe_many(value for value in batch)
        assert state(batched) == state(looped)

    def test_percentile_clamped_to_observed_range(self):
        histogram = Histogram()
        for value in (1e-9, 0.0, 100.0, 3.0):  # under- and overflow included
            histogram.observe(value)
        for percentile in (0, 50, 99, 100):
            assert 0.0 <= histogram.percentile(percentile) <= 100.0

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(50) == 0.0

    def test_memory_is_bounded_by_bucket_count(self):
        histogram = Histogram()
        buckets = len(histogram.counts)
        for index in range(10_000):
            histogram.observe((index % 100 + 1) * 1e-4)
        assert len(histogram.counts) == buckets
        assert histogram.count == 10_000

    def test_relative_error_bound_value(self):
        """The documented bound: consecutive bounds differ by ``g = 10 **
        (1 / per_decade)``, so ``sqrt(g) - 1`` is about 12.2% at 10 a decade."""
        histogram = Histogram(per_decade=10)
        ratios = np.divide(histogram.bounds[1:], histogram.bounds[:-1])
        assert ratios == pytest.approx(10 ** 0.1)
        assert math.sqrt(10 ** 0.1) - 1.0 < 0.13

    def test_bucket_bounds_cover_range(self):
        bounds = log_bucket_bounds(1e-6, 10.0, 10)
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] >= 10.0
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(10 ** 0.1) for r in ratios)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            log_bucket_bounds(0.0, 1.0)
        with pytest.raises(ValueError):
            log_bucket_bounds(1.0, 0.5)
        with pytest.raises(ValueError):
            Histogram().percentile(101)


# --------------------------------------------------------------------------
# Snapshot merge algebra.
# --------------------------------------------------------------------------

metric_names = st.sampled_from(["alpha_total", "beta_total", "gamma_seconds"])
label_values = st.sampled_from([{}, {"tier": "packed"}, {"tier": "rerank"}])

counter_ops = st.tuples(
    st.just("counter"), metric_names, label_values, st.integers(0, 5)
)
gauge_ops = st.tuples(
    st.just("gauge"), metric_names, label_values, st.integers(0, 100)
)
histogram_ops = st.tuples(
    st.just("histogram"), metric_names, label_values, exact_values
)
op_lists = st.lists(
    st.one_of(counter_ops, gauge_ops, histogram_ops), max_size=20
)


def build_snapshot(ops) -> dict:
    registry = MetricsRegistry()
    for kind, name, labels, value in ops:
        if kind == "counter":
            registry.counter(name + "_c", **labels).inc(value)
        elif kind == "gauge":
            registry.gauge(name + "_g", **labels).set(value)
        else:
            registry.histogram(name + "_h", **labels).observe(value)
    return registry.snapshot()


def canon(snapshot: dict) -> dict:
    """Order-independent form of a snapshot (merge order permutes the lists)."""
    return {
        kind: {
            (entry["name"], tuple(sorted(entry["labels"].items()))): {
                key: value
                for key, value in entry.items()
                if key not in ("name", "labels")
            }
            for entry in snapshot[kind]
        }
        for kind in ("counters", "gauges", "histograms")
    }


def merged(*snapshots) -> dict:
    """The snapshot of a fresh registry that merged ``snapshots`` in order."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(op_lists, op_lists, op_lists)
    def test_merge_is_associative(self, ops_a, ops_b, ops_c):
        a, b, c = build_snapshot(ops_a), build_snapshot(ops_b), build_snapshot(ops_c)
        assert canon(merged(merged(a, b), c)) == canon(merged(a, merged(b, c)))

    @settings(max_examples=60, deadline=None)
    @given(op_lists, op_lists)
    def test_merge_is_commutative(self, ops_a, ops_b):
        a, b = build_snapshot(ops_a), build_snapshot(ops_b)
        assert canon(merged(a, b)) == canon(merged(b, a))

    @settings(max_examples=60, deadline=None)
    @given(op_lists)
    def test_empty_snapshot_is_identity(self, ops):
        snapshot = build_snapshot(ops)
        assert canon(merged(snapshot, empty_snapshot())) == canon(snapshot)
        assert canon(merged(empty_snapshot(), snapshot)) == canon(snapshot)

    def test_counter_integers_survive_merge(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(3)
        (entry,) = merged(registry.snapshot(), registry.snapshot())["counters"]
        assert entry["value"] == 6
        assert isinstance(entry["value"], int)

    def test_gauges_merge_to_maximum(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.gauge("depth").set(3)
        second.gauge("depth").set(7)
        (entry,) = merged(first.snapshot(), second.snapshot())["gauges"]
        assert entry["value"] == 7

    def test_histogram_layout_mismatch_raises(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("lat").observe(0.1)
        second.histogram("lat", per_decade=5).observe(0.1)
        registry = MetricsRegistry()
        registry.merge(first.snapshot())
        with pytest.raises(ValueError, match="bucket layout"):
            registry.merge(second.snapshot())

    def test_delta_snapshots_sum_to_total(self):
        registry = MetricsRegistry()
        deltas = []
        for _ in range(4):
            registry.counter("rows_total").inc(5)
            registry.histogram("lat").observe(0.25)
            deltas.append(registry.snapshot(reset=True))
        total = merged(*deltas)
        (entry,) = total["counters"]
        assert entry["value"] == 20
        (histogram,) = total["histograms"]
        assert histogram["count"] == 4

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_snapshot_is_picklable(self):
        """A pooled map ships each worker's delta snapshot back by pickle."""
        registry = MetricsRegistry()
        registry.counter("a_total", tier="packed").inc(2)
        registry.histogram("lat").observe(0.003)
        snapshot = registry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot


# --------------------------------------------------------------------------
# Span tracing.
# --------------------------------------------------------------------------


def fake_clock():
    state = {"t": 0.0}

    def tick() -> float:
        state["t"] += 1.0
        return state["t"]

    return tick


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        recorder = SpanRecorder(clock=fake_clock())
        with recorder.span("outer", rows=3):
            with recorder.span("inner"):
                pass
        inner, outer = recorder.spans
        assert (inner.name, inner.parent, inner.depth) == ("inner", "outer", 1)
        assert (outer.name, outer.parent, outer.depth) == ("outer", None, 0)
        assert outer.attrs == {"rows": 3}
        assert outer.start < inner.start < inner.end < outer.end

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_close_order_is_postorder(self, widths):
        """Recorded order equals post-order of the span tree at any shape."""
        recorder = SpanRecorder(clock=fake_clock())
        expected: list[tuple[str, str | None, int]] = []

        def open_level(level: int, parent: str | None) -> None:
            if level >= len(widths):
                return
            for index in range(widths[level]):
                name = f"s{level}.{index}"
                with recorder.span(name):
                    open_level(level + 1, name)
                expected.append((name, parent, level))

        with recorder.span("root"):
            open_level(0, "root")
        expected.append(("root", None, 0))
        # Spans under the artificial root sit one level deeper than the
        # construction level; strip that offset for comparison.
        observed = [
            (
                record.name,
                record.parent,
                record.depth if record.name == "root" else record.depth - 1,
            )
            for record in recorder.spans
        ]
        assert observed == expected

    def test_ring_buffer_keeps_most_recent(self):
        recorder = SpanRecorder(capacity=4, clock=fake_clock())
        for index in range(10):
            with recorder.span(f"s{index}"):
                pass
        assert [record.name for record in recorder.spans] == [
            "s6", "s7", "s8", "s9",
        ]

    def test_exception_annotates_and_unwinds(self):
        recorder = SpanRecorder(clock=fake_clock())
        with pytest.raises(RuntimeError):
            with recorder.span("boom"):
                raise RuntimeError("nope")
        (record,) = recorder.spans
        assert record.attrs["error"] == "RuntimeError"
        with recorder.span("after"):
            pass
        assert recorder.spans[-1].depth == 0  # stack unwound by the failure

    def test_drain_and_extend_ship_records(self):
        recorder = SpanRecorder(clock=fake_clock())
        with recorder.span("work"):
            pass
        records = recorder.drain()
        assert len(records) == 1 and len(recorder) == 0
        other = SpanRecorder()
        other.extend(records)
        assert other.spans == tuple(records)

    def test_chrome_trace_is_valid_trace_event_json(self, tmp_path):
        recorder = SpanRecorder(clock=fake_clock())
        with recorder.span("outer"):
            with recorder.span("inner", rows=2):
                pass
        path = write_chrome_trace(recorder, tmp_path / "trace.json")
        with open(path, encoding="utf-8") as stream:
            trace = json.load(stream)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}
        for event in events:
            if event["ph"] != "X":
                continue
            assert event["ts"] >= 0 and event["dur"] > 0
            assert {"name", "pid", "tid", "args"} <= set(event)
        assert {e["name"] for e in events if e["ph"] == "X"} == {"outer", "inner"}

    def test_summary_lists_every_span_name(self):
        recorder = SpanRecorder(clock=fake_clock())
        with recorder.span("engine.score"):
            pass
        with recorder.span("scheduler.batch"):
            pass
        text = recorder.summary()
        assert "engine.score" in text and "scheduler.batch" in text
        assert SpanRecorder().summary() == "no spans recorded"

    def test_mid_span_attribute_set(self):
        recorder = SpanRecorder(clock=fake_clock())
        with recorder.span("work") as span:
            span.set(released=7)
        assert recorder.spans[0].attrs == {"released": 7}


# --------------------------------------------------------------------------
# The switchboard and the null path.
# --------------------------------------------------------------------------


class TestSwitchboard:
    def test_disabled_by_default_with_null_instruments(self):
        assert OBS.enabled is False
        assert OBS.metrics is NULL_REGISTRY
        assert OBS.recorder is NULL_RECORDER
        assert OBS.metrics.counter("x") is NULL_COUNTER
        assert OBS.metrics.gauge("x") is NULL_GAUGE
        assert OBS.metrics.histogram("x") is NULL_HISTOGRAM

    def test_null_instruments_record_nothing(self):
        NULL_COUNTER.inc(5)
        NULL_GAUGE.set(3)
        NULL_HISTOGRAM.observe(0.5)
        with NULL_RECORDER.span("nothing", rows=1) as span:
            span.set(more=2)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value is None
        assert NULL_HISTOGRAM.count == 0
        assert NULL_RECORDER.spans == ()
        assert NULL_REGISTRY.snapshot() == empty_snapshot()

    def test_reenable_keeps_the_live_registry(self):
        state = enable()
        assert state.enabled and isinstance(state.metrics, MetricsRegistry)
        state.metrics.counter("kept_total").inc()
        enable()
        assert OBS.metrics.counter("kept_total").value == 1

    def test_capture_restores_previous_state(self):
        with capture() as (registry, recorder):
            assert OBS.enabled and OBS.metrics is registry
            OBS.metrics.counter("inner_total").inc()
            with OBS.recorder.span("inner"):
                pass
            assert recorder.spans[0].name == "inner"
        assert OBS.enabled is False
        assert OBS.metrics is NULL_REGISTRY

    def test_scoped_registry_swaps_sink(self):
        with capture() as (outer_registry, _):
            scoped = MetricsRegistry()
            with scoped_registry(scoped):
                OBS.metrics.counter("routed_total").inc()
            assert scoped.counter("routed_total").value == 1
            assert outer_registry.counter("routed_total").value == 0

    def test_scoped_registry_noop_when_disabled(self):
        scoped = MetricsRegistry()
        with scoped_registry(scoped):
            assert OBS.metrics is NULL_REGISTRY

    @pytest.mark.parametrize(
        "value, expected", [("1", "True"), ("0", "False"), ("", "False")]
    )
    def test_env_switch(self, value, expected):
        code = "from repro.obs import OBS; print(OBS.enabled)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_OBS": value, "PATH": "/usr/bin:/bin"},
            cwd=".",
            check=True,
        )
        assert result.stdout.strip() == expected


class TestNoOpEquivalence:
    """Instrumented paths are bit-identical with observability on or off."""

    @pytest.mark.parametrize(
        "precision", ["float64", "bipolar-packed", "fixed16", "cascade-fixed16"]
    )
    def test_engine_scores_bit_identical(self, fitted_model, blobs_split, precision):
        _, X_test, _, _ = blobs_split
        engine_off = compile_model(fitted_model, precision=precision)
        scores_off = engine_off.decision_function(X_test)
        with capture():
            engine_on = compile_model(fitted_model, precision=precision)
            scores_on = engine_on.decision_function(X_test)
        assert np.array_equal(scores_off, scores_on)
        assert scores_off.dtype == scores_on.dtype

    def test_scheduler_predictions_bit_identical(self, fitted_model, blobs_split):
        _, X_test, _, _ = blobs_split

        def run_batch():
            engine = compile_model(fitted_model, precision="fixed16")
            scheduler = MicroBatchScheduler(engine, max_batch=8)
            for index, row in enumerate(X_test):
                scheduler.submit("s", index, row)
            return scheduler.flush()

        predictions_off = run_batch()
        with capture():
            predictions_on = run_batch()
        assert len(predictions_off) == len(predictions_on)
        for off, on in zip(predictions_off, predictions_on):
            assert off.label == on.label
            assert np.array_equal(off.scores, on.scores)

    def test_enabled_run_populates_metrics_and_spans(self, fitted_model, blobs_split):
        _, X_test, _, _ = blobs_split
        with capture() as (registry, recorder):
            engine = compile_model(fitted_model, precision="cascade-fixed16")
            engine.decision_function(X_test)
            snapshot = registry.snapshot()
        names = {entry["name"] for entry in snapshot["counters"]}
        assert "repro_engine_rows_scored_total" in names
        assert "repro_cascade_rows_total" in names
        span_names = {record.name for record in recorder.spans}
        assert {"engine.compile", "engine.score"} <= span_names


# --------------------------------------------------------------------------
# Per-object counts: the Tally base and the four Stats declarations.
# --------------------------------------------------------------------------


def unlabelled_counters(registry) -> dict:
    return {
        entry["name"]: entry["value"]
        for entry in registry.snapshot()["counters"]
        if not entry["labels"]
    }


class TestTally:
    class Sample(Tally):
        COUNTS = {
            "events": ("test_tally_events_total", "Events."),
            "kept": None,
            "items": ("test_tally_items_total", "Items."),
        }

    def test_counts_start_at_zero_in_declaration_order(self):
        sample = self.Sample()
        assert sample.as_dict() == {"events": 0, "kept": 0, "items": 0}
        assert list(sample.as_dict()) == ["events", "kept", "items"]

    def test_bump_adds_to_the_attribute_and_reset_zeroes(self):
        sample = self.Sample()
        sample.bump("events")
        sample.bump("items", 3)
        sample.bump("kept", 0.5)
        assert sample.as_dict() == {"events": 1, "kept": 0.5, "items": 3}
        assert isinstance(sample.events, int)
        sample.reset()
        assert sample.as_dict() == {"events": 0, "kept": 0, "items": 0}

    def test_bump_rejects_an_undeclared_name(self):
        sample = self.Sample()
        with pytest.raises(KeyError, match="evnts"):
            sample.bump("evnts")

    def test_declared_counts_feed_their_counters_only_while_on(self):
        sample = self.Sample()
        sample.bump("events")  # telemetry off: the object alone counts it
        with capture() as (registry, _):
            sample.bump("events", 2)
            sample.bump("kept")
            sample.reset()  # the object's counts only
            sample.bump("items")
        assert unlabelled_counters(registry) == {
            "test_tally_events_total": 2,
            "test_tally_items_total": 1,
        }
        assert registry.snapshot()["help"] == {
            "test_tally_events_total": "Events.",
            "test_tally_items_total": "Items.",
        }


class TestStatsCompat:
    def test_cascade_stats_surface(self):
        stats = CascadeStats()
        stats.record(10, 4)
        assert repr(stats) == "CascadeStats(rows_scored=10, rows_reranked=4)"
        assert stats.rerank_fraction == pytest.approx(0.4)
        stats.record(10, 1)
        assert stats.rows_scored == 20 and stats.rows_reranked == 5
        stats.reset()
        assert (stats.rows_scored, stats.rerank_fraction) == (0, 0.0)

    def test_scheduler_stats_surface(self):
        stats = SchedulerStats()
        stats.bump("windows_scored", 4)
        stats.bump("batches")
        stats.latency_histogram.observe(0.002)
        assert stats.windows_scored == 4 and stats.batches == 1
        assert isinstance(stats.windows_scored, int)
        assert stats.latency_histogram.count == 1
        p50, p99 = stats.latency_percentile(50), stats.latency_percentile(99)
        assert 0 < p50 <= p99
        assert repr(stats).startswith("SchedulerStats(windows=4, batches=1")


# --------------------------------------------------------------------------
# Every per-object count equals the process-wide counter it feeds.
# --------------------------------------------------------------------------


def assert_counts_match(registry, stats, pairs):
    counters = unlabelled_counters(registry)
    for metric, attribute in pairs:
        assert counters.get(metric, 0) == getattr(stats, attribute), metric


class _FailsOnce:
    """Scorer whose first fused call raises; later calls score zeros."""

    classes_ = np.array([0, 1])

    def __init__(self):
        self.calls = 0

    def decision_function(self, X):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("scorer down")
        return np.zeros((len(X), 2))


class TestCountsEqualTheirCounters:
    def test_cascade(self, fitted_model, blobs_split):
        _, X_test, _, _ = blobs_split
        with capture() as (registry, _):
            engine = compile_model(fitted_model, precision="cascade-fixed16")
            engine.threshold = -np.inf  # nothing reranks
            engine.decision_function(X_test)
            engine.threshold = np.inf  # every row reranks
            engine.decision_function(X_test)
        stats = engine.stats
        assert (stats.rows_scored, stats.rows_reranked) == (
            2 * len(X_test),
            len(X_test),
        )
        assert_counts_match(
            registry,
            stats,
            [
                ("repro_cascade_rows_total", "rows_scored"),
                ("repro_cascade_reranked_total", "rows_reranked"),
            ],
        )

    def test_scheduler(self):
        with capture() as (registry, _):
            scheduler = MicroBatchScheduler(
                _FailsOnce(), max_batch=2, max_wait=1e9, max_retries=0,
                max_pending=3,
            )
            for index in range(4):  # the fourth submit sheds window 0
                scheduler.submit("s", index, np.zeros(3))
            with pytest.raises(RuntimeError):
                scheduler.flush()  # windows 1 and 2 fail once: dead letters
            scheduler.flush()  # window 3 scores
        stats = scheduler.stats
        assert (
            stats.windows_shed, stats.score_failures, stats.windows_dead,
            stats.windows_scored, stats.batches,
        ) == (1, 1, 2, 1, 1)
        assert_counts_match(
            registry,
            stats,
            [
                ("repro_scheduler_windows_total", "windows_scored"),
                ("repro_scheduler_batches_total", "batches"),
                ("repro_scheduler_score_failures_total", "score_failures"),
                ("repro_scheduler_windows_shed_total", "windows_shed"),
                ("repro_scheduler_windows_dead_total", "windows_dead"),
            ],
        )

    def test_gateway(self):
        class Scorer:
            classes_ = np.array([0, 1])

            def decision_function(self, X):
                return np.asarray(X)[:, :2]

        async def serve() -> Gateway:
            service = StreamingService(
                Scorer(), n_channels=2, window_samples=8, step_samples=8,
                smoothing_window=1, max_batch=2, max_wait=1e9,
            )
            gateway = Gateway(service)
            await gateway.start()
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.open_session("s1")
                samples = np.random.default_rng(0).normal(size=(2, 24))
                await client.feed("s1", samples)  # 3 windows, one batch of 2
                await client.score("s1")  # the third
            await gateway.shutdown(2.0)
            return gateway

        with capture() as (registry, _):
            gateway = asyncio.run(serve())
        stats = gateway.stats
        assert (stats.requests, stats.windows_answered, stats.drains) == (3, 3, 1)
        assert_counts_match(
            registry,
            stats,
            [
                ("repro_gateway_requests_total", "requests"),
                ("repro_gateway_windows_answered_total", "windows_answered"),
                ("repro_gateway_windows_shed_total", "windows_shed"),
                ("repro_gateway_rejected_rate_limited_total", "rejected_rate_limited"),
                ("repro_gateway_rejected_saturated_total", "rejected_saturated"),
                ("repro_gateway_rejected_draining_total", "rejected_draining"),
                ("repro_gateway_rejected_deadline_total", "rejected_deadline"),
                ("repro_gateway_late_responses_total", "late_responses"),
                ("repro_gateway_protocol_errors_total", "protocol_errors"),
                ("repro_gateway_disconnects_total", "disconnects"),
                ("repro_gateway_handler_errors_total", "handler_errors"),
                ("repro_gateway_dead_letters_replayed_total", "dead_letters_replayed"),
                ("repro_gateway_drains_total", "drains"),
            ],
        )


# --------------------------------------------------------------------------
# The metric catalog in docs/observability.md lists every emitted name.
# --------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


def expand_groups(name: str) -> list[str]:
    """``a_{b,c}_d`` -> ``[a_b_d, a_c_d]``, for any number of groups."""
    group = re.search(r"\{([^{}]*)\}", name)
    if group is None:
        return [name]
    return [
        expanded
        for option in group.group(1).split(",")
        for expanded in expand_groups(
            name[: group.start()] + option + name[group.end() :]
        )
    ]


def catalog_names() -> set[str]:
    text = (REPO / "docs" / "observability.md").read_text()
    table = text.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
    return {
        expanded
        for line in table.splitlines()
        if line.startswith("| `repro_")
        for name in re.findall(r"`(repro_[^`]*)`", line.split("|")[1])
        for expanded in expand_groups(name)
    }


def emitted_metric_names() -> set[str]:
    """Every ``Tally`` count's metric, plus every literal instrument name.

    Non-literal names (the registry's ``f"repro_registry_{op}..."`` call
    sites, the registry's own merge) are skipped; the catalog lists the
    registry's names as ``repro_registry_{save,load}...``.
    """
    tallies = [
        cls for cls in Tally.__subclasses__() if cls.__module__.startswith("repro.")
    ]
    assert {cls.__name__ for cls in tallies} >= {
        "CascadeStats", "SchedulerStats", "GatewayStats",
    }
    names = {
        metric[0]
        for cls in tallies
        for metric in cls.COUNTS.values()
        if metric is not None
    }
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                names.add(node.args[0].value)
    return names


def test_metric_catalog_lists_every_emitted_name():
    missing = sorted(emitted_metric_names() - catalog_names())
    assert not missing, f"docs/observability.md's metric catalog lacks {missing}"


# --------------------------------------------------------------------------
# Suite telemetry parity.
# --------------------------------------------------------------------------


class TestSuiteTelemetry:
    """Acceptance: 4-worker merged snapshots equal the serial registry."""

    @staticmethod
    def counters_of(snapshot: dict) -> dict:
        return {
            (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
            for entry in snapshot["counters"]
        }

    @staticmethod
    def histogram_counts_of(snapshot: dict) -> dict:
        return {
            (entry["name"], tuple(sorted(entry["labels"].items()))): entry["count"]
            for entry in snapshot["histograms"]
        }

    @pytest.mark.slow
    def test_four_worker_merge_equals_serial(self, suite_datasets, tiny_scale):
        with capture():
            serial = run_suite(
                suite_datasets, ("OnlineHD", "BoostHD"), scale=tiny_scale, max_workers=1
            )
        with capture():
            parallel = run_suite(
                suite_datasets, ("OnlineHD", "BoostHD"), scale=tiny_scale, max_workers=4
            )
        serial_metrics = serial.report.metrics
        parallel_metrics = parallel.report.metrics
        assert serial_metrics is not None and parallel_metrics is not None
        assert self.counters_of(parallel_metrics) == self.counters_of(serial_metrics)
        # Histogram observation counts match too; only the timings differ.
        assert self.histogram_counts_of(parallel_metrics) == (
            self.histogram_counts_of(serial_metrics)
        )
        cells = self.counters_of(serial_metrics)[
            ("repro_runtime_cells_total", (("model", "BoostHD"),))
        ]
        assert cells == len(suite_datasets) * 2

    def test_serial_suite_attaches_metrics_and_folds_into_parent(
        self, suite_datasets, tiny_scale
    ):
        with capture() as (registry, recorder):
            suite = run_suite(
                suite_datasets, ("OnlineHD",), scale=dataclasses.replace(tiny_scale, n_runs=1)
            )
            parent_counters = self.counters_of(registry.snapshot())
        report_counters = self.counters_of(suite.report.metrics)
        key = ("repro_runtime_cells_total", (("model", "OnlineHD"),))
        assert report_counters[key] == len(suite_datasets)
        assert parent_counters[key] == len(suite_datasets)
        assert any(r.name == "runtime.cell" for r in recorder.spans)

    def test_disabled_suite_has_no_metrics(self, suite_datasets, tiny_scale):
        suite = run_suite(
            suite_datasets, ("OnlineHD",), scale=dataclasses.replace(tiny_scale, n_runs=1)
        )
        assert suite.report.metrics is None


# --------------------------------------------------------------------------
# Exporters.
# --------------------------------------------------------------------------


class TestExport:
    def test_prometheus_text_renders_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("rows_total", "Rows scored.", tier="packed").inc(7)
        registry.gauge("open_sessions", "Open sessions.").set(3)
        registry.histogram("latency_seconds", "Latency.").observe(0.004)
        text = prometheus_text(registry.snapshot())
        assert '# TYPE rows_total counter' in text
        assert 'rows_total{tier="packed"} 7' in text
        assert "# HELP rows_total Rows scored." in text
        assert "# TYPE open_sessions gauge" in text
        assert "open_sessions 3" in text
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_count 1" in text

    def test_prometheus_buckets_are_cumulative_and_close_at_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in (1e-5, 1e-3, 0.1, 50.0):  # includes one overflow
            histogram.observe(value)
        lines = prometheus_text(registry.snapshot()).splitlines()
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("lat_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 4  # le="+Inf" equals _count
        assert bucket_counts[-2] == 3  # the overflow value is beyond every le

    def test_prometheus_grammar(self):
        registry = MetricsRegistry()
        registry.counter("weird.name-total", kind="a b").inc()
        text = prometheus_text(registry.snapshot())
        name_ok = __import__("re").compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
        )
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert name_ok.match(line), line

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("ok_name") == "ok_name"
        assert sanitize_metric_name("engine.score") == "engine_score"
        assert sanitize_metric_name("9lives") == "_9lives"

