"""Unified telemetry: metrics registry, span tracing, exporters.

Every hot layer of the system — the fused engine, the cascade, the
micro-batch scheduler, the model registry, the parallel runtime —
instruments itself through one process-wide switchboard, :data:`OBS`:

.. code-block:: python

    from repro.obs import OBS

    if OBS.enabled:                                   # one attribute read
        OBS.metrics.counter("repro_engine_rows_scored_total").inc(n)
        with OBS.recorder.span("engine.score", rows=n):
            ...

Observability is **off by default**: ``OBS.enabled`` is ``False``,
``OBS.metrics`` is the shared :data:`~repro.obs.metrics.NULL_REGISTRY`
and ``OBS.recorder`` the shared
:data:`~repro.obs.trace.NULL_RECORDER`, so the disabled path is a no-op
attribute read — ``benchmarks/bench_obs.py`` enforces that the *enabled*
path costs < 2% on the serving micro-batch contract, and the disabled
path is cheaper still.  Instrumentation never touches the numbers being
computed, so predictions are bit-identical with observability on or off
(also enforced by the bench and ``tests/test_obs.py``).

Switching on:

* ``REPRO_OBS=1`` in the environment enables telemetry at import time
  (``0`` / unset / empty keeps it off);
* :func:`enable` turns it on at runtime;
* :func:`capture` is the scoped form — enable with a fresh registry and
  recorder, yield them, restore the previous state on exit (what tests,
  benchmarks and the example use).

Layout: :mod:`repro.obs.metrics` (counters / gauges / log-bucket
histograms, snapshots, associative merge), :mod:`repro.obs.trace`
(nested context-manager spans, ring-buffer recorder, Chrome trace
export), :mod:`repro.obs.export` (Prometheus text exposition, trace
files).  Objects that keep counts of their own (the cascade, the
scheduler, the gateway) declare them on :class:`Tally`, whose one
:meth:`Tally.bump` call also feeds each count's process-wide counter.  The metric catalog instrumented across the
codebase is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .export import prometheus_text, sanitize_metric_name, write_chrome_trace
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    empty_snapshot,
    log_bucket_bounds,
)
from .trace import NULL_RECORDER, NullRecorder, SpanRecord, SpanRecorder

__all__ = [
    "OBS",
    "ObsState",
    "Tally",
    "enable",
    "capture",
    "scoped_registry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "empty_snapshot",
    "log_bucket_bounds",
    "SpanRecord",
    "SpanRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "prometheus_text",
    "sanitize_metric_name",
    "write_chrome_trace",
]

#: Environment switch consulted once at import: ``REPRO_OBS=1`` enables.
OBS_ENV = "REPRO_OBS"


class ObsState:
    """The process-wide observability switchboard (singleton :data:`OBS`).

    ``enabled`` is the hot-path guard; ``metrics`` and ``recorder`` always
    hold *usable* objects (real or null), so un-guarded instrumentation is
    merely cheap rather than broken.
    """

    __slots__ = ("enabled", "metrics", "recorder")

    def __init__(self) -> None:
        self.enabled = False
        self.metrics: MetricsRegistry | NullRegistry = NULL_REGISTRY
        self.recorder: SpanRecorder | NullRecorder = NULL_RECORDER

    def __repr__(self) -> str:
        return (
            f"ObsState(enabled={self.enabled}, metrics={self.metrics!r}, "
            f"recorder={self.recorder!r})"
        )


OBS = ObsState()


class Tally:
    """Named counts kept on one object, each also feeding a ``repro_*`` counter.

    A subclass declares ``COUNTS``: attribute name → ``(metric name, help)``
    of the process-wide counter the count feeds, or ``None`` for a count
    kept only on the object.  Each count is a plain attribute, starting at
    zero; :meth:`bump` adds to it and, while telemetry is on, to its counter
    — so each event is counted by one call, and each metric name is
    written once, in the declaration.
    """

    COUNTS: dict[str, tuple[str, str] | None] = {}

    def __init__(self) -> None:
        self.reset()

    def bump(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the count ``name`` (and to its counter when on).

        An undeclared ``name`` raises :class:`KeyError`.
        """
        metric = self.COUNTS[name]
        setattr(self, name, getattr(self, name) + amount)
        if metric is not None and OBS.enabled:
            OBS.metrics.counter(*metric).inc(amount)

    def reset(self) -> None:
        """Zero every declared count (the process-wide counters keep theirs)."""
        for name in self.COUNTS:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        """The declared counts, in declaration order."""
        return {name: getattr(self, name) for name in self.COUNTS}


def enable(
    registry: MetricsRegistry | None = None,
    recorder: SpanRecorder | None = None,
) -> ObsState:
    """Turn telemetry on, installing (or creating) a registry and recorder.

    Re-enabling with no arguments keeps existing live instances, so
    repeated ``enable()`` calls never drop accumulated telemetry.
    """
    if registry is not None:
        OBS.metrics = registry
    elif not isinstance(OBS.metrics, MetricsRegistry):
        OBS.metrics = MetricsRegistry()
    if recorder is not None:
        OBS.recorder = recorder
    elif not isinstance(OBS.recorder, SpanRecorder):
        OBS.recorder = SpanRecorder()
    OBS.enabled = True
    return OBS


@contextmanager
def capture():
    """Scoped telemetry: enable with fresh state, yield ``(registry, recorder)``.

    Restores the previous enabled/registry/recorder state on exit, so
    nested captures and interleaved tests never observe each other.
    """
    previous = (OBS.enabled, OBS.metrics, OBS.recorder)
    registry, recorder = MetricsRegistry(), SpanRecorder()
    enable(registry, recorder)
    try:
        yield registry, recorder
    finally:
        OBS.enabled, OBS.metrics, OBS.recorder = previous


@contextmanager
def scoped_registry(registry: MetricsRegistry):
    """Swap in ``registry`` as the live metrics sink for the block.

    ``run_suite`` uses it to give one suite run its own registry — cells
    record into it in-process, and a pooled map folds its workers' deltas
    into it — then merges it into the surrounding registry afterwards.  The
    recorder and enabled flag are untouched; a no-op when telemetry is
    disabled.
    """
    if not OBS.enabled:
        yield registry
        return
    previous = OBS.metrics
    OBS.metrics = registry
    try:
        yield registry
    finally:
        OBS.metrics = previous


def _env_enabled() -> bool:
    value = os.environ.get(OBS_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


if _env_enabled():  # pragma: no cover - exercised via subprocess in tests
    enable()
