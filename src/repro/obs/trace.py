"""Context-manager span tracing with a bounded ring-buffer recorder.

A *span* is one timed region of interest — a fused scoring call, a cascade
rerank, a registry load, a grid cell — opened with::

    with recorder.span("engine.score", rows=len(X)):
        ...

Spans nest: each thread keeps its own stack, so a span opened inside
another records the parent's name and its depth, and the recorder's
completed-span order is *close order* (children land before their parents,
the order Chrome trace viewers expect to reconstruct flame graphs from).
Finished spans are plain frozen dataclasses — picklable, so worker
processes can ship theirs back to the parent (see
:mod:`repro.runtime.executor`) — held in a bounded ring buffer: a
long-running service keeps the most recent ``capacity`` spans and O(1)
memory, never an unbounded log.

Exporters:

* :meth:`SpanRecorder.chrome_trace` — Chrome trace-event JSON (``ph: "X"``
  complete events with microsecond timestamps); write it with
  :func:`repro.obs.export.write_chrome_trace` and load the file in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
* :meth:`SpanRecorder.summary` — a human-readable per-name table (count,
  total, mean, max) for quick terminal inspection.

:class:`NullRecorder` is the disabled-path stand-in: ``span()`` hands back
one shared no-op context manager, so tracing instrumentation behind
``OBS.enabled`` costs nothing when observability is off.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Callable, Iterable, NamedTuple

__all__ = [
    "SpanRecord",
    "SpanRecorder",
    "NullRecorder",
    "NULL_RECORDER",
]


class SpanRecord(NamedTuple):
    """One finished span: name, wall-clock interval, nesting and attributes.

    ``start`` / ``end`` are in the recorder's clock domain (default
    ``time.perf_counter`` seconds); ``attributes`` is a tuple of ``(key,
    value)`` pairs so records stay hashable and picklable.  A NamedTuple
    rather than a frozen dataclass: span close is on the instrumented hot
    path and tuple construction is several times cheaper than
    ``object.__setattr__``-based frozen-dataclass construction.
    """

    name: str
    start: float
    end: float
    depth: int
    parent: str | None
    thread: int
    pid: int
    attributes: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def attrs(self) -> dict:
        """The attributes as a dict (records store them as item tuples)."""
        return dict(self.attributes)


class _ActiveSpan:
    """Context manager for one open span (created by :meth:`SpanRecorder.span`)."""

    __slots__ = ("_recorder", "name", "_attrs", "_start")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: dict) -> None:
        self._recorder = recorder
        self.name = name
        self._attrs = attrs
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. a result count)."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        self._recorder._stack().append(self.name)
        self._start = self._recorder.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        recorder = self._recorder
        end = recorder.clock()
        stack = recorder._stack()
        stack.pop()
        attrs = self._attrs
        if exc_type is not None:
            attrs.setdefault("error", exc_type.__name__)
        recorder._record(
            SpanRecord(
                self.name,
                self._start,
                end,
                len(stack),
                stack[-1] if stack else None,
                threading.get_ident(),
                os.getpid(),
                tuple(sorted(attrs.items())) if attrs else (),
            )
        )


class _NullSpan:
    """Shared no-op span: the whole disabled tracing path."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder stand-in for the disabled path; records nothing, ever."""

    __slots__ = ()
    capacity = 0

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    @property
    def spans(self) -> tuple:
        return ()

    def drain(self) -> list:
        return []

    def extend(self, records: Iterable[SpanRecord]) -> None:
        pass

    def clear(self) -> None:
        pass


NULL_RECORDER = NullRecorder()


class SpanRecorder:
    """Bounded ring buffer of finished spans with per-thread nesting.

    Parameters
    ----------
    capacity:
        Maximum retained finished spans; older spans fall off the ring.
    clock:
        Time source (injectable for deterministic tests).  All recorded
        spans share this clock domain, so durations and orderings are
        internally consistent regardless of the source.
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.clock = clock
        self._spans: deque[SpanRecord] = deque(maxlen=self.capacity)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    # ------------------------------------------------------------- recording
    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span; use as ``with recorder.span("engine.score", rows=n):``."""
        return _ActiveSpan(self, name, attrs)

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """Finished spans, oldest first (close order)."""
        with self._lock:
            return tuple(self._spans)

    def drain(self) -> list[SpanRecord]:
        """Remove and return every finished span (worker hand-off)."""
        with self._lock:
            records = list(self._spans)
            self._spans.clear()
        return records

    def extend(self, records: Iterable[SpanRecord]) -> None:
        """Append externally produced records (e.g. shipped from a worker)."""
        with self._lock:
            self._spans.extend(records)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # ------------------------------------------------------------- exporting
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON object (loadable in Perfetto).

        Emits one complete (``ph: "X"``) event per span with microsecond
        timestamps relative to the earliest recorded span, plus process
        metadata naming the repro process.  Serialize with ``json.dump`` or
        :func:`repro.obs.export.write_chrome_trace`.
        """
        records = self.spans
        events: list[dict] = []
        if records:
            origin = min(record.start for record in records)
            for pid in sorted({record.pid for record in records}):
                events.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": f"repro pid {pid}"},
                    }
                )
            for record in records:
                events.append(
                    {
                        "ph": "X",
                        "name": record.name,
                        "cat": "repro",
                        "ts": (record.start - origin) * 1e6,
                        "dur": record.duration * 1e6,
                        "pid": record.pid,
                        "tid": record.thread,
                        "args": {key: value for key, value in record.attributes},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def summary(self) -> str:
        """Per-span-name aggregate table: count, total/mean/max seconds."""
        totals: dict[str, list[float]] = {}
        for record in self.spans:
            entry = totals.setdefault(record.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += record.duration
            entry[2] = max(entry[2], record.duration)
        if not totals:
            return "no spans recorded"
        width = max(len(name) for name in totals)
        lines = [f"{'span':<{width}}  {'count':>7}  {'total':>10}  "
                 f"{'mean':>10}  {'max':>10}"]
        for name in sorted(totals, key=lambda key: -totals[key][1]):
            count, total, worst = totals[name]
            lines.append(
                f"{name:<{width}}  {count:>7d}  {total:>9.4f}s  "
                f"{total / count:>9.6f}s  {worst:>9.6f}s"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"SpanRecorder(spans={len(self)}, capacity={self.capacity})"
