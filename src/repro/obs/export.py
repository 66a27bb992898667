"""Exporters: Prometheus text exposition and Chrome traces.

The in-process registry (:mod:`repro.obs.metrics`) and span recorder
(:mod:`repro.obs.trace`) hold telemetry in memory; this module renders
them into the two interchange formats operators actually consume:

* :func:`prometheus_text` — the Prometheus text exposition format
  (version 0.0.4), the body a future HTTP ``/metrics`` endpoint returns.
  Counters map to ``_total``-suffixed counters, gauges to gauges, and
  histograms to the standard ``_bucket{le=...}`` cumulative series plus
  ``_sum`` / ``_count``.  Metric and label names are sanitised to the
  Prometheus grammar (``[a-zA-Z_:][a-zA-Z0-9_:]*``), so dotted span-style
  names survive the trip.
* :func:`write_chrome_trace` — serialize a recorder's Chrome trace-event
  object to a file loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Mapping

from .metrics import log_bucket_bounds
from .trace import SpanRecorder

__all__ = [
    "prometheus_text",
    "sanitize_metric_name",
    "write_chrome_trace",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary metric name into the Prometheus grammar."""
    if _NAME_OK.match(name):
        return name
    sanitized = _NAME_BAD_CHARS.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr, inf/nan named."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{_LABEL_BAD_CHARS.sub("_", str(key))}="{_escape(str(value))}"'
        for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prometheus_text(snapshot: Mapping) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Accepts the plain-dict snapshot of
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot`.  Series of the
    same metric are grouped under one ``# TYPE`` header; histogram buckets
    are cumulative with a closing ``le="+Inf"`` bucket equal to ``_count``,
    as the exposition format requires.
    """
    help_texts = snapshot.get("help", {})
    lines: list[str] = []

    def _header(name: str, kind: str, source_name: str) -> None:
        help_text = help_texts.get(source_name)
        if help_text:
            lines.append(f"# HELP {name} {_escape(help_text)}")
        lines.append(f"# TYPE {name} {kind}")

    by_name: dict[str, list[dict]] = {}
    for entry in snapshot.get("counters", ()):
        by_name.setdefault(entry["name"], []).append(entry)
    for source_name in sorted(by_name):
        name = sanitize_metric_name(source_name)
        _header(name, "counter", source_name)
        for entry in by_name[source_name]:
            labels = _format_labels(entry.get("labels", {}))
            lines.append(f"{name}{labels} {_format_value(entry['value'])}")

    by_name = {}
    for entry in snapshot.get("gauges", ()):
        by_name.setdefault(entry["name"], []).append(entry)
    for source_name in sorted(by_name):
        name = sanitize_metric_name(source_name)
        _header(name, "gauge", source_name)
        for entry in by_name[source_name]:
            if entry["value"] is None:
                continue
            labels = _format_labels(entry.get("labels", {}))
            lines.append(f"{name}{labels} {_format_value(entry['value'])}")

    by_name = {}
    for entry in snapshot.get("histograms", ()):
        by_name.setdefault(entry["name"], []).append(entry)
    for source_name in sorted(by_name):
        name = sanitize_metric_name(source_name)
        _header(name, "histogram", source_name)
        for entry in by_name[source_name]:
            base_labels = entry.get("labels", {})
            bounds = log_bucket_bounds(
                entry["lo"], entry["hi"], entry["per_decade"]
            )
            cumulative = 0
            for bound, count in zip(bounds, entry["counts"]):
                cumulative += count
                labels = _format_labels(
                    base_labels, extra=f'le="{_format_value(float(bound))}"'
                )
                lines.append(f"{name}_bucket{labels} {cumulative}")
            labels = _format_labels(base_labels, extra='le="+Inf"')
            lines.append(f"{name}_bucket{labels} {entry['count']}")
            labels = _format_labels(base_labels)
            lines.append(f"{name}_sum{labels} {_format_value(entry['sum'])}")
            lines.append(f"{name}_count{labels} {entry['count']}")

    return "\n".join(lines) + "\n" if lines else ""


def write_chrome_trace(recorder: SpanRecorder, path: str | os.PathLike) -> str:
    """Write a recorder's spans as Chrome trace-event JSON; return the path.

    Load the resulting file in Perfetto (https://ui.perfetto.dev, "Open
    trace file") or ``chrome://tracing`` to see the span flame graph.
    """
    trace = recorder.chrome_trace()
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(trace, stream)
    return os.fspath(path)
