"""Process-local metrics registry: counters, gauges, log-bucket histograms.

* :class:`Counter` — a monotone accumulator.  Integer increments stay
  integers (a count renders as ``5``, never ``5.0``); fractional
  increments promote to float (summed seconds).
* :class:`Gauge` — a last-written value (queue depth, pool size).
* :class:`Histogram` — **fixed log-spaced buckets**: ``per_decade`` bucket
  boundaries per power of ten between ``lo`` and ``hi``, plus an underflow
  and an overflow bucket.  Memory is bounded by the bucket count (never by
  the observation count, unlike a deque), bucket *counts* are exact, and
  :meth:`Histogram.percentile` carries a provable relative-error bound: the
  rank statistic's true value lies in the same bucket as the estimate, so
  the geometric-midpoint estimate is off by at most a factor of
  ``sqrt(growth)`` where ``growth = 10 ** (1 / per_decade)``: a relative
  error of at most ``sqrt(growth) - 1``.
* :class:`MetricsRegistry` — named instruments, created on first use and
  cached; :meth:`MetricsRegistry.snapshot` produces a plain-dict,
  picklable snapshot, and :meth:`MetricsRegistry.merge` folds snapshots
  together **associatively and commutatively** (counters and histogram
  buckets add, gauges take the maximum, histogram min/max combine), with
  the empty snapshot as identity — which is exactly what lets per-worker
  registries ride back through :mod:`repro.runtime.executor` and fold into
  the parent in any completion order with a serial-equal result.

The null variants (:class:`NullCounter` and friends, :data:`NULL_REGISTRY`)
make the disabled path free: every method is a no-op ``pass`` on a shared
singleton, so instrumentation behind ``OBS.enabled`` costs one attribute
read when observability is off.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "empty_snapshot",
    "log_bucket_bounds",
]

#: Default histogram range: 1 microsecond to 10 seconds covers every latency
#: in the system (chunk scoring, fused calls, registry IO, grid cells).
DEFAULT_LO = 1e-6
DEFAULT_HI = 10.0
#: Ten buckets per decade: growth 10^0.1 ≈ 1.259, percentile relative error
#: bound sqrt(growth) - 1 ≈ 12.2%, 71 buckets across 7 decades.
DEFAULT_PER_DECADE = 10


def log_bucket_bounds(
    lo: float = DEFAULT_LO,
    hi: float = DEFAULT_HI,
    per_decade: int = DEFAULT_PER_DECADE,
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds from ``lo`` to at least ``hi``.

    Bounds are ``lo * growth**i`` with ``growth = 10**(1/per_decade)``,
    extended until they cover ``hi``.  The bounds are the histogram's
    ``le`` (less-or-equal) edges; values above the last bound land in the
    overflow bucket.
    """
    if lo <= 0:
        raise ValueError(f"lo must be > 0, got {lo}")
    if hi <= lo:
        raise ValueError(f"hi must be > lo, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n_buckets = math.ceil(round(per_decade * math.log10(hi / lo), 9)) + 1
    # Compute each bound from lo directly (not cumulatively) so the grid is
    # reproducible to the last bit across merges of independently created
    # histograms.
    return tuple(lo * 10.0 ** (i / per_decade) for i in range(n_buckets))


class Counter:
    """Monotone accumulator; integer increments keep an integer value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self._value!r})"


class Gauge:
    """Last-written value (None until first set)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: float | None = None

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1) -> None:
        self._value = (self._value or 0) + amount

    @property
    def value(self) -> float | None:
        return self._value

    def reset(self) -> None:
        self._value = None

    def __repr__(self) -> str:
        return f"Gauge({self._value!r})"


class Histogram:
    """Fixed log-spaced-bucket histogram with bounded-error percentiles.

    ``bounds`` are the inclusive upper edges of the interior buckets; a
    value ``v`` lands in the first bucket whose bound satisfies
    ``v <= bound`` (values ``<= bounds[0]`` share the first bucket, values
    ``> bounds[-1]`` land in the overflow bucket).  Bucket counts are exact
    integers; only the *position* of a value inside its bucket is lost,
    which is what bounds the percentile error.

    :meth:`percentile` locates the bucket containing the requested rank
    statistic and returns the geometric mean of that bucket's edges, so for
    any observation inside ``(bounds[0], bounds[-1]]`` the estimate is
    within a multiplicative factor ``sqrt(g)`` of the true rank value, where
    ``g = 10 ** (1 / per_decade)`` is the ratio between consecutive bounds:
    for a true value ``v`` in bucket ``(b/g, b]`` the estimate is
    ``b / sqrt(g)``, so the relative error is at most ``sqrt(g) - 1``.  The
    exact ``sum`` / ``count`` / ``min`` / ``max`` ride alongside for means
    and Prometheus export.
    """

    __slots__ = ("lo", "hi", "per_decade", "bounds", "counts", "sum", "count",
                 "min", "max")

    def __init__(
        self,
        *,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        per_decade: int = DEFAULT_PER_DECADE,
    ) -> None:
        self.lo = float(lo)
        self.hi = float(hi)
        self.per_decade = int(per_decade)
        self.bounds = log_bucket_bounds(lo, hi, per_decade)
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Fold one observation into the bucket counts and exact moments."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations in one tight pass.

        Equivalent to calling :meth:`observe` per value; used on per-window
        hot paths (e.g. the scheduler's queue-wait latencies) where the
        per-call method overhead would dominate the bucketing itself.
        """
        bounds = self.bounds
        counts = self.counts
        total = self.sum  # accumulate in observe()'s exact addition order
        n = 0
        low, high = self.min, self.max
        for value in values:
            counts[bisect_left(bounds, value)] += 1
            total += value
            n += 1
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
        self.sum = total
        self.count += n
        self.min = low
        self.max = high

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, percentile: float) -> float:
        """Bounded-relative-error percentile estimate (e.g. 50, 90, 99).

        Returns 0.0 on an empty histogram.  The estimate is clamped to the
        exact observed ``[min, max]``, which both tightens the edge buckets
        (underflow/overflow have no finite geometric midpoint) and keeps
        ``percentile(0) >= min`` / ``percentile(100) <= max`` exact.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {percentile}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(percentile / 100.0 * self.count))
        cumulative = 0
        bucket = len(self.counts) - 1
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                bucket = index
                break
        if bucket == 0:
            estimate = self.bounds[0]
        elif bucket >= len(self.bounds):
            estimate = self.bounds[-1]
        else:
            estimate = math.sqrt(self.bounds[bucket - 1] * self.bounds[bucket])
        return min(max(estimate, self.min), self.max)

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = None
        self.max = None

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, mean={self.mean:.6g}, "
            f"p50={self.percentile(50):.6g}, p99={self.percentile(99):.6g}, "
            f"buckets={len(self.counts)})"
        )


# --------------------------------------------------------------------------
# Null instruments: shared singletons whose every method is a no-op, so the
# disabled path costs an attribute read and a vacuous call at most.
# --------------------------------------------------------------------------


class NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: float = 1) -> None:
        pass

    def reset(self) -> None:
        pass


class NullGauge:
    __slots__ = ()
    value = None

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def reset(self) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def percentile(self, percentile: float) -> float:
        return 0.0

    def reset(self) -> None:
        pass


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry stand-in for the disabled path: hands out null singletons."""

    __slots__ = ()

    def counter(self, name: str, help: str = "", **labels: str) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, help: str = "", **labels: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, help: str = "", **options) -> NullHistogram:
        return NULL_HISTOGRAM

    def snapshot(self, *, reset: bool = False) -> dict:
        return empty_snapshot()

    def merge(self, snapshot: Mapping) -> None:
        pass


NULL_REGISTRY = NullRegistry()


# --------------------------------------------------------------------------
# The registry.
# --------------------------------------------------------------------------


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    if not labels:  # hot path: most instruments are unlabelled
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labelled instruments for one process.

    Instruments are created on first request and cached by
    ``(name, labels)``; requesting an existing name with a different
    instrument kind raises, so a metric can never silently change type.
    The registry is the unit of cross-process aggregation: workers
    :meth:`snapshot` theirs (optionally resetting, to produce deltas) and
    the parent :meth:`merge`\\ s the snapshots in any order.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------ instruments
    def _check_kind(self, name: str, kind: str) -> None:
        for registered_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if registered_kind != kind and any(key[0] == name for key in table):
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{registered_kind}, cannot re-register as a {kind}"
                )

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            self._check_kind(name, "counter")
            instrument = self._counters[key] = Counter()
            if help:
                self._help.setdefault(name, help)
        return instrument

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            self._check_kind(name, "gauge")
            instrument = self._gauges[key] = Gauge()
            if help:
                self._help.setdefault(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        per_decade: int = DEFAULT_PER_DECADE,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            self._check_kind(name, "histogram")
            instrument = self._histograms[key] = Histogram(
                lo=lo, hi=hi, per_decade=per_decade
            )
            if help:
                self._help.setdefault(name, help)
        return instrument

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -------------------------------------------------------------- snapshots
    def snapshot(self, *, reset: bool = False) -> dict:
        """Plain-dict (picklable, JSON-serializable) copy of every instrument.

        With ``reset=True`` the registry's instruments are zeroed after the
        copy, so consecutive snapshots are *deltas* — the form worker
        processes ship back, since deltas from any partition of the work
        merge to the serial total.
        """
        snapshot = {
            "counters": [
                {"name": name, "labels": dict(labels), "value": counter.value}
                for (name, labels), counter in self._counters.items()
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": gauge.value}
                for (name, labels), gauge in self._gauges.items()
                if gauge.value is not None
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "lo": histogram.lo,
                    "hi": histogram.hi,
                    "per_decade": histogram.per_decade,
                    "counts": list(histogram.counts),
                    "sum": histogram.sum,
                    "count": histogram.count,
                    "min": histogram.min,
                    "max": histogram.max,
                }
                for (name, labels), histogram in self._histograms.items()
            ],
            "help": dict(self._help),
        }
        if reset:
            for counter in self._counters.values():
                counter.reset()
            for gauge in self._gauges.values():
                gauge.reset()
            for histogram in self._histograms.values():
                histogram.reset()
        return snapshot

    def merge(self, snapshot: Mapping) -> None:
        """Fold one snapshot into this registry.

        Associative and commutative, with :func:`empty_snapshot` as
        identity: counters and histogram bucket counts/sums add, gauges take
        the maximum (the one reduction of last-written values that is
        order-independent) and histogram min/max combine.  Histograms under
        the same name must share a bucket layout — the layouts are part of
        the instrument's identity.
        """
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **entry.get("labels", {})).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            value = entry["value"]
            if value is None:
                continue
            gauge = self.gauge(entry["name"], **entry.get("labels", {}))
            if gauge.value is None or value > gauge.value:
                gauge.set(value)
        for entry in snapshot.get("histograms", ()):
            histogram = self.histogram(
                entry["name"],
                lo=entry["lo"],
                hi=entry["hi"],
                per_decade=entry["per_decade"],
                **entry.get("labels", {}),
            )
            if (
                histogram.lo != entry["lo"]
                or histogram.hi != entry["hi"]
                or histogram.per_decade != entry["per_decade"]
            ):
                raise ValueError(
                    f"histogram {entry['name']!r} bucket layout mismatch: "
                    f"registry has (lo={histogram.lo}, hi={histogram.hi}, "
                    f"per_decade={histogram.per_decade}), snapshot has "
                    f"(lo={entry['lo']}, hi={entry['hi']}, "
                    f"per_decade={entry['per_decade']})"
                )
            for index, count in enumerate(entry["counts"]):
                histogram.counts[index] += count
            histogram.sum += entry["sum"]
            histogram.count += entry["count"]
            for bound_name in ("min", "max"):
                value = entry[bound_name]
                if value is None:
                    continue
                current = getattr(histogram, bound_name)
                if current is None:
                    setattr(histogram, bound_name, value)
                elif bound_name == "min":
                    histogram.min = min(current, value)
                else:
                    histogram.max = max(current, value)
        self._help.update(snapshot.get("help", {}))

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def empty_snapshot() -> dict:
    """The identity element of :meth:`MetricsRegistry.merge`."""
    return {"counters": [], "gauges": [], "histograms": [], "help": {}}

