"""Failure-policy primitives: deadlines and circuit breakers.

The serving stack built by PRs 2-8 is fast but trusting: every cross-process
call waits forever, and a misbehaving dependency is hammered at full rate
until something else breaks.  This module provides the two small,
composable policies the serving fabric and gateway are built from:

* :class:`Deadline` — an absolute time budget that can be split across the
  calls it covers (``budget()`` caps each per-call timeout by what is left);
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine: consecutive failures trip the circuit, tripped circuits fail
  fast instead of re-hitting the dead dependency, and a probe is admitted
  after ``probe_interval`` to test recovery.

Both take an injectable monotonic ``clock`` so every policy decision is
unit-testable without sleeping, and neither imports the serving layer
(dependencies point ``serving -> resilience``, never back).
"""

from __future__ import annotations

import math
import time
from typing import Callable

from ..obs import OBS

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
]


class DeadlineExceeded(TimeoutError):
    """A deadline expired before the work it covered completed."""


class Deadline:
    """An absolute time budget shared by every call it is threaded through.

    A deadline is created once at the edge of an operation
    (``Deadline(0.5)``) and passed down; each layer asks :meth:`remaining`
    or :meth:`budget` for the per-call timeout it may still spend.  Unlike a
    per-call timeout, a deadline cannot be stretched by a chain of slow
    calls each individually under the limit.

    Parameters
    ----------
    seconds:
        Budget from *now*; ``math.inf`` means unbounded.
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    __slots__ = ("expires_at", "clock")

    def __init__(self, seconds: float, *, clock: Callable[[], float] = time.monotonic):
        seconds = float(seconds)
        if not seconds >= 0:
            raise ValueError(f"deadline seconds must be >= 0, got {seconds}")
        self.clock = clock
        self.expires_at = clock() + seconds

    def remaining(self) -> float:
        """Seconds left (clamped at 0.0; ``inf`` for an unbounded deadline)."""
        if math.isinf(self.expires_at):
            return math.inf
        return max(0.0, self.expires_at - self.clock())

    @property
    def expired(self) -> bool:
        """Whether the budget is spent (an unbounded deadline never is)."""
        return not math.isinf(self.expires_at) and self.remaining() == 0.0

    def budget(self, cap: float | None = None) -> float | None:
        """Per-call timeout under this deadline, optionally capped.

        Returns ``min(remaining, cap)``; ``None`` (meaning "no timeout")
        only when the deadline is unbounded *and* no cap was given.  An
        expired deadline returns ``0.0`` so the next blocking call fails
        immediately instead of hanging.
        """
        remaining = self.remaining()
        if cap is not None:
            remaining = min(remaining, float(cap))
        return None if math.isinf(remaining) else remaining

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(f"{what} exceeded its deadline")

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


#: Circuit-breaker states (plain strings so they repr/pickle trivially).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitOpenError(RuntimeError):
    """A call was refused because its circuit breaker is open.

    ``retry_in`` is the breaker's estimate of the seconds until the next
    probe will be admitted (0.0 when a probe is already due).
    """

    def __init__(self, message: str, *, retry_in: float = 0.0) -> None:
        super().__init__(message)
        self.retry_in = float(retry_in)

    def __reduce__(self):  # keep picklability across process boundaries
        return (type(self), (self.args[0],), {"retry_in": self.retry_in})

    def __setstate__(self, state):
        self.retry_in = state["retry_in"]


class CircuitBreaker:
    """Closed / open / half-open breaker guarding one unreliable dependency.

    * **closed** — calls flow; ``failure_threshold`` *consecutive* failures
      trip the breaker open (a success resets the count).
    * **open** — :meth:`allow` returns ``False`` (callers fail fast) until
      ``probe_interval`` seconds have passed, then the breaker moves to
      half-open and admits probes.
    * **half-open** — calls are admitted; one success closes the breaker,
      any failure re-opens it (restarting the probe interval).

    The breaker is a pure policy object: it never performs calls itself,
    callers consult :meth:`allow` and report outcomes via
    :meth:`record_success` / :meth:`record_failure`.  Single-threaded by
    design, like the fabric's dispatch loop that owns one per shard.
    """

    __slots__ = (
        "name",
        "failure_threshold",
        "probe_interval",
        "clock",
        "_state",
        "_failures",
        "_opened_at",
        "trips",
        "recoveries",
    )

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        probe_interval: float = 0.5,
        name: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if probe_interval < 0:
            raise ValueError(f"probe_interval must be >= 0, got {probe_interval}")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.probe_interval = float(probe_interval)
        self.clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        #: Lifetime count of closed->open transitions.
        self.trips = 0
        #: Lifetime count of half-open->closed transitions.
        self.recoveries = 0

    @property
    def state(self) -> str:
        """Current state; an expired open interval reads as half-open."""
        if self._state == OPEN and self.time_until_probe() == 0.0:
            return HALF_OPEN
        return self._state

    def time_until_probe(self) -> float:
        """Seconds until a probe is admitted (0.0 unless open and waiting)."""
        if self._state != OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.probe_interval - self.clock())

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In the open state this is where the probe-due transition happens:
        once ``probe_interval`` has elapsed the breaker moves to half-open
        and admits the call as a probe.
        """
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            if self.time_until_probe() > 0.0:
                return False
            self._state = HALF_OPEN
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_breaker_probes_total",
                    "Half-open probe calls admitted by circuit breakers.",
                ).inc()
        return True

    def record_success(self) -> None:
        """Report a successful call (closes a half-open breaker)."""
        self._failures = 0
        if self._state == HALF_OPEN:
            self._state = CLOSED
            self.recoveries += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_breaker_recoveries_total",
                    "Circuit breakers closed again after a successful probe.",
                ).inc()

    def record_failure(self) -> None:
        """Report a failed call (may trip the breaker open)."""
        if self._state == HALF_OPEN:
            self._trip()
            return
        self._failures += 1
        if self._state == CLOSED and self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self.clock()
        self._failures = 0
        self.trips += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_breaker_trips_total",
                "Circuit breakers tripped open.",
            ).inc()

    def __repr__(self) -> str:
        label = f"name={self.name!r}, " if self.name else ""
        return (
            f"CircuitBreaker({label}state={self.state!r}, "
            f"failures={self._failures}/{self.failure_threshold}, "
            f"trips={self.trips}, recoveries={self.recoveries})"
        )
