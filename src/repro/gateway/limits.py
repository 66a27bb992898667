"""Admission-control primitives: token buckets and a concurrency limiter.

The gateway sheds overload *before* it reaches the scheduler, with explicit
signals (HTTP 429/503 + ``Retry-After``) rather than queue growth:

* :class:`TokenBucket` — the classic refill bucket.  ``try_acquire`` either
  grants immediately or returns the exact wait until enough tokens refill,
  which becomes the ``Retry-After`` header.  Time comes from an injectable
  monotonic clock, so the bucket is a *pure* function of its call sequence
  — the hypothesis suite in ``tests/test_gateway.py`` proves the rate is
  never exceeded over any window under arbitrary interleavings.
* :class:`RateLimiter` — per-client buckets keyed by an opaque client id
  (header or peer address), with LRU eviction so a churn of one-shot
  clients cannot grow memory without bound.
* :class:`ConcurrencyLimiter` — a global in-flight bound.  The gateway runs
  on one event loop, so this is a plain counter, not a semaphore: requests
  beyond the bound are *rejected*, never queued — queueing at the edge is
  exactly the silent latency growth the gateway exists to prevent.

None of these import asyncio or the serving layer; they are policy objects
in the :mod:`repro.resilience` style (dependencies point gateway ->
resilience, never back).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable

__all__ = ["ConcurrencyLimiter", "RateLimiter", "TokenBucket"]


#: Client buckets a :class:`RateLimiter` keeps before evicting the least
#: recently used.
_MAX_CLIENTS = 4096


def _rate(rate: float) -> float:
    """``rate`` as a float, or :exc:`ValueError` for a bucket that could
    never refill."""
    if not rate > 0:  # NaN fails this too
        raise ValueError(f"rate must be > 0, got {rate}")
    return float(rate)


def _burst(burst: float) -> float:
    """``burst`` as a float, or :exc:`ValueError` for a bucket that could
    never grant a request."""
    if not burst >= 1:  # NaN fails this too
        raise ValueError(f"burst must be >= 1, got {burst}")
    return float(burst)


class TokenBucket:
    """Token bucket: sustained ``rate`` tokens/s with bursts up to ``burst``.

    The bucket starts full.  Refill is computed lazily from elapsed clock
    time (no background task), and the token count is capped at ``burst``
    — an idle client never accumulates more than one burst of credit.

    Parameters
    ----------
    rate:
        Sustained refill rate, tokens per second (> 0).
    burst:
        Bucket capacity — the maximum instantaneous grant (>= 1).
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "clock")

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate, self.burst = _rate(rate), _burst(burst)
        self.clock = clock
        self._tokens = self.burst
        self._updated = clock()

    def try_acquire(self) -> float:
        """Take one token if available; return the retry-after otherwise.

        Returns ``0.0`` on success.  A positive return is the exact time
        until one token will have refilled — tokens are *not* consumed on
        failure, so a rejected client that waits the advertised interval is
        guaranteed admission (absent competing traffic).
        """
        now = self.clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


class RateLimiter:
    """Per-client :class:`TokenBucket` map with bounded memory.

    Buckets are created on first sight of a client key and evicted
    least-recently-used beyond ``_MAX_CLIENTS`` (4,096).  Eviction forgets a
    client's *spent* tokens (a returning evicted client starts with a full
    bucket); with the bound above the live client population this never
    fires, and when it does the failure mode is permissive rather than
    lockout.  A ``rate`` or ``burst`` no bucket could grant with raises
    :exc:`ValueError` here, not on the first request.
    """

    __slots__ = ("rate", "burst", "clock", "_buckets")

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate, self.burst = _rate(rate), _burst(burst)
        self.clock = clock
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    def __len__(self) -> int:
        return len(self._buckets)

    def bucket(self, client: str) -> TokenBucket:
        """The client's bucket (created full on first sight; LRU-touched)."""
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, clock=self.clock)
            self._buckets[client] = bucket
            while len(self._buckets) > _MAX_CLIENTS:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client)
        return bucket

    def try_acquire(self, client: str) -> float:
        """Per-client admission: ``0.0`` granted, else seconds to retry."""
        return self.bucket(client).try_acquire()


class ConcurrencyLimiter:
    """Global in-flight request bound: admit or reject, never queue.

    ``acquire`` / ``release`` are called from the single event loop, so a
    plain counter is race-free.
    """

    __slots__ = ("limit", "in_flight")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = int(limit)
        self.in_flight = 0

    def acquire(self) -> bool:
        """Admit one request, or refuse at the bound."""
        if self.in_flight >= self.limit:
            return False
        self.in_flight += 1
        return True

    def release(self) -> None:
        if self.in_flight <= 0:
            raise RuntimeError("release() without a matching acquire()")
        self.in_flight -= 1

    @property
    def saturation(self) -> float:
        """Current in-flight count as a fraction of the limit."""
        return self.in_flight / self.limit

    def __repr__(self) -> str:
        return f"ConcurrencyLimiter(in_flight={self.in_flight}/{self.limit})"
