"""The hardened async network edge over the serving stack.

``repro.gateway`` turns the in-process serving APIs
(:class:`~repro.serving.StreamingService`, multi-process
:class:`~repro.serving.ServingFabric`) into a network service — one asyncio
event loop speaking HTTP/1.1 to any number of concurrent clients, built on
nothing but the stdlib (tier-1 stays hermetic).

Layout:

* :mod:`repro.gateway.http` — the wire protocol: pure, property-tested
  HTTP parsing with hard input bounds;
* :mod:`repro.gateway.limits` — admission control: per-client token
  buckets, LRU client maps, the global in-flight bound;
* :mod:`repro.gateway.app` — :class:`Gateway` itself: routing, deadline
  propagation, delivery mailboxes, readiness probes, graceful drain;
* :mod:`repro.gateway.client` — the stdlib client (and its impolite
  chaos-testing modes) used by tests, benches and examples.

House invariants, enforced by ``tests/test_gateway.py`` and
``benchmarks/bench_gateway.py``: overload is refused explicitly (429/503 +
``Retry-After``), never queued; every accepted window is answered exactly
once — scored, explicitly shed, or dead-lettered — including across a
SIGTERM drain; and predictions served through the gateway are bit-identical
to in-process serving.

Run a standalone demo gateway with ``python -m repro.gateway``.
"""

from .app import DEADLINE_HEADER, Gateway, GatewayStats
from .client import GatewayClient
from .http import (
    ProtocolError,
    Request,
    json_response,
    parse_request_head,
    response_bytes,
)
from .limits import ConcurrencyLimiter, RateLimiter, TokenBucket

__all__ = [
    "ConcurrencyLimiter",
    "DEADLINE_HEADER",
    "Gateway",
    "GatewayClient",
    "GatewayStats",
    "ProtocolError",
    "RateLimiter",
    "Request",
    "TokenBucket",
    "json_response",
    "parse_request_head",
    "response_bytes",
]
