"""Production failure semantics for the serving stack.

PRs 2-8 made the stack *fast* (fused engines, quantized tiers,
micro-batching, the multi-process fabric); this subpackage makes it
*survive*: deadlines and timeouts so nothing blocks forever, per-shard
circuit breakers, bounded admission queues with an explicit shed policy,
end-to-end artifact integrity checks — and a seeded chaos harness so every
one of those recovery paths is exercised reproducibly in tests rather than
discovered in production.

Layout:

* :mod:`repro.resilience.policy` — :class:`Deadline` and
  :class:`CircuitBreaker` (closed/open/half-open);
* :mod:`repro.resilience.chaos` — :class:`FaultPlan` / :class:`FaultSpec`,
  the :data:`CHAOS` switchboard and its named injection points, activated
  explicitly or via ``REPRO_CHAOS`` (off by default).

The house invariant, enforced by ``tests/test_resilience.py`` and
``benchmarks/bench_resilience.py``: with no fault installed and no pressure
building, every instrumented path produces bit-identical predictions to the
pre-resilience stack, at < 2% overhead; under faults, no window is ever
lost or double-scored — windows are scored, explicitly shed, or explicitly
dead-lettered, and the three counts reconcile exactly.
"""

from .chaos import (
    CHAOS,
    CHAOS_ENV,
    ChaosState,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    corrupt_bytes,
    inject,
    install,
    uninstall,
)
from .policy import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
)

__all__ = [
    "CHAOS",
    "CHAOS_ENV",
    "CLOSED",
    "ChaosState",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "HALF_OPEN",
    "OPEN",
    "corrupt_bytes",
    "inject",
    "install",
    "uninstall",
]
