"""Deterministic fault injection: seeded chaos for testable recovery paths.

Every recovery path in the serving stack — worker rebuilds, breaker trips,
scheduler retries, shm integrity refusals, registry torn-write detection —
must be exercisable *on demand*, or it is untested code that only runs
during real outages.  This module provides the switchboard the instrumented
call sites consult:

.. code-block:: python

    from repro.resilience.chaos import CHAOS

    if CHAOS.enabled:
        CHAOS.hit("scheduler.score", batch=len(batch))   # may raise / sleep

A :class:`FaultPlan` is a *seeded, declarative* list of :class:`FaultSpec`
entries.  Which hit of an injection point fires is a pure function of the
plan (via ``at`` hit indices, or a per-spec RNG derived from the plan seed
for probabilistic faults), so a chaos test reproduces the same fault
sequence every run — chaos here means injected faults, never randomness in
the test outcome.

Named injection points wired through the stack (see ``docs/resilience.md``):

==========================  ====================================================
``fabric.worker.call``      inside every fabric worker call; context
                            ``method`` / ``shard`` (kinds: ``delay`` = hung
                            worker, ``sigkill`` = crashed worker)
``scheduler.score``         before the fused scoring call (kinds:
                            ``exception``, ``delay``)
``shm.publish``             after a segment's arrays and checksums are
                            written (kind: ``corrupt`` — flip bits so the
                            attach-side verification must refuse)
``registry.save``           between staging fsync and the atomic rename
                            (kinds: ``torn`` — truncate the staged archive,
                            ``exception`` — crash before publication)
``gateway.read``            before each HTTP request read at the network
                            edge; context ``client`` (kinds: ``delay`` =
                            stalled slow-writing client, ``exception`` =
                            transport failure mid-stream — the disconnect
                            path)
``gateway.request``         inside HTTP request handling, after admission;
                            context ``path`` (kinds: ``exception`` = handler
                            crash -> 500 with no accepted-window loss,
                            ``delay`` = slow handler)
==========================  ====================================================

Activation is explicit and **off by default**: install a plan with
:func:`install` / the scoped :func:`inject`, or export ``REPRO_CHAOS`` as
the plan's JSON (the serving fabric forwards the active plan to its worker
processes).  ``tests/test_resilience.py`` asserts in a subprocess that a
bare interpreter has chaos disabled.
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..obs import OBS

__all__ = [
    "CHAOS",
    "CHAOS_ENV",
    "ChaosState",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "corrupt_bytes",
    "inject",
    "install",
    "uninstall",
]

#: Environment variable holding a JSON-serialized :class:`FaultPlan`.
CHAOS_ENV = "REPRO_CHAOS"

#: Fault kinds applied by :meth:`ChaosState.hit` itself.
_APPLIED_KINDS = ("exception", "delay", "sigkill")
#: Fault kinds returned to the call site, which owns the mechanics.
_RETURNED_KINDS = ("corrupt", "torn")
KINDS = _APPLIED_KINDS + _RETURNED_KINDS


class FaultInjected(RuntimeError):
    """The exception raised by ``kind="exception"`` faults.

    Deliberately a plain ``RuntimeError`` subclass: recovery code must treat
    it like any other scoring/transport failure, never special-case it.
    """

    def __init__(self, point: str, message: str = "") -> None:
        super().__init__(message or f"chaos fault injected at {point!r}")
        self.point = point

    def __reduce__(self):  # picklable across fabric worker boundaries
        return (type(self), (self.point, self.args[0]))


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault at one injection point.

    Parameters
    ----------
    point:
        Injection-point name (e.g. ``"scheduler.score"``).
    kind:
        One of :data:`KINDS`.
    at:
        1-based matching-hit indices at which the fault fires
        deterministically (e.g. ``(3,)`` = the third matching hit).
    probability:
        Per-hit Bernoulli fire probability, drawn from a per-spec RNG
        seeded by ``(plan.seed, spec index)`` — deterministic given the hit
        sequence.  Combine with ``at`` freely; either trigger fires.
    delay:
        Sleep duration for ``kind="delay"`` faults, seconds.
    match:
        Context-equality filters as a tuple of ``(key, value)`` pairs; a
        hit only counts (and can only fire) when every pair matches the
        ``hit()`` keyword context (e.g. ``(("shard", 0),)``).
    limit:
        Maximum number of fires (``None`` = unlimited).
    message:
        Optional message for injected exceptions.
    """

    point: str
    kind: str
    at: tuple[int, ...] = ()
    probability: float | None = None
    delay: float = 0.0
    match: tuple[tuple[str, object], ...] = ()
    limit: int | None = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; available: {KINDS}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not self.at and self.probability is None:
            raise ValueError(
                f"fault at {self.point!r} can never fire: give `at` hit "
                "indices and/or a `probability`"
            )
        object.__setattr__(self, "at", tuple(int(index) for index in self.at))
        object.__setattr__(
            self, "match", tuple((str(k), v) for k, v in dict(self.match).items())
        )

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "kind": self.kind,
            "at": list(self.at),
            "probability": self.probability,
            "delay": self.delay,
            "match": {key: value for key, value in self.match},
            "limit": self.limit,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        data = dict(data)
        match = data.pop("match", {}) or {}
        return cls(
            point=data["point"],
            kind=data["kind"],
            at=tuple(data.get("at") or ()),
            probability=data.get("probability"),
            delay=float(data.get("delay", 0.0)),
            match=tuple(match.items()),
            limit=data.get("limit"),
            message=data.get("message", ""),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded list of faults — the unit of chaos (de)serialization.

    Equality, JSON round-tripping, and the derived per-spec RNG streams are
    all pure functions of ``(seed, faults)``: installing the same plan in
    two processes injects the same faults at the same matching hits.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        specs = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in self.faults
        )
        object.__setattr__(self, "faults", specs)
        object.__setattr__(self, "seed", int(self.seed))

    def rng(self, index: int) -> np.random.Generator:
        """The RNG stream of fault ``index`` — independent of other specs."""
        return np.random.default_rng([int(self.seed), int(index)])

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [spec.to_dict() for spec in self.faults]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            seed=int(data.get("seed", 0)),
            faults=tuple(
                FaultSpec.from_dict(entry) for entry in data.get("faults", ())
            ),
        )


def corrupt_bytes(
    buffer, rng: np.random.Generator, *, n_bytes: int = 4
) -> tuple[int, ...]:
    """Flip ``n_bytes`` random bytes of a writable buffer, in place.

    The corruption helper used by ``kind="corrupt"`` call sites (and tests):
    offsets come from the spec's seeded RNG, so the damage is reproducible.
    Returns the flipped offsets.
    """
    view = memoryview(buffer)
    if len(view) == 0:
        return ()
    offsets = tuple(
        int(offset) for offset in rng.integers(0, len(view), size=int(n_bytes))
    )
    for offset in offsets:
        view[offset] ^= 0xFF
    return offsets


class ChaosState:
    """Process-wide chaos switchboard (singleton :data:`CHAOS`).

    Mirrors :data:`repro.obs.OBS`: ``enabled`` is the hot-path guard, and
    everything else only exists while a plan is installed.  Per-spec hit and
    fire counters live here (not on the frozen specs), so the same plan
    object can be installed in many processes independently.
    """

    __slots__ = ("enabled", "plan", "_hits", "_fired", "_rngs")

    def __init__(self) -> None:
        self.enabled = False
        self.plan: FaultPlan | None = None
        self._hits: list[int] = []
        self._fired: list[int] = []
        self._rngs: list[np.random.Generator] = []

    def install(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._hits = [0] * len(plan.faults)
        self._fired = [0] * len(plan.faults)
        self._rngs = [plan.rng(index) for index in range(len(plan.faults))]
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        self.plan = None
        self._hits = []
        self._fired = []
        self._rngs = []

    def fired(self, point: str | None = None) -> int:
        """Total faults fired (optionally restricted to one point)."""
        if self.plan is None:
            return 0
        return sum(
            count
            for spec, count in zip(self.plan.faults, self._fired)
            if point is None or spec.point == point
        )

    def hit(self, point: str, **context) -> FaultSpec | None:
        """Account one pass through an injection point; maybe inject.

        ``exception`` / ``delay`` / ``sigkill`` faults are applied here;
        ``corrupt`` / ``torn`` specs are *returned* so the call site (which
        owns the buffer or file) applies the damage — use :meth:`spec_rng`
        for its deterministic randomness.  Returns ``None`` when nothing
        fired.
        """
        if not self.enabled or self.plan is None:
            return None
        returned: FaultSpec | None = None
        for index, spec in enumerate(self.plan.faults):
            if spec.point != point:
                continue
            if any(context.get(key) != value for key, value in spec.match):
                continue
            self._hits[index] += 1
            if spec.limit is not None and self._fired[index] >= spec.limit:
                continue
            fire = self._hits[index] in spec.at
            if not fire and spec.probability is not None:
                fire = bool(self._rngs[index].random() < spec.probability)
            if not fire:
                continue
            self._fired[index] += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_chaos_faults_fired_total",
                    "Faults fired by the chaos injection harness.",
                ).inc()
            if spec.kind == "delay":
                time.sleep(spec.delay)
            elif spec.kind == "exception":
                raise FaultInjected(point, spec.message)
            elif spec.kind == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            else:
                returned = spec if returned is None else returned
        return returned

    def spec_rng(self, spec: FaultSpec) -> np.random.Generator:
        """The live RNG stream of an installed spec (for ``corrupt`` sites)."""
        if self.plan is None:
            raise RuntimeError("no fault plan installed")
        return self._rngs[self.plan.faults.index(spec)]

    def __repr__(self) -> str:
        if not self.enabled or self.plan is None:
            return "ChaosState(enabled=False)"
        return (
            f"ChaosState(enabled=True, seed={self.plan.seed}, "
            f"faults={len(self.plan.faults)}, fired={self.fired()})"
        )


CHAOS = ChaosState()


def install(plan: FaultPlan) -> ChaosState:
    """Install a fault plan process-wide (resetting hit/fire counters)."""
    CHAOS.install(plan)
    return CHAOS


def uninstall() -> ChaosState:
    """Disable chaos and drop the installed plan."""
    CHAOS.uninstall()
    return CHAOS


@contextmanager
def inject(plan: FaultPlan):
    """Scoped chaos: install ``plan``, yield :data:`CHAOS`, restore on exit."""
    previous = CHAOS.plan if CHAOS.enabled else None
    CHAOS.install(plan)
    try:
        yield CHAOS
    finally:
        if previous is not None:
            CHAOS.install(previous)
        else:
            CHAOS.uninstall()


def _env_plan() -> FaultPlan | None:
    text = os.environ.get(CHAOS_ENV, "").strip()
    if not text or text in ("0", "false", "no", "off"):
        return None
    return FaultPlan.from_json(text)


_plan = _env_plan()
if _plan is not None:  # pragma: no cover - exercised via subprocess in tests
    install(_plan)
del _plan
