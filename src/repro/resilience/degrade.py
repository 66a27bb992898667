"""Graceful degradation: drop to packed-bipolar scoring under pressure.

When a serving queue is close to blowing its latency deadline, the right
move is rarely to shed load first — the stack already *has* a scorer that
is several times faster than any precise tier: the 1-bit packed engine
(:class:`~repro.engine.quant.PackedBipolarModel`, XOR + popcount, ~62x
smaller).  The degradation ladder trades precision for latency instead of
dropping windows:

* :func:`packed_fallback` derives the cheapest scorer available from any
  compiled engine — a cascade's existing first tier, or a packed engine
  built from the *sign bits* of a fixed-point / float engine's class
  representation (sharing the original's projection arrays, so no extra
  encoder memory and identical encoding);
* :class:`DegradationLadder` is the hysteresis controller: when the oldest
  queued window's wait crosses ``degrade_at * deadline`` the ladder hands
  out the packed tier (predictions are explicitly flagged ``degraded``),
  and when the wait falls back under ``restore_at * deadline`` full
  precision returns.  Two thresholds, not one, so the ladder cannot
  oscillate batch-to-batch around a single cutoff.

Under no pressure the ladder never activates and predictions are
bit-identical to an un-laddered scheduler — the house invariant (no
behaviour change when no fault fires / no pressure builds) holds by
construction and is enforced in ``benchmarks/bench_resilience.py``.
"""

from __future__ import annotations

from ..engine.cascade import CascadeModel
from ..engine.compile import CompiledModel, EngineError, unstack_learners
from ..engine.quant import FixedPointModel, PackedBipolarModel, pack_words
from ..obs import OBS

__all__ = ["DegradationLadder", "packed_fallback"]


def packed_fallback(engine: CompiledModel) -> PackedBipolarModel | None:
    """The cheapest scorer derivable from ``engine`` (``None`` if none).

    * a :class:`~repro.engine.cascade.CascadeModel` already carries one —
      its packed first tier is returned as-is;
    * a :class:`~repro.engine.quant.FixedPointModel` packs the sign bits of
      its stored integer codes (the same signs a
      ``registry.load_compiled(..., precision="bipolar-packed")`` of the
      quantized artifact would pack — the parity anchor used in tests);
    * a float :class:`~repro.engine.compile.CompiledModel` packs the sign
      bits of its normalised class weights (L2 normalisation preserves
      signs, so these are the hypervector signs);
    * a :class:`~repro.engine.quant.PackedBipolarModel` is already the
      bottom of the ladder — ``None``, there is nothing cheaper.

    Derived engines adopt the source engine's projection arrays
    (``basis2`` / bias pair) without copying, so a fallback costs only the
    packed class words (~1 bit per element).
    """
    if isinstance(engine, CascadeModel):
        return engine.packed_tier()
    if isinstance(engine, PackedBipolarModel) or not isinstance(engine, CompiledModel):
        return None
    source = engine.codes if isinstance(engine, FixedPointModel) else engine.weights
    signs = unstack_learners(source, engine.spans) >= 0
    return PackedBipolarModel(
        basis2=engine._basis2,
        bias=engine._bias,
        sin_bias=engine._sin_bias,
        spans=engine.spans,
        alphas=engine.alphas,
        words=pack_words(signs, engine.spans),
        classes=engine.classes_,
        aggregation=engine.aggregation,
        dtype=engine.dtype,
        shared_projection=engine.shared_projection,
    )


class DegradationLadder:
    """Hysteresis controller between a full-precision and a packed scorer.

    Parameters
    ----------
    scorer:
        The full-precision engine (cascade, fixed-point or float compiled
        model).  Must have a cheaper tier (:func:`packed_fallback`).
    deadline:
        The per-window latency target, seconds; queue pressure is measured
        relative to it.
    degrade_at, restore_at:
        Hysteresis band as fractions of ``deadline``: degrade when the
        oldest wait reaches ``degrade_at * deadline``, restore once it
        falls to ``restore_at * deadline`` or below.  Requires
        ``restore_at < degrade_at``.
    """

    __slots__ = (
        "full",
        "degraded",
        "deadline",
        "degrade_at",
        "restore_at",
        "active",
        "activations",
        "restorations",
    )

    def __init__(
        self,
        scorer,
        *,
        deadline: float,
        degrade_at: float = 0.75,
        restore_at: float = 0.25,
    ) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        if not 0.0 <= restore_at < degrade_at:
            raise ValueError(
                f"need 0 <= restore_at < degrade_at, got "
                f"restore_at={restore_at}, degrade_at={degrade_at}"
            )
        fallback = packed_fallback(scorer)
        if fallback is None or fallback is scorer:
            raise EngineError(
                f"{type(scorer).__name__} has no cheaper tier to degrade to; "
                "the ladder needs a cascade, fixed-point or float engine"
            )
        self.full = scorer
        self.degraded = fallback
        self.deadline = float(deadline)
        self.degrade_at = float(degrade_at)
        self.restore_at = float(restore_at)
        self.active = False
        self.activations = 0
        self.restorations = 0

    def scorer_for(self, oldest_wait: float) -> tuple[object, bool]:
        """The scorer to use given the oldest queued window's wait.

        Returns ``(scorer, degraded_flag)`` and updates the hysteresis
        state; the flag is stamped onto the resulting predictions so
        degraded results are always explicitly labelled.
        """
        pressure = oldest_wait / self.deadline
        if not self.active and pressure >= self.degrade_at:
            self.active = True
            self.activations += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_degrade_activations_total",
                    "Degradation-ladder drops to the packed tier.",
                ).inc()
        elif self.active and pressure <= self.restore_at:
            self.active = False
            self.restorations += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_degrade_restorations_total",
                    "Degradation-ladder restorations to full precision.",
                ).inc()
        if self.active:
            return self.degraded, True
        return self.full, False

    def __repr__(self) -> str:
        return (
            f"DegradationLadder(active={self.active}, deadline={self.deadline}, "
            f"degrade_at={self.degrade_at}, restore_at={self.restore_at}, "
            f"activations={self.activations}, restorations={self.restorations})"
        )
