"""Fused training engine for OnlineHD and BoostHD.

Where :mod:`repro.engine.compile` fuses *inference* — stack the ensemble's
projections, encode a batch once, score every learner in one batched matmul —
this subpackage applies the same treatment to *training*, the dominant cost
of every Table I/III cell and every serving-side
:meth:`~repro.serving.AdaptiveModel.feedback` step.  Model fitting routes
through it by default; the original per-sample loop survives as the
reference implementation (:meth:`repro.hdc.OnlineHD._adaptive_pass`,
selectable with ``trainer="reference"``) that the fast paths are tested
against.

Three independent accelerations compose:

* :mod:`~repro.engine.train.bundling` — the initial single-pass bundling as
  a stable sort + per-class segment reduce instead of the slow unbuffered
  ``np.add.at`` scatter, with bit-identical summation order.
* :mod:`~repro.engine.train.exact` — the default adaptive pass: per
  sample only the similarity matmul, the row update and the updated row's
  norm refresh stay NumPy calls; the ``K``-element bookkeeping runs in
  Python floats over cached class/sample norms.  Bit-identical to the
  reference loop, so Table I/II golden numbers are unchanged.
* :mod:`~repro.engine.train.minibatch` — opt-in (``batch_size=B``) chunked
  training: score a chunk against a frozen model snapshot in one matmul,
  aggregate all rank-1 updates as a ``(K, B) @ (B, D)`` matmul, maintain
  squared class norms incrementally.  Gated by accuracy parity, not
  bit-equality.
* :mod:`~repro.engine.train.encoding` — the training-encode entry point:
  ``BoostHD`` encodes each weak learner's block when its turn comes, trains
  on it and releases it before the next learner's, so a fit holds one
  ``(n, D/L)`` block at a time.

The bit-equivalence and accuracy-parity contracts live in
``tests/test_train_engine.py``; the speedup contracts in
``benchmarks/bench_training.py``.
"""

from .bundling import bundle_classes
from .encoding import encode_ensemble
from .exact import ExactPassState, adaptive_pass_exact
from .minibatch import adaptive_pass_minibatch

__all__ = [
    "bundle_classes",
    "encode_ensemble",
    "ExactPassState",
    "adaptive_pass_exact",
    "adaptive_pass_minibatch",
    "resolve_trainer",
]


def resolve_trainer(trainer: str | None, batch_size: int | None) -> str:
    """Resolve/validate a ``trainer=`` argument against ``batch_size``.

    ``None`` resolves to ``"minibatch"`` when ``batch_size`` is set and
    ``"exact"`` otherwise.  Shared by :meth:`repro.hdc.OnlineHD.fit` and
    :meth:`repro.core.BoostHD.fit` so the ensemble rejects a bad argument
    *before* paying for any encoding.
    """
    if trainer is None:
        return "minibatch" if batch_size is not None else "exact"
    if trainer not in ("exact", "minibatch", "reference"):
        raise ValueError(
            f"trainer must be 'exact', 'minibatch' or 'reference', got {trainer!r}"
        )
    if trainer == "minibatch" and batch_size is None:
        raise ValueError("trainer='minibatch' requires batch_size to be set")
    return trainer
