"""Exact fast path for OnlineHD adaptive passes.

The reference loop (:meth:`repro.hdc.OnlineHD._adaptive_pass`) scores each
sample with the general ``cosine_similarity``, which re-derives the L2 norm
of *every* class hypervector — an ``O(K · D)`` reduction — and then applies
the update rule with about twenty NumPy calls on ``K``-element arrays.  With
``K = 3`` classes those calls are almost all overhead: a FULL BoostHD fit is
180,000 strictly sequential samples, and the per-call cost, not the
arithmetic, sets its fit time.

:func:`adaptive_pass_exact` runs the same rule and keeps as NumPy calls only
the operations whose rounding the reference loop fixes:

* the similarity matmul ``encoded[i : i + 1] @ model.T`` — the reference
  loop's ``(1, D) @ (D, K)`` operand layout.  ``model @ h`` or ``np.dot``
  may dispatch to a different BLAS kernel, and nothing guarantees that its
  summation order matches;
* the update ``hypervector * coefficient`` and the in-place row add or
  subtract;
* the norm refresh of an updated row: ``row * row`` and an ``np.add.reduce``
  over the contiguous squares.  That is the per-row reduction
  ``np.linalg.norm(model, axis=1)`` performs, so a refreshed norm equals a
  fresh recomputation bit for bit.  ``np.dot`` (which ``np.linalg.norm``
  uses on a 1-D row) sums in a different order.

Everything else in a step works on ``K`` scalars and runs in Python floats.
A Python float is a C double, and its ``*``, ``-`` and ``/`` (and
``math.sqrt``) are the same correctly rounded IEEE-754 operations NumPy's
``float64`` kernels perform, so the ``|h| · |C_k|`` products, the ``1e-12``
clip (a comparison, which selects the same value as ``np.maximum``), the
divisions, the argmax and the update coefficients come out bit for bit as in
the reference loop.  ``scores.index(max(scores))`` returns the first maximal
index, as ``np.argmax`` does.  Class norms, sample norms and the row and
query views are built once per :class:`ExactPassState` (one per ``fit``);
``order``, ``label_index`` and ``update_scale`` become lists once per
epoch.  The model is therefore *bit-identical* to the reference loop
(asserted in ``tests/test_train_engine.py``, up to the FULL paper scale).

**Precondition: finite input.**  On NaN the comparisons above and NumPy
part ways (``np.maximum`` propagates NaN, ``np.argmax`` picks the first
NaN), so the Python-float bookkeeping matches NumPy only on finite values.
:meth:`repro.hdc.OnlineHD.fit` and :meth:`~repro.hdc.OnlineHD.partial_fit`
reject non-finite ``X`` and ``encoded``; direct callers of
:func:`adaptive_pass_exact` must do the same.

The incremental-squared-norm recurrence ``‖C + a·h‖² = ‖C‖² + 2a·(C·h) +
a²·‖h‖²`` would avoid the per-update row reduction, but its rounding
differs from a fresh norm and would break bit-equality with the reference
loop; the mini-batch trainer (:mod:`repro.engine.train.minibatch`), which is
gated on accuracy parity rather than bit-equality, is where that algebraic
shortcut pays off.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

#: Denominator clip, mirroring :func:`repro.hdc.similarity.cosine_similarity`.
_EPS = 1e-12

__all__ = ["ExactPassState", "adaptive_pass_exact"]


class ExactPassState:
    """Norms and row views bound to one ``(model, encoded)`` pair.

    One state serves every epoch of a single ``fit`` call: the encoded
    matrix (hence ``sample_norms``) is fixed, and ``class_norms`` stays
    valid because the pass itself performs every model update and
    refreshes the touched rows.  The cached views write into ``model``, so
    :func:`adaptive_pass_exact` refuses a state built for other arrays;
    build a fresh state whenever the model or the encoded matrix changes
    hands (e.g. each ``partial_fit`` call).
    """

    def __init__(self, model: np.ndarray, encoded: np.ndarray) -> None:
        self.model = model
        self.encoded = encoded
        # The reference loop's cosine_similarity derives both with
        # np.linalg.norm(..., axis=1) row reductions over contiguous rows of
        # squares; a Fortran-ordered ``encoded`` would be summed in another
        # order, hence the C-ordered copy.
        self.class_norms: list[float] = np.linalg.norm(model, axis=1).tolist()
        self.sample_norms: list[float] = np.linalg.norm(
            np.ascontiguousarray(encoded), axis=1
        ).tolist()
        self._rows = list(model)
        self._hypervectors = list(encoded)
        self._queries = [encoded[i : i + 1] for i in range(len(encoded))]


def adaptive_pass_exact(
    model: np.ndarray,
    encoded: np.ndarray,
    label_index: np.ndarray,
    order: np.ndarray,
    update_scale: np.ndarray,
    lr: float,
    state: ExactPassState | None = None,
) -> ExactPassState:
    """One OnlineHD adaptive epoch, bit-identical to the reference loop.

    Parameters mirror :meth:`repro.hdc.OnlineHD._adaptive_pass`; ``state``
    carries the cached norms between epochs of one ``fit`` (pass the value
    returned by the previous epoch).  Returns the (possibly newly created)
    state so callers can thread it through.  ``encoded`` and ``model`` must
    be finite (see the module docstring), and ``model`` C-ordered, as
    :meth:`~repro.hdc.OnlineHD.fit` creates it.

    Raises
    ------
    ValueError
        If ``state`` was built for a different ``model`` or ``encoded``.
    """
    if state is None:
        state = ExactPassState(model, encoded)
    elif state.model is not model or state.encoded is not encoded:
        raise ValueError("state was built for a different model or encoded matrix")
    model_t = model.T  # view; stays in sync with in-place row updates
    rows = state._rows
    queries = state._queries
    hypervectors = state._hypervectors
    class_norms = state.class_norms
    sample_norms = state.sample_norms
    update = np.empty(model.shape[1])
    squares = np.empty(model.shape[1])
    multiply, add_reduce = np.multiply, np.add.reduce
    labels = label_index.tolist()
    scales = update_scale.tolist()
    for sample in order.tolist():
        (similarities,) = (queries[sample] @ model_t).tolist()
        sample_norm = sample_norms[sample]
        scores = [
            similarity
            / (product if (product := sample_norm * class_norm) > _EPS else _EPS)
            for similarity, class_norm in zip(similarities, class_norms)
        ]
        predicted = scores.index(max(scores))
        true_class = labels[sample]
        scale = scales[sample] * lr
        hypervector = hypervectors[sample]
        row = rows[true_class]
        multiply(hypervector, scale * (1.0 - scores[true_class]), out=update)
        row += update
        multiply(row, row, out=squares)
        class_norms[true_class] = sqrt(add_reduce(squares))
        if predicted != true_class:
            row = rows[predicted]
            multiply(hypervector, scale * (1.0 - scores[predicted]), out=update)
            row -= update
            multiply(row, row, out=squares)
            class_norms[predicted] = sqrt(add_reduce(squares))
    return state
