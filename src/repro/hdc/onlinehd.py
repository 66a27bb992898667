"""OnlineHD classifier (Hernandez-Cano et al., DATE 2021).

OnlineHD is the "strong learner" the paper partitions.  It improves on the
single-pass centroid model with *adaptive* updates: each training sample only
modifies the class hypervectors in proportion to how badly the model currently
scores it.  With learning rate ``lr`` and cosine similarities ``δ``:

* correct prediction with true class ``y``:  ``C_y += lr · (1 − δ_y) · H``
* misprediction (predicted ``ŷ ≠ y``)::

      C_y  += lr · (1 − δ_y)  · H
      C_ŷ  -= lr · (1 − δ_ŷ)  · H

so confidently-correct samples barely move the model while confusing samples
drive the largest corrections.  Training performs one bundling pass (the
initial model) followed by ``epochs`` adaptive passes.

Sample weights are supported in two ways so that the model can serve as a
boosting weak learner (see :class:`repro.core.BoostHD`):

* ``bootstrap=True`` (the paper's configuration) — each adaptive epoch draws a
  weighted bootstrap resample of the training set, and the initial bundling
  weights samples directly;
* ``bootstrap=False`` — updates are scaled by the (normalised) sample weight.

Training routes through the fused training engine
(:mod:`repro.engine.train`): the initial bundling uses a sort + segment
reduce, and the adaptive epochs run the exact fast pass (cached class/sample
norms, scalar bookkeeping in Python floats) — bit-identical to the
per-sample reference loop kept on :meth:`OnlineHD._adaptive_pass`.
``batch_size=B`` opts into the vectorised mini-batch trainer
(frozen-snapshot chunk scoring, scatter-added rank-1 updates), which changes
update sequencing and is gated by accuracy parity rather than bit-equality;
``trainer="reference"`` on :meth:`fit`/:meth:`partial_fit` forces the legacy
loop for equivalence testing.
"""

from __future__ import annotations

import numpy as np

from ..baselines.base import BaseClassifier
from .encoder import NonlinearEncoder
from .similarity import cosine_similarity

__all__ = ["OnlineHD"]


class OnlineHD(BaseClassifier):
    """Adaptive single-pass + iterative hyperdimensional classifier.

    Parameters
    ----------
    dim:
        Hyperdimensionality ``D`` of the model (the ``encoder``'s when one
        is given).
    lr:
        Learning rate for adaptive updates (paper: 0.035).
    epochs:
        Number of adaptive refinement passes after the initial bundling pass.
    bootstrap:
        When sample weights are provided, resample each adaptive epoch with
        probability proportional to the weights (paper configuration) instead
        of scaling updates.
    batch_size:
        ``None`` (default) trains with the exact per-sample pass —
        bit-identical to the reference loop.  A positive integer opts into
        the vectorised mini-batch trainer
        (:func:`repro.engine.train.adaptive_pass_minibatch`): chunks of this
        many samples are scored against a frozen model snapshot and their
        rank-1 updates applied together, trading strict sequencing for
        large fit-time speedups at matched accuracy.
    bandwidth:
        Kernel bandwidth of the default nonlinear encoder (the
        ``encoder``'s when one is given).
    encoder:
        Optional pre-built encoder; by default a :class:`NonlinearEncoder`
        with Gaussian N(0, 1) projection is created at fit time.
    seed:
        Seed for the encoder and bootstrap resampling.
    """

    def __init__(
        self,
        dim: int = 1000,
        *,
        lr: float = 0.035,
        epochs: int = 20,
        bootstrap: bool = True,
        batch_size: int | None = None,
        bandwidth: float = 1.5,
        encoder: NonlinearEncoder | None = None,
        seed: int | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {batch_size}")
        if encoder is not None:
            dim, bandwidth = encoder.dim, encoder.bandwidth
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.dim = int(dim)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.bootstrap = bool(bootstrap)
        self.batch_size = None if batch_size is None else int(batch_size)
        self.bandwidth = float(bandwidth)
        self.encoder = encoder
        self.seed = seed
        self.class_hypervectors_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None
        self._adapt_rng: np.random.Generator | None = None

    # ------------------------------------------------------------------ fit
    def _ensure_encoder(self, n_features: int) -> NonlinearEncoder:
        if self.encoder is None:
            self.encoder = NonlinearEncoder(
                n_features, self.dim, bandwidth=self.bandwidth, rng=self.seed
            )
        return self.encoder

    def _resolve_trainer(self, trainer: str | None) -> str:
        """Resolve the adaptive-pass implementation for this fit call."""
        from ..engine.train import resolve_trainer

        return resolve_trainer(trainer, self.batch_size)

    def _validate_encoded(
        self, encoded: np.ndarray | None, n_samples: int
    ) -> np.ndarray | None:
        if encoded is None:
            return None
        encoded = np.asarray(encoded, dtype=float)
        expected = (n_samples, self.encoder.dim)
        if encoded.shape != expected:
            raise ValueError(
                f"encoded must have shape {expected}, got {encoded.shape}"
            )
        # The exact trainer's scalar bookkeeping assumes finite input.
        if not np.all(np.isfinite(encoded)):
            raise ValueError("encoded contains NaN or infinite values")
        return encoded

    def _train_epochs(
        self,
        model: np.ndarray,
        encoded: np.ndarray,
        label_index: np.ndarray,
        weights: np.ndarray | None,
        rng: np.random.Generator,
        n_epochs: int,
        trainer: str,
    ) -> None:
        """Draw per-epoch sample orders and run the selected adaptive pass.

        ``weights`` are the normalised sample weights, ``None`` when the
        samples are unweighted.  The random draws are identical for every
        trainer (and to the original implementation), so the trainer choice
        never perturbs the epoch resamples/permutations — nor the stream
        that :meth:`partial_fit` continues.
        """
        n = len(label_index)
        state = None
        if trainer == "exact" and n_epochs > 0:
            from ..engine.train.exact import ExactPassState

            state = ExactPassState(model, encoded)
        for _ in range(n_epochs):
            if weights is not None and self.bootstrap:
                order = rng.choice(n, size=n, p=weights)
                update_scale = np.ones(n)
            else:
                order = rng.permutation(n)
                update_scale = np.ones(n) if weights is None else weights * n
            if trainer == "exact":
                from ..engine.train.exact import adaptive_pass_exact

                state = adaptive_pass_exact(
                    model, encoded, label_index, order, update_scale, self.lr,
                    state,
                )
            elif trainer == "minibatch":
                from ..engine.train.minibatch import adaptive_pass_minibatch

                adaptive_pass_minibatch(
                    model, encoded, label_index, order, update_scale, self.lr,
                    self.batch_size,
                )
            else:
                self._adaptive_pass(model, encoded, label_index, order, update_scale)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        *,
        encoded: np.ndarray | None = None,
        trainer: str | None = None,
    ) -> "OnlineHD":
        """Fit the model: one bundling pass plus ``epochs`` adaptive passes.

        Keyword-only extras route training through the fused engine
        (:mod:`repro.engine.train`):

        * ``encoded`` — pre-encoded hypervectors for ``X`` (shape
          ``(n_samples, dim)``), i.e. this model's ``encoder.encode(X)``
          made by the caller (:class:`~repro.core.BoostHD` encodes through
          :func:`repro.engine.train.encode_ensemble`, then reuses the block
          for its boosting-error estimate); skips the encode here.  The
          caller guarantees they match; non-finite values are rejected, as
          in ``X``.
        * ``trainer`` — ``"exact"`` (default; bit-identical fast path),
          ``"minibatch"`` (requires ``batch_size``; the default whenever
          ``batch_size`` is set) or ``"reference"`` (the original
          per-sample loop plus ``np.add.at`` bundling, kept for
          equivalence testing).
        """
        X, y = self._validate_fit_args(X, y)
        weights = self._validate_sample_weight(sample_weight, len(y))
        weighted = sample_weight is not None
        trainer = self._resolve_trainer(trainer)
        encoder = self._ensure_encoder(X.shape[1])
        rng = np.random.default_rng(self.seed)

        self.classes_ = np.unique(y)
        label_index = np.searchsorted(self.classes_, y)
        encoded = self._validate_encoded(encoded, len(y))
        if encoded is None:
            encoded = encoder.encode(X)

        # Initial single-pass bundling (weighted when boosting provides weights).
        model = np.zeros((len(self.classes_), encoder.dim))
        if trainer == "reference":
            initial_scale = weights * len(y) if weighted else np.ones(len(y))
            np.add.at(model, label_index, initial_scale[:, None] * encoded)
        else:
            from ..engine.train.bundling import bundle_classes

            bundle_classes(
                model,
                encoded,
                label_index,
                weights * len(y) if weighted else None,
            )

        self._train_epochs(
            model, encoded, label_index, weights if weighted else None, rng,
            self.epochs, trainer,
        )

        self.class_hypervectors_ = model
        # Keep the generator so partial_fit continues the same random stream:
        # one partial_fit epoch after fit(epochs=k) replays exactly what
        # fit(epochs=k+1) would have done for its final epoch.
        self._adapt_rng = rng
        return self

    # ---------------------------------------------------------- partial_fit
    def _extend_classes(self, new_labels: np.ndarray) -> None:
        """Grow ``classes_`` / ``class_hypervectors_`` for unseen labels.

        New classes start from a zero hypervector (no bundling history), so
        the first adaptive updates fully determine their direction.
        """
        combined = np.union1d(self.classes_, new_labels)
        if len(combined) == len(self.classes_):
            return
        grown = np.zeros((len(combined), self.class_hypervectors_.shape[1]))
        grown[np.searchsorted(combined, self.classes_)] = self.class_hypervectors_
        self.classes_ = combined
        self.class_hypervectors_ = grown

    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, *, trainer: str | None = None
    ) -> "OnlineHD":
        """One incremental adaptive epoch on ``(X, y)``, reusing the fitted model.

        The fitted encoder and class hypervectors are updated in place with
        exactly one OnlineHD adaptive pass — the same update rule as
        :meth:`fit`'s refinement epochs, continuing :meth:`fit`'s random
        stream — so ``fit(epochs=k)`` followed by one ``partial_fit`` on the
        same data reproduces ``fit(epochs=k+1)``.  This is the primitive the
        serving layer's online adaptation (:mod:`repro.serving.adaptation`)
        applies to labeled feedback; labels unseen at fit time grow the model
        with a fresh zero-initialised class hypervector.  Every sample counts
        once: the pass is unweighted.

        Like :meth:`fit`, the pass runs on the fused training engine:
        ``trainer`` defaults to the exact fast path (bit-identical to the
        reference loop, so adaptation behaves exactly as before), or to the
        mini-batch trainer when ``batch_size`` is set.

        Requires a fitted model (:meth:`fit` first): the encoder and the
        initial bundling pass define the representation being adapted.
        """
        self._check_fitted("class_hypervectors_")
        X, y = self._validate_fit_args(X, y)
        trainer = self._resolve_trainer(trainer)
        if X.shape[1] != self.encoder.in_features:
            raise ValueError(
                f"expected {self.encoder.in_features} features, got {X.shape[1]}"
            )
        if self._adapt_rng is None:
            # Model restored from the registry (never fitted in-process):
            # start a fresh stream from the configured seed.
            self._adapt_rng = np.random.default_rng(self.seed)
        rng = self._adapt_rng

        self._extend_classes(np.unique(y))
        label_index = np.searchsorted(self.classes_, y)
        self._train_epochs(
            self.class_hypervectors_, self.encoder.encode(X), label_index, None,
            rng, 1, trainer,
        )
        return self

    def _adaptive_pass(
        self,
        model: np.ndarray,
        encoded: np.ndarray,
        label_index: np.ndarray,
        order: np.ndarray,
        update_scale: np.ndarray,
    ) -> None:
        """One epoch of OnlineHD adaptive updates over samples in ``order``.

        This is the *reference implementation* — the original per-sample
        loop, no longer on the default path.  :meth:`fit`/:meth:`partial_fit`
        run :func:`repro.engine.train.adaptive_pass_exact` instead, which is
        bit-identical (same scores, same argmax, same update arithmetic) but
        caches class/sample norms rather than re-deriving every class norm
        from scratch each sample through the general ``cosine_similarity``.
        Selectable with ``trainer="reference"``; the equivalence contract
        lives in ``tests/test_train_engine.py``.
        """
        for sample in order:
            hypervector = encoded[sample]
            true_class = label_index[sample]
            scores = cosine_similarity(hypervector, model)
            predicted = int(np.argmax(scores))
            scale = update_scale[sample] * self.lr
            if predicted == true_class:
                model[true_class] += scale * (1.0 - scores[true_class]) * hypervector
            else:
                model[true_class] += scale * (1.0 - scores[true_class]) * hypervector
                model[predicted] -= scale * (1.0 - scores[predicted]) * hypervector

    # -------------------------------------------------------------- predict
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Cosine similarity of each query to each class hypervector."""
        self._check_fitted("class_hypervectors_")
        X = self._validate_predict_args(X)
        encoded = self.encoder.encode(X)
        return cosine_similarity(encoded, self.class_hypervectors_)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax over similarity scores (a convenience, not calibrated)."""
        scores = self.decision_function(X)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exponent = np.exp(shifted)
        return exponent / exponent.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def decision_function_encoded(self, encoded: np.ndarray) -> np.ndarray:
        """Cosine scores for pre-encoded hypervectors (skips the encoder).

        ``encoded`` must come from this model's encoder (e.g. the block
        :class:`~repro.core.BoostHD` trained it on); the result is then
        bit-identical to :meth:`decision_function` on the raw features.
        :class:`~repro.core.BoostHD` uses this to estimate each weak
        learner's boosting error without re-encoding the training matrix.
        """
        self._check_fitted("class_hypervectors_")
        return cosine_similarity(encoded, self.class_hypervectors_)

    def predict_encoded(self, encoded: np.ndarray) -> np.ndarray:
        """Predict labels for pre-encoded hypervectors (skips the encoder)."""
        scores = self.decision_function_encoded(encoded)
        return self.classes_[np.argmax(scores, axis=1)]

    def compile(self, **options):
        """Compile the fitted model into a fused batch scorer.

        A single OnlineHD model compiles as a one-learner ensemble: the
        returned :class:`repro.engine.CompiledModel` reproduces
        :meth:`decision_function` (cosine similarities) and :meth:`predict`
        with the engine's fused encoding and configurable ``dtype``.
        Keyword ``options`` are forwarded to
        :func:`repro.engine.compile_model`; a quantized ``precision``
        selects the integer-domain engines of :mod:`repro.engine.quant`.
        """
        from ..engine import compile_model

        return compile_model(self, **options)
