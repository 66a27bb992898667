"""BoostHD: boosting over partitioned hyperdimensional weak learners.

This is the paper's primary contribution (Algorithm 1).  Instead of one
OnlineHD model with a large hyperdimension ``D_total``, BoostHD trains
``n_learners`` OnlineHD weak learners, each operating in a
``D_total / n_learners``-dimensional subspace, sequentially with
AdaBoost-style sample re-weighting:

1. initialise uniform sample weights ``W_s``;
2. for each learner ``i``: fit on the weighted data, compute the weighted
   error rate ``e_i``, assign the learner importance ``α_i`` and up-weight
   the samples it misclassified;
3. at inference, every learner votes (or contributes its similarity scores)
   scaled by ``α_i`` and the arg-max class wins — learners are independent at
   this point, so inference parallelises even though training is sequential.

Because of that independence, a fitted ensemble can be *compiled* into the
fused batch-inference engine (:mod:`repro.engine`) via :meth:`BoostHD.compile`:
all weak-learner projections stack into one matrix, the batch is encoded once,
and every learner is scored at once from one learner-stacked class array.  The
compiled path is the fast production route; the per-learner loop in
:meth:`BoostHD.decision_function` remains the reference implementation the
engine is tested against.

Training follows the algorithm's order (:mod:`repro.engine.train`): each
weak learner's ``(n, D/L)`` block is encoded when its turn comes, trained on,
reused for its boosting-error estimate and released before the next learner
starts, so a fit holds one block at a time.  Each block is that learner's own
``encoder.encode(X)``, as in the reference path; the adaptive passes run the
exact fast kernel or, with ``batch_size`` set, the vectorised mini-batch
trainer.

The paper's pseudocode writes the importance update loosely (``α = W_s · e``,
``W ← e^{α(y≠ŷ)}/ΣW``); this implementation uses the standard multi-class
SAMME weighting (``α = ln((1-e)/e) + ln(K-1)``), which is the conventional
realisation of that scheme and matches the behaviour the evaluation reports
(weak learners that err more receive less voting weight, hard samples receive
more training attention).
"""

from __future__ import annotations

import numpy as np

from ..baselines.base import BaseClassifier
from ..hdc.onlinehd import OnlineHD
from .partition import partition_encoders

__all__ = ["BoostHD", "effective_alphas"]

#: Below this per-learner average the ensemble is considered degenerate:
#: every learner was worse than chance and received the 1e-10 sentinel weight.
_DEGENERATE_MEAN_ALPHA = 1e-8


def effective_alphas(alphas: np.ndarray) -> tuple[np.ndarray, float]:
    """Learner weights and normaliser actually used at inference time.

    Normally returns ``(alphas, sum(alphas))``.  When *every* learner was
    worse than chance, the stored importances are all the ``1e-10`` sentinel;
    dividing the aggregated scores by their ~1e-9 sum would amplify
    floating-point noise by nine orders of magnitude.  In that degenerate case
    the ensemble falls back to a plain unweighted average: uniform weights
    ``1/n`` with normaliser ``1.0``.

    Shared by :meth:`BoostHD.decision_function` and the fused engine
    (:mod:`repro.engine`) so both paths stay equivalent by construction.
    """
    alphas = np.asarray(alphas, dtype=float)
    n_learners = max(len(alphas), 1)
    total = float(alphas.sum())
    if total <= _DEGENERATE_MEAN_ALPHA * n_learners:
        return np.full(len(alphas), 1.0 / n_learners), 1.0
    return alphas, total


class BoostHD(BaseClassifier):
    """Boosted ensemble of partitioned OnlineHD weak learners.

    Parameters
    ----------
    total_dim:
        Total hyperdimensional budget ``D_total`` split across the ensemble.
    n_learners:
        Number of weak learners ``N_L`` (paper: 10).  Each receives
        ``total_dim / n_learners`` dimensions; when that does not divide,
        the first ``total_dim % n_learners`` learners get one more
        (:func:`~repro.core.partition.split_dimensions`).
    lr:
        OnlineHD learning rate for every weak learner (paper: 0.035).
    epochs:
        Adaptive refinement epochs per weak learner.
    bootstrap:
        Weak learners resample the training set according to the boosting
        weights (paper configuration).  With ``False`` the weights scale the
        OnlineHD updates instead.
    batch_size:
        ``None`` (default) trains every weak learner with the exact
        per-sample pass (bit-identical to the reference implementation).  A
        positive integer opts the whole ensemble into vectorised mini-batch
        training (see :class:`~repro.hdc.OnlineHD`).
    aggregation:
        ``"score"`` (default) — weighted sum of weak-learner similarity
        scores; ``"vote"`` — weighted majority vote over weak-learner
        predictions (the literal reading of Algorithm 1).  The ablation
        benchmark compares the two.
    uniform_blend:
        Fraction of uniform weight mixed into the boosting sample weights
        before training each weak learner (``0`` = pure AdaBoost weighting,
        ``1`` = every learner sees the original distribution).  The paper
        stresses that "the performance of weak learners must be assured";
        an HDC weak learner trained on a heavily concentrated distribution
        forgets the easy structure entirely, so a 0.5 blend keeps the weak
        learners globally competent while still emphasising hard samples.
        The learner importances and weight updates always use the pure
        boosting weights.
    bandwidth:
        Kernel bandwidth forwarded to every weak learner's encoder.
    shared_projection:
        ``False`` (default) — every weak learner draws its own projection;
        ``True`` — the learners encode with contiguous row blocks of one
        ``total_dim`` projection (the partitioning ablation; see
        :func:`~repro.core.partition.partition_encoders`).
    learning_rate:
        Shrinkage applied to each learner importance ``α_i``.
    seed:
        Seed for encoders, resampling and weak-learner initialisation.
    """

    def __init__(
        self,
        total_dim: int = 1000,
        n_learners: int = 10,
        *,
        lr: float = 0.035,
        epochs: int = 20,
        bootstrap: bool = True,
        batch_size: int | None = None,
        aggregation: str = "score",
        uniform_blend: float = 0.5,
        bandwidth: float = 1.5,
        shared_projection: bool = False,
        learning_rate: float = 1.0,
        seed: int | None = None,
    ) -> None:
        if n_learners < 1:
            raise ValueError(f"n_learners must be >= 1, got {n_learners}")
        if total_dim < n_learners:
            raise ValueError(
                f"total_dim={total_dim} is too small for {n_learners} learners"
            )
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {batch_size}")
        if aggregation not in ("vote", "score"):
            raise ValueError(f"aggregation must be 'vote' or 'score', got {aggregation!r}")
        if not 0.0 <= uniform_blend <= 1.0:
            raise ValueError(f"uniform_blend must be in [0, 1], got {uniform_blend}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.total_dim = int(total_dim)
        self.n_learners = int(n_learners)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.bootstrap = bool(bootstrap)
        self.batch_size = None if batch_size is None else int(batch_size)
        self.aggregation = aggregation
        self.uniform_blend = float(uniform_blend)
        self.bandwidth = float(bandwidth)
        self.shared_projection = bool(shared_projection)
        self.learning_rate = float(learning_rate)
        self.seed = seed
        self.learners_: list[OnlineHD] | None = None
        self.learner_weights_: np.ndarray | None = None
        self.learner_errors_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    # ------------------------------------------------------------ properties
    @property
    def learner_dim(self) -> int:
        """Dimensionality ``D_total / N_L`` of each weak learner (floor).

        The first ``total_dim % n_learners`` learners have one more; each
        learner's ``dim`` is its own encoder's width.
        """
        return self.total_dim // self.n_learners

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        *,
        trainer: str | None = None,
    ) -> "BoostHD":
        """Fit the boosted ensemble (Algorithm 1).

        Each weak learner's block is encoded when its turn comes
        (:func:`repro.engine.train.encode_ensemble` on that learner's
        encoder), trained on, reused to estimate its boosting error and
        released before the next learner starts, so the fit holds one
        ``(n, D/L)`` block at a time.  ``trainer`` forwards to
        :meth:`repro.hdc.OnlineHD.fit`; with ``"reference"`` every learner
        encodes ``X`` itself, once to fit and once to predict — the same
        ``encoder.encode(X)`` call, so both paths see the same bits.
        """
        from ..engine.train import resolve_trainer
        from ..engine.train.encoding import encode_ensemble

        X, y = self._validate_fit_args(X, y)
        sample_weights = self._validate_sample_weight(sample_weight, len(y))
        # Resolve/validate up front: a bad trainer argument must not cost an
        # encoding before it is rejected.
        trainer = resolve_trainer(trainer, self.batch_size)
        rng = np.random.default_rng(self.seed)
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)

        encoders = partition_encoders(
            X.shape[1],
            self.total_dim,
            self.n_learners,
            bandwidth=self.bandwidth,
            rng=rng,
            shared=self.shared_projection,
        )

        uniform = np.full(len(y), 1.0 / len(y))
        learners: list[OnlineHD] = []
        alphas: list[float] = []
        errors: list[float] = []
        for encoder in encoders:
            learner = OnlineHD(
                lr=self.lr,
                epochs=self.epochs,
                bootstrap=self.bootstrap,
                batch_size=self.batch_size,
                encoder=encoder,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            training_weights = (
                self.uniform_blend * uniform + (1.0 - self.uniform_blend) * sample_weights
            )
            if trainer == "reference":
                learner.fit(X, y, sample_weight=training_weights, trainer=trainer)
                predictions = learner.predict(X)
            else:
                encoded = encode_ensemble(learner.encoder, X)
                learner.fit(
                    X, y, sample_weight=training_weights, encoded=encoded,
                    trainer=trainer,
                )
                predictions = learner.predict_encoded(encoded)
                # Release this block before the next learner encodes its own.
                del encoded
            incorrect = predictions != y
            error = float(np.clip(np.sum(sample_weights * incorrect), 1e-10, 1.0 - 1e-10))

            if error >= 1.0 - 1.0 / n_classes:
                # Worse than chance: keep it with negligible weight so the
                # ensemble size stays as requested, but do not let it distort
                # the sample distribution.
                learners.append(learner)
                alphas.append(1e-10)
                errors.append(error)
                continue

            alpha = self.learning_rate * (
                np.log((1.0 - error) / error) + np.log(max(n_classes - 1.0, 1.0 + 1e-12))
            )
            learners.append(learner)
            alphas.append(float(alpha))
            errors.append(error)

            # Up-weight misclassified samples and renormalise (Algorithm 1).
            sample_weights = sample_weights * np.exp(alpha * incorrect)
            sample_weights = sample_weights / sample_weights.sum()

        self.learners_ = learners
        self.learner_weights_ = np.asarray(alphas)
        self.learner_errors_ = np.asarray(errors)
        return self

    # ---------------------------------------------------------- partial_fit
    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, *, trainer: str | None = None
    ) -> "BoostHD":
        """One incremental adaptive epoch on every weak learner.

        Applies :meth:`repro.hdc.OnlineHD.partial_fit` to each fitted weak
        learner — the serving layer's online-adaptation primitive
        (:mod:`repro.serving.adaptation`).  Each learner encodes the batch
        itself when its turn comes, and its block is released before the
        next learner's; nothing here predicts, so there is no block to
        reuse.  The boosting importances ``alpha_i`` are *not* re-estimated:
        they encode training-time competence, and re-weighting from an
        incremental trickle of feedback would be far noisier than the
        adaptive updates themselves.  Labels unseen at fit time grow every
        learner (and ``classes_``) with a zero-initialised class hypervector.
        """
        from ..engine.train import resolve_trainer

        self._check_fitted("learners_")
        trainer = resolve_trainer(trainer, self.batch_size)
        for learner in self.learners_:
            learner.partial_fit(X, y, trainer=trainer)
        combined = np.union1d(self.classes_, self.learners_[0].classes_)
        if len(combined) != len(self.classes_):
            self.classes_ = combined
        return self

    # ------------------------------------------------------------ inference
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Aggregated per-class score, shape ``(n_samples, n_classes)``."""
        self._check_fitted("learners_")
        X = self._validate_predict_args(X)
        scores = np.zeros((len(X), len(self.classes_)))
        alphas, total_alpha = effective_alphas(self.learner_weights_)
        for learner, alpha in zip(self.learners_, alphas):
            if self.aggregation == "vote":
                predictions = learner.predict(X)
                columns = np.searchsorted(self.classes_, predictions)
                scores[np.arange(len(X)), columns] += alpha
            else:
                learner_scores = learner.decision_function(X)
                columns = np.searchsorted(self.classes_, learner.classes_)
                scores[:, columns] += alpha * learner_scores
        return scores / total_alpha

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Normalised aggregated scores (softmax), for API parity."""
        scores = self.decision_function(X)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exponent = np.exp(shifted)
        return exponent / exponent.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def compile(self, **options):
        """Compile the fitted ensemble into a fused batch scorer.

        Returns a :class:`repro.engine.CompiledModel` whose ``predict`` /
        ``decision_function`` match this model's loop path (same aggregation
        semantics, scores equal to floating-point tolerance) while encoding
        each batch once through a stacked projection.  Keyword ``options``
        (``precision``, ``dtype``) are forwarded to
        :func:`repro.engine.compile_model`;
        ``precision="bipolar-packed"`` / ``"fixed16"`` / ``"fixed8"``
        selects the integer-domain engines of :mod:`repro.engine.quant`.
        """
        from ..engine import compile_model

        return compile_model(self, **options)

    # -------------------------------------------------------------- analysis
    def class_hypervectors(self) -> np.ndarray:
        """Concatenate weak-learner class hypervectors into a ``D_total`` model.

        The concatenation (one block of ``D/n`` dimensions per weak learner)
        is the ensemble-level class representation used by the span-utilization
        analysis (Figure 5): BoostHD's blocks are trained on different sample
        weightings, so the concatenated class hypervectors are less mutually
        aligned than a single OnlineHD model of the same total dimension.
        """
        self._check_fitted("learners_")
        blocks = []
        for learner in self.learners_:
            block = np.zeros((len(self.classes_), learner.class_hypervectors_.shape[1]))
            rows = np.searchsorted(self.classes_, learner.classes_)
            block[rows] = learner.class_hypervectors_
            blocks.append(block)
        return np.hstack(blocks)
