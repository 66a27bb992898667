"""Training-engine benchmark: fused fitting vs the reference loop.

Holds :mod:`repro.engine.train` to its contracts on the Table I
nurse-stress workload (the paper's ensemble configuration, reduced scale):

* **Exact path** — the default trainer (sort-based bundling, cached-norm
  adaptive pass, per-learner encoding) must beat the reference
  implementation end-to-end on ``BoostHD.fit`` while producing a
  *bit-identical* model.
* **Mini-batch path** — ``batch_size=64`` must reach >= 3x the reference
  fit throughput, with test accuracy within 0.1 of the exact path.
* **Per-learner encoding** — the default fit encodes each weak learner's
  block once (the reference fit encodes it twice: to fit, then to estimate
  the boosting error), counted over ``NonlinearEncoder.encode`` calls with
  independent or shared projections, and its traced peak above the fitted
  model stays within ``FIT_PEAK_BLOCKS`` learner blocks: the fit holds one
  learner's block at a time.

Fast mode for CI (smaller workload, same assertions)::

    REPRO_BENCH_FAST=1 PYTHONPATH=src python -m pytest benchmarks/bench_training.py -q
"""

import os
import time
import tracemalloc

import numpy as np

from repro.core import BoostHD
from repro.data import load_nurse_stress
from repro.hdc.encoder import NonlinearEncoder

#: Acceptance configuration (ISSUE 4): paper ensemble shape, nurse workload.
FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
N_SUBJECTS = 6 if FAST else 8
WINDOWS_PER_STATE = 8 if FAST else 10
TOTAL_DIM = 1_000
N_LEARNERS = 10
EPOCHS = 3 if FAST else 8
BATCH_SIZE = 64
EXACT_FLOOR = 1.15
MINIBATCH_FLOOR = 3.0
ACCURACY_BAND = 0.1
TIMING_ROUNDS = 3
#: Bound on one fit's traced peak above the fitted model, in learner blocks
#: of (rows, D/L) float64.
FIT_PEAK_BLOCKS = 6


def _nurse_workload():
    dataset = load_nurse_stress(
        n_subjects=N_SUBJECTS, windows_per_state=WINDOWS_PER_STATE, seed=1
    )
    return dataset.split(test_fraction=0.3, rng=3)


def _fit_seconds(X, y, **fit_kwargs):
    """Best-of-N wall time of one BoostHD fit; returns (seconds, model)."""
    batch_size = fit_kwargs.pop("batch_size", None)
    best, model = float("inf"), None
    for _ in range(TIMING_ROUNDS):
        candidate = BoostHD(
            total_dim=TOTAL_DIM,
            n_learners=N_LEARNERS,
            epochs=EPOCHS,
            batch_size=batch_size,
            seed=0,
        )
        start = time.perf_counter()
        candidate.fit(X, y, **fit_kwargs)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, model = elapsed, candidate
    return best, model


def test_exact_path_beats_reference_with_identical_model():
    """Default trainer faster than the legacy loop, bit-identical output."""
    X_train, _, y_train, _ = _nurse_workload()
    reference_seconds, reference = _fit_seconds(X_train, y_train, trainer="reference")
    exact_seconds, exact = _fit_seconds(X_train, y_train)

    np.testing.assert_array_equal(exact.learner_weights_, reference.learner_weights_)
    for exact_learner, reference_learner in zip(exact.learners_, reference.learners_):
        np.testing.assert_array_equal(
            exact_learner.class_hypervectors_,
            reference_learner.class_hypervectors_,
        )

    ratio = reference_seconds / exact_seconds
    print(
        f"\nExact training path ({len(y_train)} samples, total_dim={TOTAL_DIM}, "
        f"n_learners={N_LEARNERS}, epochs={EPOCHS}):\n"
        f"  reference : {reference_seconds * 1e3:8.1f} ms/fit\n"
        f"  exact     : {exact_seconds * 1e3:8.1f} ms/fit\n"
        f"  speedup   : {ratio:.2f}x (bit-identical model)"
    )
    assert ratio >= EXACT_FLOOR, (
        f"exact trainer only {ratio:.2f}x the reference loop "
        f"(required >= {EXACT_FLOOR}x)"
    )


def test_minibatch_speedup_and_accuracy_parity():
    """batch_size=64 fits >= 3x faster at matched nurse-stress accuracy."""
    X_train, X_test, y_train, y_test = _nurse_workload()
    reference_seconds, _ = _fit_seconds(X_train, y_train, trainer="reference")
    exact_seconds, exact = _fit_seconds(X_train, y_train)
    minibatch_seconds, minibatch = _fit_seconds(
        X_train, y_train, batch_size=BATCH_SIZE
    )

    exact_accuracy = exact.score(X_test, y_test)
    minibatch_accuracy = minibatch.score(X_test, y_test)
    ratio = reference_seconds / minibatch_seconds
    print(
        f"\nMini-batch training (batch_size={BATCH_SIZE}, {len(y_train)} samples, "
        f"total_dim={TOTAL_DIM}, epochs={EPOCHS}):\n"
        f"  reference  : {reference_seconds * 1e3:8.1f} ms/fit\n"
        f"  exact      : {exact_seconds * 1e3:8.1f} ms/fit\n"
        f"  mini-batch : {minibatch_seconds * 1e3:8.1f} ms/fit\n"
        f"  speedup    : {ratio:.2f}x vs reference "
        f"({exact_seconds / minibatch_seconds:.2f}x vs exact)\n"
        f"  accuracy   : exact {exact_accuracy:.3f} vs "
        f"mini-batch {minibatch_accuracy:.3f}"
    )
    assert ratio >= MINIBATCH_FLOOR, (
        f"mini-batch trainer only {ratio:.2f}x the reference loop "
        f"(required >= {MINIBATCH_FLOOR}x)"
    )
    assert abs(exact_accuracy - minibatch_accuracy) <= ACCURACY_BAND, (
        f"mini-batch accuracy {minibatch_accuracy:.3f} drifted more than "
        f"{ACCURACY_BAND} from exact {exact_accuracy:.3f}"
    )


def test_fit_encodes_each_learner_once(monkeypatch):
    """L encodes per default fit (2L for the reference), one block at a time."""
    X_train, _, y_train, _ = _nurse_workload()
    calls = {"n": 0}

    def counting(original):
        def encode(self, features):
            calls["n"] += 1
            return original(self, features)

        return encode

    monkeypatch.setattr(NonlinearEncoder, "encode", counting(NonlinearEncoder.encode))

    def fit(trainer=None, shared_projection=False):
        """The encoder calls and traced transient bytes of one fit.

        The transient is the traced peak less what the fitted model keeps
        (its encoders' bases and class hypervectors): at this workload's
        96 rows the bases alone weigh about three learner blocks.
        """
        calls["n"] = 0
        model = BoostHD(
            total_dim=TOTAL_DIM,
            n_learners=N_LEARNERS,
            epochs=EPOCHS,
            shared_projection=shared_projection,
            seed=0,
        )
        tracemalloc.start()
        try:
            model.fit(X_train, y_train, trainer=trainer)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return calls["n"], peak - retained

    reference_calls, _ = fit(trainer="reference")
    independent_calls, independent_transient = fit()
    shared_calls, shared_transient = fit(shared_projection=True)

    # Reference: every learner encodes to fit and again to estimate its
    # boosting error.  Default: the error estimate reuses the trained block.
    assert reference_calls == 2 * N_LEARNERS
    assert independent_calls == N_LEARNERS
    assert shared_calls == N_LEARNERS
    block = len(X_train) * (TOTAL_DIM // N_LEARNERS) * np.dtype(np.float64).itemsize
    print(
        f"\nEncoder calls per fit: reference {reference_calls}, default "
        f"{independent_calls} (independent) / {shared_calls} (shared); traced "
        f"transient {independent_transient / block:.1f} / "
        f"{shared_transient / block:.1f} learner blocks of {block / 1e6:.3f} MB"
    )
    for name, transient in (
        ("independent", independent_transient),
        ("shared", shared_transient),
    ):
        assert transient <= FIT_PEAK_BLOCKS * block, (
            f"{name} fit peaked {transient / block:.1f} learner blocks above "
            f"the fitted model (allowed {FIT_PEAK_BLOCKS})"
        )
