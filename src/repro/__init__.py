"""BoostHD reproduction: boosting in hyperdimensional computing for healthcare.

This package reproduces *"Exploiting Boosting in Hyperdimensional Computing
for Enhanced Reliability in Healthcare"* (DATE 2025) end to end on plain
``numpy``:

* :mod:`repro.hdc` — hyperdimensional-computing substrate (the encoder,
  similarity metrics, the OnlineHD classifier used as the weak learner),
* :mod:`repro.core` — the BoostHD ensemble itself plus the paper's span
  utilization and Marchenko–Pastur analyses,
* :mod:`repro.baselines` — from-scratch AdaBoost, Random Forest, gradient
  boosting, SVM and DNN baselines with a shared estimator API,
* :mod:`repro.data` — synthetic wearable stress-detection datasets standing in
  for WESAD / Nurse Stress / Stress-Predict, plus the imbalance and bit-flip
  perturbations the evaluation uses,
* :mod:`repro.engine` — the fused batch-inference engine that compiles a
  fitted ensemble into a single-pass scorer (stacked projections, one
  batched matmul over learner-stacked classes, memory-bounded row blocks),
* :mod:`repro.serving` — the streaming service layer: per-subject sessions
  with incremental featurization, a micro-batching scheduler over the fused
  engine, a versioned model registry, and drift-aware online adaptation,
* :mod:`repro.runtime` — the parallel, resumable experiment runtime: grid
  cells seeded by their run index, one order-preserving process pool map, a
  content-hashed artifact store for checkpoint/resume, and per-run
  utilization reports,
* :mod:`repro.analysis` and :mod:`repro.experiments` — the harness that
  regenerates every table and figure of the evaluation section.

Quick start::

    from repro import BoostHD, load_wesad

    dataset = load_wesad()
    X_train, X_test, y_train, y_test = dataset.split(rng=0)
    model = BoostHD(total_dim=1000, n_learners=10, seed=0).fit(X_train, y_train)
    print(model.score(X_test, y_test))
"""

from .core import BaggedHD, BoostHD
from .data import load_nurse_stress, load_stress_predict, load_wesad
from .engine import CompiledModel, compile_model
from .hdc import NonlinearEncoder, OnlineHD
from .runtime import ArtifactStore, RunReport
from .serving import (
    AdaptiveModel,
    DriftMonitor,
    MicroBatchScheduler,
    ModelRegistry,
    StreamingService,
    StreamSession,
)

__version__ = "1.2.0"

__all__ = [
    "BaggedHD",
    "BoostHD",
    "CompiledModel",
    "compile_model",
    "load_nurse_stress",
    "load_stress_predict",
    "load_wesad",
    "NonlinearEncoder",
    "OnlineHD",
    "ArtifactStore",
    "RunReport",
    "AdaptiveModel",
    "DriftMonitor",
    "MicroBatchScheduler",
    "ModelRegistry",
    "StreamingService",
    "StreamSession",
    "__version__",
]
