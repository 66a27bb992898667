"""Streaming multi-subject stress-monitoring service layer.

The paper's target deployment is *continuous* monitoring from wearables; the
rest of the repository scores pre-materialized window matrices.  This
subpackage is the missing layer between the two — it turns the fused batch
engine (:mod:`repro.engine`) into a long-running service:

* :mod:`repro.serving.session` — per-subject :class:`StreamSession` objects
  that ingest raw multi-channel samples and emit feature vectors via
  incremental (O(1)-per-sample) featurization, provably equal to the batch
  pipeline's :func:`repro.data.features.extract_features`;
* :mod:`repro.serving.scheduler` — :class:`MicroBatchScheduler` coalesces
  ready windows from any number of concurrent sessions into fused
  ``CompiledModel`` calls under ``max_batch`` / ``max_wait`` bounds, so
  service throughput scales with the engine's batch efficiency instead of
  degrading with session count;
* :mod:`repro.serving.registry` — :class:`ModelRegistry`, versioned
  npz-based save/load of fitted ``OnlineHD`` / ``BoostHD`` models (exact
  round trip, optional fixed-point hypervector storage, quantized-engine
  loads straight from stored codes via ``load_compiled``) so
  service processes never retrain;
* :mod:`repro.serving.adaptation` — :class:`DriftMonitor` (rolling
  score-margin drift detection) and :class:`AdaptiveModel` (opt-in OnlineHD
  style adaptation from labeled feedback, with automatic engine
  recompilation);
* :mod:`repro.serving.service` — :class:`StreamingService`, the facade
  wiring sessions into one scheduler;
* :mod:`repro.serving.shm` — zero-copy model distribution: a compiled
  engine's arrays laid once into a named ``multiprocessing.shared_memory``
  segment, rebuilt in any process as views over the shared pages;
* :mod:`repro.serving.fabric` — :class:`ServingFabric`, the multi-process
  scale-out: sessions sharded across N workers by a stable id hash, all
  scoring one shared model copy, with blue/green hot swap and the same
  serving calls as :class:`StreamingService`.

Failure semantics across the layer come from :mod:`repro.resilience`:
bounded retries with dead-lettering and explicit load shedding in the
scheduler, per-shard circuit breakers / call timeouts / hung-worker
recovery in the fabric, checksum-verified segments and crash-safe registry
writes underneath — see ``docs/resilience.md``.

Quick start::

    registry = ModelRegistry("models")
    registry.save("stress", BoostHD(...).fit(X, y))
    service = StreamingService(
        registry.load_compiled("stress"),
        n_channels=len(CHANNELS), window_samples=640,
    )
    service.open_session("subject-0")
    for chunk in simulator.stream_chunks(state, n_chunks=10):
        for prediction in service.push("subject-0", chunk):
            print(prediction.session_id, prediction.label)
    service.drain()

``benchmarks/bench_serving.py`` holds the subsystem to its contract:
micro-batched scheduling at >= 2x the throughput of per-session scoring at
64 concurrent sessions with identical predictions, incremental features
within 1e-9 of the batch pipeline, and exact registry round trips.
"""

from .adaptation import AdaptiveModel, DriftMonitor
from .fabric import ServingFabric, shard_of
from .registry import ModelRecord, ModelRegistry, RegistryError
from .scheduler import (
    SHED,
    DeadLetter,
    MicroBatchScheduler,
    Prediction,
    SchedulerStats,
)
from .service import StreamingService, SwapResult
from .session import ReadyWindow, StreamSession
from .shm import (
    AttachedEngine,
    IntegrityError,
    SharedModel,
    attach_engine,
    cleanup_orphan_segments,
    publish_engine,
    verify_manifest,
)

__all__ = [
    "AdaptiveModel",
    "AttachedEngine",
    "DeadLetter",
    "DriftMonitor",
    "IntegrityError",
    "ModelRecord",
    "ModelRegistry",
    "RegistryError",
    "MicroBatchScheduler",
    "Prediction",
    "SchedulerStats",
    "SHED",
    "ServingFabric",
    "SharedModel",
    "StreamingService",
    "SwapResult",
    "ReadyWindow",
    "StreamSession",
    "attach_engine",
    "cleanup_orphan_segments",
    "publish_engine",
    "shard_of",
    "verify_manifest",
]
