"""Serving-layer benchmark: sessions x throughput x p50/p99 latency.

Holds :mod:`repro.serving` to its contract at a 64-session concurrent load:

* **Throughput** — micro-batched scheduling (one fused ``CompiledModel``
  call per coalesced batch) must reach >= 2x the windows/second of scoring
  each session's windows individually, with *identical* predictions.
* **Featurization** — the incremental per-sample path must match the batch
  feature pipeline to <= 1e-9 on simulator streams.
* **Registry** — a save -> load -> compile round trip must reproduce the
  served predictions exactly.
* **Cascade** — micro-batched serving behind a calibrated
  ``cascade-fixed16`` engine must reach >= 2x the windows/second of the
  same load served by the plain fixed16 engine, with predictions identical
  to the cascade's direct ``predict``.

Fast mode for CI (fewer sessions/windows, same assertions)::

    REPRO_BENCH_FAST=1 PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q
"""

import os
import time

import numpy as np
import pytest

from repro.core.boosthd import BoostHD
from repro.data import CHANNELS, SignalSimulator, WESAD_STATES
from repro.data.features import extract_features
from repro.engine import compile_model
from repro.serving import MicroBatchScheduler, ModelRegistry, StreamSession

#: Acceptance configuration (ISSUE 2): paper-scale ensemble, 64 sessions.
N_SESSIONS = 64
WINDOWS_PER_SESSION = 4 if os.environ.get("REPRO_BENCH_FAST") else 8
TOTAL_DIM = 2_000 if os.environ.get("REPRO_BENCH_FAST") else 10_000
N_LEARNERS = 10
MAX_BATCH = 64
THROUGHPUT_FLOOR = 2.0
CASCADE_SERVING_FLOOR = 2.0
#: The cascade contract always runs at paper scale: at small dims the
#: per-window scheduler overhead (shared by both paths) dilutes the packed
#: tier's advantage and the ratio measures bookkeeping, not scoring.
CASCADE_TOTAL_DIM = 10_000

N_FEATURES = len(CHANNELS) * 4


def _fitted_engine(seed=0, total_dim=None):
    """Paper-configuration ensemble on a quick synthetic problem.

    Serving cost does not depend on training quality, so the ensemble is
    fitted with ``epochs=0`` (bundling only) to keep the benchmark about the
    scoring paths.  Returns ``(model, engine, centers)`` — the class centers
    let callers draw in-distribution serving windows.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, N_FEATURES)) * 3.0
    X_train = np.vstack([c + rng.standard_normal((48, N_FEATURES)) for c in centers])
    y_train = np.repeat(np.arange(3), 48)
    model = BoostHD(
        total_dim=total_dim or TOTAL_DIM,
        n_learners=N_LEARNERS,
        epochs=0,
        seed=seed,
    ).fit(X_train, y_train)
    return model, model.compile(dtype=np.float32), centers


def _session_windows(seed=1):
    """Per-session ready feature vectors, interleaved in arrival order.

    Returns ``(order, features)`` where ``order[k] = (session, window_index)``
    and arrivals round-robin across sessions — the steady-state pattern of a
    cohort streaming in lockstep, which is the scheduler's worst case for
    per-session locality and its best case for coalescing.
    """
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((N_SESSIONS, WINDOWS_PER_SESSION, N_FEATURES))
    order = [
        (session, window)
        for window in range(WINDOWS_PER_SESSION)
        for session in range(N_SESSIONS)
    ]
    return order, features


def test_microbatch_throughput_vs_per_session():
    """Micro-batched scheduling >= 2x per-session scoring at 64 sessions."""
    _, engine, _ = _fitted_engine()
    order, features = _session_windows()
    n_windows = len(order)

    # Warm both paths once (BLAS spin-up, allocator effects).
    engine.predict(features[0])
    engine.predict(features[0, 0][None])

    # Per-session path: every ready window scored on its own, in arrival
    # order — what a naive service does without a scheduler.
    start = time.perf_counter()
    per_session_labels = [
        engine.predict(features[session, window][None])[0]
        for session, window in order
    ]
    per_session_seconds = time.perf_counter() - start

    # Micro-batched path: same arrivals coalesced by the scheduler.
    scheduler = MicroBatchScheduler(engine, max_batch=MAX_BATCH, max_wait=1e9)
    start = time.perf_counter()
    released = []
    for session, window in order:
        scheduler.submit(f"s{session}", window, features[session, window])
        released.extend(scheduler.pump())
    released.extend(scheduler.flush())
    batched_seconds = time.perf_counter() - start

    assert len(released) == n_windows
    batched_labels = {
        (prediction.session_id, prediction.window_index): prediction.label
        for prediction in released
    }
    for (session, window), expected in zip(order, per_session_labels):
        assert batched_labels[(f"s{session}", window)] == expected

    per_session_throughput = n_windows / per_session_seconds
    batched_throughput = n_windows / batched_seconds
    ratio = batched_throughput / per_session_throughput
    stats = scheduler.stats
    print(
        f"\nServing throughput ({N_SESSIONS} sessions x {WINDOWS_PER_SESSION} "
        f"windows, total_dim={TOTAL_DIM}, max_batch={MAX_BATCH}):\n"
        f"  per-session : {per_session_throughput:10.0f} windows/s "
        f"({per_session_seconds * 1e3 / n_windows:.3f} ms/window)\n"
        f"  micro-batch : {batched_throughput:10.0f} windows/s "
        f"(mean batch {stats.mean_batch_size:.1f}, "
        f"p50 {stats.latency_percentile(50) * 1e3:.2f} ms, "
        f"p99 {stats.latency_percentile(99) * 1e3:.2f} ms)\n"
        f"  speedup     : {ratio:.2f}x"
    )
    assert ratio >= THROUGHPUT_FLOOR, (
        f"micro-batched scheduling only {ratio:.2f}x the per-session "
        f"throughput (required >= {THROUGHPUT_FLOOR}x)"
    )


def test_incremental_featurization_matches_batch_on_streams():
    """Simulator streams through StreamSession == batch extract_features."""
    simulator = SignalSimulator(sampling_rate=16, window_seconds=4, rng=5)
    window = simulator.samples_per_window
    n_subjects = 4 if os.environ.get("REPRO_BENCH_FAST") else 8
    worst = 0.0
    for index in range(n_subjects):
        subject = simulator.random_subject()
        state = WESAD_STATES[index % len(WESAD_STATES)]
        stream = np.concatenate(
            list(
                simulator.stream_chunks(
                    state, subject, chunk_samples=window // 2, n_chunks=8
                )
            ),
            axis=1,
        )
        session = StreamSession(
            f"subject-{index}",
            n_channels=len(CHANNELS),
            window_samples=window,
            step_samples=window // 2,
        )
        ready = session.push(stream)
        starts = range(0, stream.shape[1] - window + 1, window // 2)
        reference = extract_features(
            np.stack([stream[:, s : s + window] for s in starts])
        )
        assert len(ready) == len(reference)
        produced = np.stack([r.features for r in ready])
        worst = max(worst, float(np.abs(produced - reference).max()))
    print(f"\nIncremental vs batch featurization: max |error| = {worst:.2e}")
    assert worst <= 1e-9


def test_registry_round_trip_preserves_served_predictions(tmp_path):
    """save -> load -> compile serves byte-identical predictions."""
    model, engine, _ = _fitted_engine(seed=2)
    _, features = _session_windows(seed=3)
    batch = features.reshape(-1, N_FEATURES)

    registry = ModelRegistry(tmp_path)
    version = registry.save("bench", model, metadata={"benchmark": "serving"})
    restored = registry.load_compiled("bench", version)

    np.testing.assert_array_equal(
        restored.decision_function(batch), engine.decision_function(batch)
    )
    np.testing.assert_array_equal(restored.predict(batch), engine.predict(batch))
    print(f"\nRegistry round trip: v{version}, predictions byte-identical")


def _serve(engine, order, features):
    """Micro-batch one arrival stream through ``engine``; return time/labels."""
    scheduler = MicroBatchScheduler(engine, max_batch=MAX_BATCH, max_wait=1e9)
    start = time.perf_counter()
    released = []
    for session, window in order:
        scheduler.submit(f"s{session}", window, features[session, window])
        released.extend(scheduler.pump())
    released.extend(scheduler.flush())
    seconds = time.perf_counter() - start
    labels = {
        (prediction.session_id, prediction.window_index): prediction.label
        for prediction in released
    }
    return seconds, labels


@pytest.mark.cascade
def test_cascade_serving_throughput_vs_fixed16():
    """Calibrated cascade serving >= 2x fixed16 serving, same predictions.

    The serving windows are drawn *in distribution* (around the training
    class centers): streamed physiological windows look like the cohort the
    model was trained on, and in-distribution margins are what make the
    cascade's early exit pay — the packed first pass settles confident
    windows and only near-tie windows reach the fixed16 rerank.  The
    threshold comes from ``calibrate_threshold`` in parity mode on a
    held-out cohort draw, and the served predictions must equal the
    cascade's direct ``predict`` on the same windows (both tiers are
    integer-exact, so micro-batch composition cannot change a label).
    """
    model, _, centers = _fitted_engine(total_dim=CASCADE_TOTAL_DIM)
    fixed16 = compile_model(model, dtype=np.float32, precision="fixed16")
    cascade = compile_model(model, dtype=np.float32, precision="cascade-fixed16")

    rng = np.random.default_rng(9)
    features = centers[
        rng.integers(0, len(centers), (N_SESSIONS, WINDOWS_PER_SESSION))
    ] + rng.standard_normal((N_SESSIONS, WINDOWS_PER_SESSION, N_FEATURES))
    order = [
        (session, window)
        for window in range(WINDOWS_PER_SESSION)
        for session in range(N_SESSIONS)
    ]
    calibration_draw = centers[
        rng.integers(0, len(centers), 4 * MAX_BATCH)
    ] + rng.standard_normal((4 * MAX_BATCH, N_FEATURES))
    calibration = cascade.calibrate_threshold(calibration_draw, target=0.99)

    flat = features.reshape(-1, N_FEATURES)
    direct = dict(
        zip(((f"s{s}", w) for s, w in order),
            cascade.predict(np.stack([features[s, w] for s, w in order])))
    )

    # Warm both engines, then take the best of three serving passes each.
    fixed16.predict(flat[:MAX_BATCH])
    cascade.predict(flat[:MAX_BATCH])
    cascade.stats.reset()
    fixed16_seconds, fixed16_labels = min(
        (_serve(fixed16, order, features) for _ in range(3)),
        key=lambda run: run[0],
    )
    cascade_seconds, cascade_labels = min(
        (_serve(cascade, order, features) for _ in range(3)),
        key=lambda run: run[0],
    )

    assert cascade_labels == direct
    assert set(fixed16_labels) == set(cascade_labels)

    n_windows = len(order)
    ratio = fixed16_seconds / cascade_seconds
    print(
        f"\nCascade serving ({N_SESSIONS} sessions x {WINDOWS_PER_SESSION} "
        f"windows, total_dim={CASCADE_TOTAL_DIM}, max_batch={MAX_BATCH}):\n"
        f"  fixed16 serving : {n_windows / fixed16_seconds:10.0f} windows/s\n"
        f"  cascade serving : {n_windows / cascade_seconds:10.0f} windows/s "
        f"(threshold {calibration.threshold:.4f}, "
        f"rerank {cascade.stats.rerank_fraction:.1%})\n"
        f"  speedup         : {ratio:.2f}x"
    )
    assert ratio >= CASCADE_SERVING_FLOOR, (
        f"cascade serving only {ratio:.2f}x fixed16 serving "
        f"(required >= {CASCADE_SERVING_FLOOR}x, "
        f"rerank fraction {cascade.stats.rerank_fraction:.1%})"
    )
