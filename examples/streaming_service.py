"""Streaming service demo: a simulated cohort monitored through one scheduler.

Run with::

    python examples/streaming_service.py

The script walks the full serving lifecycle of :mod:`repro.serving`:

1. train a BoostHD ensemble offline on the synthetic WESAD-like dataset and
   publish it to a :class:`~repro.serving.ModelRegistry`,
2. in a fresh "service process" role, load + compile the model from the
   registry (no retraining) and stand up a :class:`~repro.serving.StreamingService`,
3. stream a cohort of simulated subjects — each in their own affective state
   — chunk by chunk into per-subject sessions; completed windows are
   featurized incrementally and scored in micro-batches,
4. report per-subject predictions and the scheduler's batching/latency
   statistics, then demonstrate drift-aware online adaptation from a few
   labeled feedback windows.
"""

from __future__ import annotations

import tempfile

from repro import BoostHD, ModelRegistry, StreamingService, load_wesad
from repro.data import CHANNELS, WESAD_STATES, SignalSimulator
from repro.serving import AdaptiveModel

N_SUBJECTS = 6
CHUNKS_PER_SUBJECT = 8


def main() -> None:
    print("Offline: training BoostHD on a synthetic WESAD-like dataset...")
    dataset = load_wesad(n_subjects=8, windows_per_state=12, seed=0)
    X_train, X_test, y_train, y_test = dataset.split(test_fraction=0.3, rng=7)
    model = BoostHD(total_dim=1000, n_learners=10, epochs=10, seed=0)
    model.fit(X_train, y_train)
    print(f"  held-out accuracy: {model.score(X_test, y_test):.4f}")

    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        version = registry.save(
            "stress-monitor", model, metadata={"dataset": "wesad-synthetic"}
        )
        print(f"  published to registry as stress-monitor v{version}")

        print("\nService: loading + compiling from the registry (no retrain)...")
        served = AdaptiveModel(registry.load("stress-monitor"))
        # The deployment simulator must match the training loader's
        # configuration (load_wesad trains at 32 Hz / 20 s windows with
        # noise_level=0.9, class_overlap=0.03) — a mismatched config shifts
        # the feature distribution and looks like a model bug.
        simulator = SignalSimulator(
            sampling_rate=32,
            window_seconds=20,
            noise_level=0.9,
            class_overlap=0.03,
            rng=42,
        )
        window = simulator.samples_per_window
        service = StreamingService(
            served,
            n_channels=len(CHANNELS),
            window_samples=window,
            max_batch=16,
            max_wait=1e9,  # demo is synchronous; release on full batches only
            transform=dataset.scaler.transform,  # models see scaled features
        )

        print(f"\nStreaming {N_SUBJECTS} subjects ({CHUNKS_PER_SUBJECT} chunks each)...")
        subjects = {}
        streams = {}
        for index in range(N_SUBJECTS):
            session_id = f"subject-{index}"
            state = WESAD_STATES[index % len(WESAD_STATES)]
            subjects[session_id] = state.name
            streams[session_id] = simulator.stream_chunks(
                state,
                simulator.random_subject(),
                chunk_samples=window // 2,
                n_chunks=CHUNKS_PER_SUBJECT,
            )
            service.open_session(session_id)

        predictions: dict[str, list] = {sid: [] for sid in subjects}
        # Interleave the cohort chunk by chunk, as a gateway would see it.
        for _ in range(CHUNKS_PER_SUBJECT):
            for session_id, stream in streams.items():
                for prediction in service.push(session_id, next(stream)):
                    predictions[prediction.session_id].append(prediction)
        for prediction in service.drain():
            predictions[prediction.session_id].append(prediction)

        label_names = dataset.class_names
        for session_id, state_name in subjects.items():
            labels = [label_names[int(p.label)] for p in predictions[session_id]]
            print(f"  {session_id} (true state: {state_name:9s}) -> {labels}")

        stats = service.stats
        print(
            f"\nScheduler: {stats.windows_scored} windows in {stats.batches} fused "
            f"batches (mean batch {stats.mean_batch_size:.1f}), "
            f"p50 {stats.latency_percentile(50) * 1e3:.2f} ms, "
            f"p99 {stats.latency_percentile(99) * 1e3:.2f} ms"
        )

        print(
            f"\nDrift monitor after {served.monitor.observed} scored windows: "
            f"rolling margin "
            f"{0.0 if served.monitor.rolling_margin is None else served.monitor.rolling_margin:.4f}"
        )
        print("Applying labeled feedback (online adaptation, no retrain)...")
        served.feedback(X_test[:20], y_test[:20])
        _ = served.compiled  # recompile happens lazily, here for the printout
        print(
            f"  feedback samples: {served.feedback_samples}, "
            f"engine recompiles: {served.recompiles}"
        )


if __name__ == "__main__":
    main()
