"""Gateway demo: an HTTP client against the async network edge.

Run with::

    python examples/gateway_client.py

The script walks the full network-edge lifecycle of :mod:`repro.gateway`:

1. train a small BoostHD ensemble on the synthetic WESAD-like dataset,
   compile it to the fixed16 integer engine and stand up a
   :class:`~repro.serving.StreamingService`,
2. start a :class:`~repro.gateway.Gateway` on an ephemeral port — one
   asyncio event loop speaking HTTP/1.1, with per-client token-bucket
   admission control and deadline propagation,
3. drive it with :class:`~repro.gateway.GatewayClient`: open a session (a
   session is an id; its windowing is the service's), stream raw signal
   chunks, force a flush, and read the strict-JSON predictions (``status``
   ``"scored"``/``"shed"``, never NaN),
4. show the probes and the edge ledger (``/readyz``, ``/v1/stats``), then
   drain the gateway gracefully and verify zero accepted-window loss.
"""

from __future__ import annotations

import asyncio

from repro import BoostHD, load_wesad
from repro.data import CHANNELS, WESAD_STATES, SignalSimulator
from repro.engine import compile_model
from repro.gateway import Gateway, GatewayClient
from repro.serving import StreamingService

CHUNKS_PER_SUBJECT = 6


def build_service() -> tuple[StreamingService, SignalSimulator]:
    print("Training BoostHD on a synthetic WESAD-like dataset...")
    dataset = load_wesad(n_subjects=6, windows_per_state=10, seed=0)
    model = BoostHD(total_dim=1000, n_learners=8, epochs=8, seed=0)
    model.fit(dataset.X, dataset.y)
    engine = compile_model(model, precision="fixed16")
    # The simulator must match load_wesad's signal configuration (32 Hz,
    # 20 s windows) or the feature distribution shifts under the model.
    simulator = SignalSimulator(
        sampling_rate=32, window_seconds=20, noise_level=0.9, class_overlap=0.03, rng=1
    )
    service = StreamingService(
        engine,
        n_channels=len(CHANNELS),
        window_samples=simulator.samples_per_window,
        max_batch=8,
        max_wait=0.010,
        transform=dataset.scaler.transform,
        max_pending=256,
    )
    return service, simulator


async def http_subject(gateway: Gateway, simulator: SignalSimulator) -> None:
    print("\nHTTP: streaming one subject through a keep-alive connection...")
    async with GatewayClient(
        gateway.host, gateway.port, client_id="subject-http", deadline_ms=2000
    ) as client:
        status, body = await client.open_session("subject-http")
        print(f"  POST /v1/sessions -> {status} {body}")

        released = []
        for chunk in simulator.stream_chunks(
            WESAD_STATES[1],  # stress
            chunk_samples=simulator.samples_per_window,
            n_chunks=CHUNKS_PER_SUBJECT,
        ):
            status, body = await client.feed("subject-http", chunk.tolist())
            released.extend(body["predictions"])
        status, body = await client.score("subject-http")
        released.extend(body["predictions"])
        print(f"  {len(released)} predictions; first on the wire:")
        first = released[0]
        print(
            f"    session={first['session_id']} window={first['window_index']}"
            f" status={first['status']} label={first['label']}"
            f" batch={first['batch_size']}"
            f" queue={first['queue_seconds'] * 1000:.2f}ms"
        )

        status, body = await client.readyz()
        print(f"  GET /readyz -> {status} (draining={body['draining']})")
        await client.close_session("subject-http")


async def main() -> None:
    service, simulator = build_service()
    gateway = Gateway(service, port=0, rate=200.0, burst=50, max_concurrent=64)
    await gateway.start()
    print(f"Gateway listening on {gateway.base_url}")

    await http_subject(gateway, simulator)

    print("\nEdge ledger (/v1/stats):")
    async with GatewayClient(gateway.host, gateway.port) as client:
        _, stats = await client.stats()
    edge = stats["gateway"]
    print(
        f"  requests={edge['requests']} answered={edge['windows_answered']}"
        f" shed={edge['windows_shed']} rate_limited={edge['rejected_rate_limited']}"
    )

    print("\nDraining (the SIGTERM path)...")
    report = await gateway.shutdown()
    backend = service.scheduler.stats
    print(
        f"  drained clean={report['clean']} in {report['seconds'] * 1000:.1f}ms; "
        f"gateway answered+shed = "
        f"{gateway.stats.windows_answered + gateway.stats.windows_shed}, "
        f"scheduler scored+shed = "
        f"{backend.windows_scored + backend.windows_shed} (zero loss)"
    )


if __name__ == "__main__":
    asyncio.run(main())
