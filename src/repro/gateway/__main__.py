"""Standalone demo gateway: ``python -m repro.gateway [--port 8731] ...``.

Trains a small BoostHD ensemble on the synthetic WESAD-like dataset,
compiles it, stands up a :class:`~repro.serving.StreamingService` and
serves it through a :class:`~repro.gateway.Gateway` until SIGTERM/SIGINT —
at which point the gateway drains gracefully (stop accepting, flush every
pending window, answer every accepted window) and exits.  A setting the
gateway would refuse is a usage error (exit 2) before anything trains.

Try it::

    python -m repro.gateway --port 8731 &
    curl -s localhost:8731/healthz
    curl -s localhost:8731/readyz
    curl -s -XPOST localhost:8731/v1/sessions -d '{"session_id": "demo"}'
    kill -TERM %1    # graceful drain
"""

from __future__ import annotations

import argparse
import asyncio

from ..core.boosthd import BoostHD
from ..data import CHANNELS, SignalSimulator, load_wesad
from ..engine import EngineError, compile_model, resolve_precision
from ..serving import StreamingService
from .app import Gateway, _drain_budget
from .limits import ConcurrencyLimiter, _burst, _rate


def build_service(*, precision: str = "fixed16") -> StreamingService:
    """A demo StreamingService over a freshly trained synthetic model (seed 0)."""
    dataset = load_wesad(n_subjects=6, windows_per_state=10, seed=0)
    model = BoostHD(total_dim=1000, n_learners=8, epochs=8, seed=0)
    model.fit(dataset.X, dataset.y)
    engine = compile_model(model, precision=precision)
    simulator = SignalSimulator(
        sampling_rate=32, window_seconds=20, noise_level=0.9, class_overlap=0.03, rng=0
    )
    return StreamingService(
        engine,
        n_channels=len(CHANNELS),
        window_samples=simulator.samples_per_window,
        max_batch=16,
        max_wait=0.010,
        transform=dataset.scaler.transform,
        max_pending=512,
    )


def _checked_by(check):
    """An argparse ``type``: the flag's text through ``check``, whose
    refusal becomes the flag's usage error."""

    def convert(text: str):
        try:
            return check(text)
        except (ValueError, EngineError) as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return convert


async def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731)
    parser.add_argument(
        "--rate",
        type=_checked_by(lambda text: _rate(float(text))),
        default=200.0,
        help="per-client req/s",
    )
    parser.add_argument(
        "--burst", type=_checked_by(lambda text: _burst(float(text))), default=50.0
    )
    parser.add_argument(
        "--max-concurrent",
        type=_checked_by(lambda text: ConcurrencyLimiter(int(text)).limit),
        default=256,
    )
    parser.add_argument(
        "--drain-deadline",
        type=_checked_by(lambda text: _drain_budget(float(text))),
        default=5.0,
    )
    parser.add_argument(
        "--precision", type=_checked_by(resolve_precision), default="fixed16"
    )
    args = parser.parse_args()

    print("Training the demo model (synthetic WESAD-like)...")
    service = build_service(precision=args.precision)
    gateway = Gateway(
        service,
        host=args.host,
        port=args.port,
        rate=args.rate,
        burst=args.burst,
        max_concurrent=args.max_concurrent,
        drain_deadline=args.drain_deadline,
    )
    await gateway.start()
    print(
        f"Gateway listening on http://{gateway.host}:{gateway.port} "
        f"(rate={args.rate}/s, burst={args.burst}, "
        f"max_concurrent={args.max_concurrent}); SIGTERM drains gracefully."
    )
    await gateway.serve_forever()
    print(f"Drained: {gateway.stats!r}")


if __name__ == "__main__":
    asyncio.run(main())
