"""The gateway process of the gateway phase: ``python3 -m perfbench.gateway_child``.

Reads one length-prefixed pickled config from standard input (the compiled
engine, the scaler, the windowing and whether to trace), serves a fixed16
:class:`~repro.serving.StreamingService` (``max_batch=8``, ``max_wait=2 ms``)
through a :class:`~repro.gateway.Gateway` on a free localhost port, and
prints ``{"port": ...}``.  Closing standard input drains and stops the
gateway; the process then prints one JSON report line: CPU seconds spent
serving, asyncio loop errors caught by an installed exception handler, the
gateway and scheduler counters, peak RSS and, when traced, the per-span
aggregates (the spans go to ``trace_path`` as a Chrome trace).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import pickle
import resource
import struct
import sys
import threading
import time

from repro.gateway import Gateway
from repro.serving import StreamingService

from .tracer import aggregate, instrument, recorder, write_trace

MAX_BATCH = 8
MAX_WAIT_S = 0.002
DRAIN_DEADLINE_S = 5.0


def read_config(stream) -> dict:
    (length,) = struct.unpack("<Q", stream.read(8))
    return pickle.loads(stream.read(length))


async def serve(service: StreamingService) -> dict:
    loop = asyncio.get_running_loop()
    errors: list = []

    def on_loop_error(_loop, context) -> None:
        errors.append(context.get("message") or repr(context.get("exception")))

    loop.set_exception_handler(on_loop_error)
    gateway = Gateway(service)
    await gateway.start()
    stop = asyncio.Event()

    def wait_for_eof() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_eof, daemon=True).start()
    print(json.dumps({"port": gateway.port}), flush=True)
    cpu = time.process_time()
    await stop.wait()
    cpu = time.process_time() - cpu
    drain = await gateway.shutdown(DRAIN_DEADLINE_S)
    await asyncio.sleep(0.05)  # let reaped handlers finish so their errors count
    stats = service.stats
    return {
        "cpu_s": cpu,
        "loop_errors": len(errors),
        "loop_error_messages": errors[:3],
        "gateway": gateway.stats.as_dict(),
        "drain": drain,
        "scheduler": {
            "windows": stats.windows_scored,
            "batches": stats.batches,
            "shed": stats.windows_shed,
            "dead": stats.windows_dead,
            "failures": stats.score_failures,
        },
    }


def main() -> None:
    config = read_config(sys.stdin.buffer)
    spans = recorder()
    with instrument(spans) if config["trace"] else contextlib.nullcontext():
        service = StreamingService(
            config["engine"],
            n_channels=config["n_channels"],
            window_samples=config["window_samples"],
            smoothing_window=config["smoothing_window"],
            max_batch=MAX_BATCH,
            max_wait=MAX_WAIT_S,
            transform=config["scaler"].transform,
        )
        report = asyncio.run(serve(service))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if config["trace"]:
        records = list(spans.spans)
        write_trace(config["trace_path"], records)
        report["trace"] = aggregate(records)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
