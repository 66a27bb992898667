"""Thread-parallel blocked row scoring for the integer-domain engines.

The quantized scoring kernels of :mod:`repro.engine.quant` are embarrassingly
parallel over query rows: packed scoring is XOR + popcount per (row, class)
pair, fixed-point scoring quantizes each row with its own scale and computes
exact dot products with a float64 BLAS matmul over integer-valued operands.
NumPy releases the GIL inside all of those inner loops (``bitwise_xor``,
``bitwise_count``, the BLAS ``matmul``, ``einsum``), so plain
``ThreadPoolExecutor`` threads scale them across cores without any
multiprocessing serialization — the class codes are shared read-only, and
each thread writes a *disjoint* contiguous row range of one preallocated
output.

Determinism is structural, not statistical: every kernel invocation computes
a row range whose arithmetic is exact (XOR/popcount on integer words, and
matmuls whose float64 operands, products and partial sums are all integers
below ``2**53``, so no summation order can round; the other float steps are
elementwise per row) and independent of every other range, so the scores
are **bit-identical at any thread count and any row blocking** — the
property ``tests/test_threaded_scoring.py`` pins with hypothesis.  This is
why only the integer engines thread here: the float engine's BLAS matmul
rounds, so its bits may change with the row blocking.

Thread-count resolution mirrors ``REPRO_MAX_WORKERS`` in
:func:`repro.runtime.executor.resolve_max_workers`: ``None`` consults the
``REPRO_SCORE_THREADS`` environment variable and falls back to serial,
``0``/``1`` force serial, ``"auto"`` uses the usable (affinity-aware) CPU
count.  Worker pools are cached per size and reused across scoring calls;
when a pool cannot be created (thread limits, interpreter shutdown) the same
row blocks run serially in submission order — identical results, no error.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from ..obs import OBS

__all__ = [
    "available_cpus",
    "resolve_score_threads",
    "row_blocks",
    "run_row_blocks",
]

#: Environment variable consulted when no explicit thread count is given.
SCORE_THREADS_ENV = "REPRO_SCORE_THREADS"

ThreadCount = "int | str | None"


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware).

    Mirrors :func:`repro.runtime.executor.available_cpus`; duplicated here so
    the engine layer never imports the experiment runtime.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def resolve_score_threads(threads: int | str | None = None) -> int:
    """Normalise a scoring-thread request to a concrete count (>= 1).

    ``None`` reads ``REPRO_SCORE_THREADS`` (empty/unset means serial);
    ``"auto"`` uses :func:`available_cpus`; anything else is coerced to an
    integer and clamped to at least 1.
    """
    if threads is None:
        env = os.environ.get(SCORE_THREADS_ENV, "").strip()
        if not env:
            return 1
        threads = env
    if isinstance(threads, str):
        if threads.lower() == "auto":
            return max(1, available_cpus())
        threads = int(threads)
    return max(1, int(threads))


def row_blocks(n_rows: int, n_blocks: int) -> list[slice]:
    """Split ``[0, n_rows)`` into contiguous, in-order slices.

    At most ``n_blocks`` slices, as even as possible (sizes differ by at most
    one, larger blocks first).  Covers every row exactly once — the partition
    itself never affects results, only which thread touches which rows.
    """
    if n_rows < 0:
        raise ValueError(f"n_rows must be >= 0, got {n_rows}")
    n_blocks = max(1, min(int(n_blocks), n_rows)) if n_rows else 0
    base, extra = divmod(n_rows, n_blocks) if n_blocks else (0, 0)
    blocks: list[slice] = []
    start = 0
    for index in range(n_blocks):
        stop = start + base + (1 if index < extra else 0)
        blocks.append(slice(start, stop))
        start = stop
    return blocks


# --------------------------------------------------------------------------
# Cached scoring pools.  A pool per distinct size, created lazily and reused
# for the life of the process; ThreadPoolExecutor workers idle between calls,
# so repeated micro-batch scoring pays thread startup exactly once.
# --------------------------------------------------------------------------

_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _score_pool(threads: int) -> ThreadPoolExecutor | None:
    """The shared pool for ``threads`` workers, or ``None`` if unavailable."""
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            try:
                pool = ThreadPoolExecutor(
                    max_workers=threads, thread_name_prefix="repro-score"
                )
            except Exception:
                return None
            _POOLS[threads] = pool
        return pool


def run_row_blocks(
    kernel: Callable[[slice], None],
    n_rows: int,
    *,
    threads: int | str | None = None,
) -> int:
    """Run ``kernel`` over contiguous row blocks, possibly on a thread pool.

    ``kernel(rows)`` must compute rows ``rows`` of the result and write them
    into pre-allocated output — it must never read or write any other row's
    output, which is what makes any blocking bit-identical to the serial
    ``kernel(slice(0, n_rows))`` call.

    Returns the number of blocks that actually ran concurrently (1 when the
    request resolved to serial, the batch was too small to split, or the
    pool was unavailable and the blocks ran serially as a fallback).
    """
    resolved = resolve_score_threads(threads)
    if n_rows <= 0:
        return 1
    usable = min(resolved, n_rows)
    if usable <= 1:
        kernel(slice(0, n_rows))
        _record_blocks(1)
        return 1
    blocks = row_blocks(n_rows, usable)
    pool = _score_pool(usable)
    if pool is None:
        for rows in blocks:
            kernel(rows)
        _record_blocks(1, fallback=True)
        return 1
    futures = []
    try:
        for rows in blocks:
            futures.append(pool.submit(kernel, rows))
    except RuntimeError:
        # Pool refused work (shutdown / thread-start failure): finish what
        # was submitted, then run the remainder serially.  Every block still
        # runs exactly once, so the result is unchanged.
        for future in futures:
            future.result()
        for rows in blocks[len(futures) :]:
            kernel(rows)
        _record_blocks(1, fallback=True)
        return 1
    for future in futures:
        future.result()
    _record_blocks(len(blocks))
    return len(blocks)


def _record_blocks(n_blocks: int, *, fallback: bool = False) -> None:
    """Telemetry for one :func:`run_row_blocks` call (no-op when obs is off)."""
    if not OBS.enabled:
        return
    OBS.metrics.counter(
        "repro_threads_row_blocks_total",
        "Row blocks executed by the scoring thread pool (1 per serial call).",
    ).inc(n_blocks)
    if fallback:
        OBS.metrics.counter(
            "repro_threads_serial_fallbacks_total",
            "Threaded scoring requests that fell back to serial execution.",
        ).inc()
