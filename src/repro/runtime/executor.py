"""The runtime's one process pool: :func:`parallel_map`.

:func:`parallel_map` is an order-preserving map of a top-level function over
a list of picklable items, with a *shared payload* shipped to every worker
exactly once (via the pool initializer).  ``run_suite``, the figure
generators and Table III route their cells through it.

Determinism: an item's result depends only on the item and the shared
payload, never on which worker runs it or in what order, so serial and
parallel maps are bit-identical.

Telemetry: with :data:`~repro.obs.OBS` on, each worker starts with a fresh
registry and recorder, and every result travels back with the registry delta
and the spans its item recorded.  The caller folds them into its live
instruments, so a pooled map records what the serial map records.

``max_workers`` resolution (:func:`resolve_max_workers`): ``None`` consults
the ``REPRO_MAX_WORKERS`` environment variable and falls back to serial;
``0``/``1`` force serial; ``"auto"`` uses the available CPU count.  Every
pool in the repo sizes itself this way, the serving fabric's included.  A
map never starts more workers than it has items, so one of at most one item
runs in-process whatever is asked (:func:`pool_size`), and a run report
names the pool its map ran on.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Iterable, TypeVar

from ..obs import OBS, MetricsRegistry, SpanRecorder, enable

__all__ = [
    "parallel_map",
    "pool_size",
    "resolve_max_workers",
    "get_shared",
]

T = TypeVar("T")
U = TypeVar("U")


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def resolve_max_workers(max_workers: int | str | None) -> int:
    """Normalise a worker-count request to a concrete pool size (>= 1).

    ``None`` consults ``REPRO_MAX_WORKERS`` and falls back to serial.
    """
    if max_workers is None:
        max_workers = os.environ.get("REPRO_MAX_WORKERS", "").strip()
        if not max_workers:
            return 1
    if isinstance(max_workers, str):
        if max_workers.lower() == "auto":
            return max(1, available_cpus())
        max_workers = int(max_workers)
    return max(1, int(max_workers))


def pool_size(max_workers: int | str | None, n_items: int) -> int:
    """Workers a map of ``n_items`` runs on: :func:`resolve_max_workers`,
    capped at the item count; 1 (in-process) for at most one item."""
    return max(1, min(resolve_max_workers(max_workers), n_items))


# --------------------------------------------------------------------------
# Shared payload plumbing.  The payload is installed once per worker by the
# pool initializer; the serial map installs it in-process so item functions
# read it identically on both paths.
# --------------------------------------------------------------------------

_SHARED: object = None


def _set_shared(payload: object) -> None:
    global _SHARED
    _SHARED = payload


def get_shared() -> object:
    """The shared payload installed for the current (worker) process."""
    return _SHARED


def _init_worker(shared: object, observed: bool) -> None:
    _set_shared(shared)
    if observed:
        # A fresh registry and recorder: under fork the child would otherwise
        # inherit the parent's counts and ship them again in its first delta.
        enable(MetricsRegistry(), SpanRecorder())


def _observed_call(fn: Callable[[T], U], item: T) -> tuple[U, dict, list]:
    """Run one item in a worker and ship the telemetry it recorded with it.

    ``snapshot(reset=True)`` makes consecutive snapshots deltas, which merge
    to the serial total in any order.  With telemetry off both are empty.
    """
    result = fn(item)
    return result, OBS.metrics.snapshot(reset=True), OBS.recorder.drain()


def parallel_map(
    fn: Callable[[T], U],
    items: Iterable[T],
    *,
    max_workers: int | str | None = None,
    shared: object = None,
) -> list[U]:
    """Order-preserving map with an optional process pool.

    ``fn`` must be a module-level (picklable) function when ``max_workers``
    resolves to more than one worker; ``shared`` is shipped to every worker
    once and read back through :func:`get_shared`.  With one worker, or one
    item, the map runs serially in-process (:func:`pool_size`); either way
    the counters and spans the items record land in the caller's live
    instruments.
    """
    items = list(items)
    workers = pool_size(max_workers, len(items))
    if workers == 1:
        previous = _SHARED
        _set_shared(shared)
        try:
            return [fn(item) for item in items]
        finally:
            _set_shared(previous)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(shared, OBS.enabled)
    ) as pool:
        outputs = list(
            pool.map(
                partial(_observed_call, fn),
                items,
                chunksize=max(1, len(items) // (workers * 4)),
            )
        )
    for _, delta, spans in outputs:
        OBS.metrics.merge(delta)
        OBS.recorder.extend(spans)
    return [result for result, _, _ in outputs]
