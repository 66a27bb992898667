"""Parallel grid execution: process pool with a serial fallback.

Two entry points:

* :func:`parallel_map` — order-preserving map of a top-level function over a
  list of picklable items, with a *shared payload* shipped to every worker
  exactly once (via the pool initializer).  The experiment figure/table
  generators route their inner loops through this.
* :class:`ParallelExecutor` — the suite engine: executes a
  :class:`~repro.runtime.plan.GridPlan` cell by cell, checkpointing every
  completed cell into an optional :class:`~repro.runtime.store.ArtifactStore`
  (so interrupted runs resume) and producing a
  :class:`~repro.runtime.report.RunReport`.

Determinism: a cell's result depends only on its task (which carries its own
derived seed) and on the dataset split, never on which worker runs it or in
what order — so serial and parallel execution are bit-identical.  Workers
either receive the precomputed splits once (explicit datasets) or regenerate
their datasets locally from the same seeds (``LoaderSource``, the per-worker
dataset-loading path that avoids shipping arrays altogether).

``max_workers`` resolution (:func:`resolve_max_workers`): ``None`` consults
the ``REPRO_MAX_WORKERS`` environment variable and falls back to serial;
``0``/``1`` force serial; ``"auto"`` uses the available CPU count.  Every
pool in the repo sizes itself this way, the serving fabric's included.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from ..obs import OBS, scoped_registry
from ..obs.metrics import MetricsRegistry
from .report import RunReport
from .seeding import dataset_seeds

if TYPE_CHECKING:
    from ..experiments.config import ExperimentScale
    from .cells import CellResult
    from .plan import CellTask, GridPlan
    from .store import ArtifactStore

__all__ = [
    "SplitSource",
    "LoaderSource",
    "ParallelExecutor",
    "parallel_map",
    "resolve_max_workers",
    "get_shared",
]

T = TypeVar("T")
U = TypeVar("U")

Split = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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


# --------------------------------------------------------------------------
# Shared payload plumbing.  The payload is installed once per worker by the
# pool initializer; the serial fallback installs it in-process so cell
# functions read it identically on both paths.
# --------------------------------------------------------------------------

_SHARED: object = None


def _set_shared(payload: object) -> None:
    global _SHARED
    _SHARED = payload


def get_shared() -> object:
    """The shared payload installed for the current (worker) process."""
    return _SHARED


def parallel_map(
    fn: Callable[[T], U],
    items: Iterable[T],
    *,
    max_workers: int | str | None = None,
    shared: object = None,
    chunk_size: int | None = None,
) -> list[U]:
    """Order-preserving map with an optional process pool.

    ``fn`` must be a module-level (picklable) function when ``max_workers``
    resolves to more than one worker; ``shared`` is shipped to every worker
    once and read back through :func:`get_shared`.  With one worker the map
    runs serially in-process through the exact same code path.
    """
    items = list(items)
    workers = resolve_max_workers(max_workers)
    if workers <= 1 or len(items) <= 1:
        previous = _SHARED
        _set_shared(shared)
        try:
            return [fn(item) for item in items]
        finally:
            _set_shared(previous)
    if chunk_size is None:
        chunk_size = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_shared, initargs=(shared,)
    ) as pool:
        return list(pool.map(fn, items, chunksize=max(1, int(chunk_size))))


# --------------------------------------------------------------------------
# Suite data sources.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSource:
    """Precomputed train/test splits, shipped to each worker once.

    Used when the caller passes explicit dataset objects to ``run_suite``;
    the artifact-store fingerprint is the SHA-256 of the split arrays, so
    different data can never replay each other's cells.
    """

    splits: Mapping[str, Split]
    #: Per-dataset fingerprint cache: hashing the split arrays is O(data) and
    #: the same dataset appears in (models x runs) cells.
    _fingerprints: dict = field(default_factory=dict, repr=False, compare=False)

    def fingerprint(self, name: str) -> str:
        if name not in self._fingerprints:
            digest = hashlib.sha256()
            for array in self.splits[name]:
                array = np.ascontiguousarray(array)
                digest.update(str(array.dtype).encode())
                digest.update(str(array.shape).encode())
                digest.update(array.tobytes())
            self._fingerprints[name] = digest.hexdigest()
        return self._fingerprints[name]

    def split_for(self, name: str) -> Split:
        return self.splits[name]


@dataclass(frozen=True)
class LoaderSource:
    """Per-worker dataset loading: each worker regenerates its datasets.

    Carries only the generation recipe (canonical names, scale, root seed,
    split configuration); every worker loads a dataset lazily on first use
    and caches it for the rest of its life.  Because generation and the
    subject-wise split are seed-deterministic, all workers see bit-identical
    arrays without any being shipped between processes.
    """

    names: tuple[str, ...]
    scale: "ExperimentScale"
    seed: int | None
    test_fraction: float
    split_seed: int

    def dataset_seed(self, name: str) -> int:
        return dataset_seeds([name], self.names, self.seed)[name]

    def fingerprint(self, name: str) -> str:
        recipe = (
            f"loader:{name}:seed={self.dataset_seed(name)}"
            f":scale={self.scale.name}"
        )
        return hashlib.sha256(recipe.encode("utf-8")).hexdigest()

    def split_for(self, name: str) -> Split:
        from ..experiments.runner import load_dataset

        dataset = load_dataset(name, self.scale, seed=self.dataset_seed(name))
        return dataset.split(test_fraction=self.test_fraction, rng=self.split_seed)


# --------------------------------------------------------------------------
# Worker-side cell execution.
# --------------------------------------------------------------------------

_CELL_CONTEXT: dict | None = None


def _init_cell_worker(
    source: SplitSource | LoaderSource,
    scale: "ExperimentScale",
    engine: bool,
    obs_enabled: bool = False,
) -> None:
    global _CELL_CONTEXT
    _CELL_CONTEXT = {
        "source": source,
        "scale": scale,
        "engine": engine,
        "splits": {},
    }
    if obs_enabled:
        # Worker processes inherit the parent's telemetry decision: each gets
        # a *fresh* registry/recorder whose deltas ride back with the results.
        # Fresh matters under fork: the child would otherwise inherit the
        # parent's accumulated counts and ship them again as its first delta.
        from ..obs import enable
        from ..obs.trace import SpanRecorder

        enable(MetricsRegistry(), SpanRecorder())


def _context_split(name: str) -> Split:
    cache = _CELL_CONTEXT["splits"]
    if name not in cache:
        cache[name] = _CELL_CONTEXT["source"].split_for(name)
    return cache[name]


def _run_cell_chunk(tasks: Sequence["CellTask"]) -> list["CellResult"]:
    from . import cells

    return [
        cells.execute_cell(
            task,
            _context_split(task.dataset),
            _CELL_CONTEXT["scale"],
            engine=_CELL_CONTEXT["engine"],
        )
        for task in tasks
    ]


def _run_cell_chunk_observed(
    tasks: Sequence["CellTask"],
) -> tuple[list["CellResult"], dict, list]:
    """Run a chunk and ship the worker's telemetry deltas with the results.

    The worker registry snapshot is taken with ``reset=True`` so consecutive
    chunks produce *deltas*: deltas from any partition of the cells, merged
    in any order, equal the serial run's registry (counters exactly).
    """
    results = _run_cell_chunk(tasks)
    snapshot = OBS.metrics.snapshot(reset=True)
    spans = OBS.recorder.drain()
    return results, snapshot, spans


def _cell_spec(
    plan: "GridPlan",
    cell: "CellTask",
    source: SplitSource | LoaderSource,
    *,
    engine: bool,
) -> dict:
    """The content-hashed identity of one cell's computation."""
    return {
        "version": 1,
        "dataset": cell.dataset,
        "model": cell.model,
        "run_index": cell.run_index,
        "seed": cell.seed,
        "root_seed": plan.seed,
        "test_fraction": plan.test_fraction,
        "split_seed": plan.split_seed,
        "scale": asdict(plan.scale),
        "data": source.fingerprint(cell.dataset),
        "engine": bool(engine),
    }


class ParallelExecutor:
    """Executes a :class:`GridPlan` on a process pool, checkpointing cells.

    ``max_workers`` <= 1 is the serial fallback: the same cell code runs
    in-process, still checkpointing into the store after every cell so even
    serial runs are resumable.  ``chunk_size`` controls how many cells each
    pool task carries (default: enough chunks for ~4 waves per worker, which
    amortises IPC without starving the pool on straggler cells).
    """

    def __init__(
        self,
        max_workers: int | str | None = None,
        *,
        chunk_size: int | None = None,
    ):
        self.max_workers = resolve_max_workers(max_workers)
        self.chunk_size = chunk_size

    def run(
        self,
        plan: "GridPlan",
        source: SplitSource | LoaderSource,
        *,
        store: "ArtifactStore | None" = None,
        engine: bool = True,
    ) -> tuple[list["CellResult"], RunReport]:
        """Execute every cell of ``plan``, returning results in plan order."""
        start = time.perf_counter()
        # Specs exist only to key the artifact store; without one, skip the
        # content hashing entirely (it is O(dataset bytes) per dataset).
        specs: dict["CellTask", dict] = {}
        if store is not None:
            specs = {
                cell: _cell_spec(plan, cell, source, engine=engine)
                for cell in plan.cells
            }

        results: dict["CellTask", "CellResult"] = {}
        pending: list["CellTask"] = []
        for cell in plan.cells:
            replayed = store.load(specs[cell]) if store is not None else None
            if replayed is not None:
                results[cell] = replayed
            else:
                pending.append(cell)

        obs_on = OBS.enabled
        run_registry = MetricsRegistry() if obs_on else None

        if self.max_workers <= 1 or len(pending) <= 1:
            _init_cell_worker(source, plan.scale, engine)
            try:
                # The serial path mirrors what workers do naturally: cells
                # record into a run-local registry whose snapshot becomes the
                # report's `metrics` (and merges into the parent afterwards).
                with scoped_registry(run_registry) if obs_on else nullcontext():
                    for cell in pending:
                        result = _run_cell_chunk([cell])[0]
                        if store is not None:
                            store.save(specs[cell], result)
                        results[cell] = result
            finally:
                global _CELL_CONTEXT
                _CELL_CONTEXT = None
        else:
            chunk_size = self.chunk_size
            if chunk_size is None:
                chunk_size = max(1, len(pending) // (self.max_workers * 4))
            chunks = [
                pending[index : index + chunk_size]
                for index in range(0, len(pending), chunk_size)
            ]
            by_coordinates = {
                (cell.dataset, cell.model, cell.run_index): cell for cell in pending
            }
            with ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_cell_worker,
                initargs=(source, plan.scale, engine, obs_on),
            ) as pool:
                runner = _run_cell_chunk_observed if obs_on else _run_cell_chunk
                futures = [pool.submit(runner, chunk) for chunk in chunks]
                for future in as_completed(futures):
                    payload = future.result()
                    if obs_on:
                        chunk_results, snapshot, spans = payload
                        run_registry.merge(snapshot)
                        OBS.recorder.extend(spans)
                    else:
                        chunk_results = payload
                    # Checkpoint as chunks land so an interrupt loses at most
                    # the in-flight chunks, never completed ones.
                    for result in chunk_results:
                        cell = by_coordinates[
                            (result.dataset, result.model, result.run_index)
                        ]
                        if store is not None:
                            store.save(specs[cell], result)
                        results[cell] = result

        elapsed = time.perf_counter() - start
        metrics_snapshot = None
        if obs_on:
            metrics_snapshot = run_registry.snapshot()
            # Fold the run's telemetry into the process-wide registry so the
            # suite run shows up on the parent's /metrics like everything else.
            OBS.metrics.merge(metrics_snapshot)
        ordered = [results[cell] for cell in plan.cells]
        report = RunReport.from_results(
            ordered,
            total_seconds=elapsed,
            max_workers=self.max_workers,
            metrics=metrics_snapshot,
        )
        return ordered, report
