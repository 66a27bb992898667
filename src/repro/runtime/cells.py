"""The suite's cell: what a worker process runs for one ``run_suite`` cell.

Everything here is a *top-level* function operating on plain picklable
payloads, so the same code path runs unchanged in-process and in
:func:`~repro.runtime.executor.parallel_map` worker processes.  Heavy
package imports happen inside the functions: workers pay them once, and the
module itself stays import-cycle-free (``repro.runtime`` must not pull in
``repro.experiments`` at import time, because the experiments package imports
the runtime).

Shared, read-only inputs (the train/test splits, the scale, the artifact
store) travel through the map's *shared payload*, not through each item, so
they are shipped to every worker exactly once.  The figure and Table III
cells live beside their generators in :mod:`repro.experiments`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs import OBS
from .executor import get_shared

if TYPE_CHECKING:  # runtime imports are lazy to avoid a package cycle
    from ..baselines.base import BaseClassifier
    from .plan import CellTask

__all__ = ["CellResult", "RunSample", "single_run", "execute_cell", "suite_cell"]

Split = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class RunSample:
    """Raw measurements of one train/evaluate pass of one model instance."""

    accuracy: float
    train_seconds: float
    inference_seconds_per_query: float
    engine_seconds_per_query: float | None = None


@dataclass(frozen=True)
class CellResult:
    """Completed grid cell: one model run on one dataset, fully measured.

    ``wall_seconds`` is the cell's total wall time (training + evaluation +
    the optional engine pass); ``worker`` records the executing process id so
    :class:`~repro.runtime.report.RunReport` can attribute work to workers.
    ``cached`` is True when the result was replayed from an
    :class:`~repro.runtime.store.ArtifactStore` instead of recomputed.
    """

    dataset: str
    model: str
    run_index: int
    accuracy: float
    train_seconds: float
    inference_seconds_per_query: float
    engine_seconds_per_query: float | None = None
    wall_seconds: float = 0.0
    worker: int = 0
    cached: bool = False


def single_run(
    model: "BaseClassifier", split: Split, *, engine: bool = True
) -> RunSample:
    """Fit and evaluate one model instance, timing every phase.

    This is the measurement core shared by the legacy serial
    :func:`repro.experiments.runner.run_model` and the parallel cell path,
    so both report identical quantities.  With ``engine=True`` a model
    exposing ``compile()`` is additionally compiled into the fused batch
    engine, whose prediction of the test batch is timed.
    """
    from ..baselines.metrics import accuracy

    X_train, X_test, y_train, y_test = split
    start = time.perf_counter()
    model.fit(X_train, y_train)
    train_seconds = time.perf_counter() - start

    start = time.perf_counter()
    predictions = model.predict(X_test)
    elapsed = time.perf_counter() - start
    inference = elapsed / max(len(X_test), 1)
    score = float(accuracy(y_test, predictions))

    engine_seconds = None
    if engine and hasattr(model, "compile"):
        from ..engine import EngineError

        try:
            compiled = model.compile()
        except EngineError:
            compiled = None
        if compiled is not None:
            start = time.perf_counter()
            compiled.predict(X_test)
            engine_seconds = (time.perf_counter() - start) / max(len(X_test), 1)
    return RunSample(
        accuracy=score,
        train_seconds=train_seconds,
        inference_seconds_per_query=inference,
        engine_seconds_per_query=engine_seconds,
    )


def execute_cell(task: "CellTask", split: Split, scale) -> CellResult:
    """Run one grid cell: build the registry model seeded with its run index."""
    from ..experiments.registry import build_model

    start = time.perf_counter()
    with OBS.recorder.span(
        "runtime.cell", dataset=task.dataset, model=task.model, run=task.run_index
    ):
        model = build_model(task.model, task.run_index, scale)
        sample = single_run(model, split)
    result = CellResult(
        dataset=task.dataset,
        model=task.model,
        run_index=task.run_index,
        accuracy=sample.accuracy,
        train_seconds=sample.train_seconds,
        inference_seconds_per_query=sample.inference_seconds_per_query,
        engine_seconds_per_query=sample.engine_seconds_per_query,
        wall_seconds=time.perf_counter() - start,
        worker=os.getpid(),
    )
    if OBS.enabled:
        OBS.metrics.counter(
            "repro_runtime_cells_total",
            "Grid cells computed by the runtime.",
            model=task.model,
        ).inc()
        OBS.metrics.histogram(
            "repro_runtime_cell_seconds", "Wall time per computed grid cell."
        ).observe(result.wall_seconds)
    return result


def suite_cell(item: tuple["CellTask", dict | None]) -> CellResult:
    """One ``run_suite`` cell, checkpointed in the process that ran it.

    ``item`` is ``(task, spec)``; the shared payload is ``(splits, scale,
    store)``.  With a store the result is saved under ``spec`` before
    it is returned, so an interrupt loses only the cells still running.
    """
    task, spec = item
    splits, scale, store = get_shared()
    result = execute_cell(task, splits[task.dataset], scale)
    if store is not None:
        store.save(spec, result)
    return result
