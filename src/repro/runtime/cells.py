"""Cell executors: the functions a worker process runs for one grid cell.

Everything here is a *top-level* function operating on plain picklable
payloads, so the same code path runs unchanged in-process and in
:func:`~repro.runtime.executor.parallel_map` worker processes.  Heavy
package imports happen inside the functions: workers pay them once, and the
module itself stays import-cycle-free (``repro.runtime`` must not pull in
``repro.experiments`` at import time, because the experiments package imports
the runtime).

Shared, read-only inputs (train/test splits, dataset objects, the artifact
store) travel through the map's *shared payload*, not through each item, so
they are shipped to every worker exactly once.
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


# --------------------------------------------------------------------------
# Figure/table cells: parallel_map item functions for the experiment
# generators.  Each reads the heavy arrays from the shared payload and keeps
# the exact seed formulas of the original serial loops, so parallel output is
# bit-identical to serial output.
# --------------------------------------------------------------------------


def heatmap_cell(item: tuple[int, int, int, int, int, int]) -> float:
    """One Figure 3 cell: BoostHD accuracy at (n_learners, total_dim).

    ``item`` is ``(row, column, n_learners, total_dim, epochs, seed)`` with
    ``seed`` already offset by the figure's ``seed + row*100 + column``
    formula; the shared payload is the dataset split.
    """
    _row, _column, n_learners, total_dim, epochs, seed = item
    from ..core.boosthd import BoostHD

    X_train, X_test, y_train, y_test = get_shared()
    if total_dim < n_learners:
        return float("nan")
    model = BoostHD(
        total_dim=int(total_dim),
        n_learners=int(n_learners),
        epochs=int(epochs),
        seed=int(seed),
    )
    model.fit(X_train, y_train)
    return float(model.score(X_test, y_test))


def stability_cell(item: tuple[str, int, int, int, int]) -> float:
    """One Figure 6 cell: model accuracy at one (dimension, run) point.

    ``item`` is ``(kind, dim, run, n_learners, epochs)``; ``run`` doubles as
    the seed exactly as in the serial sweep.
    """
    kind, dim, run, n_learners, epochs = item
    from ..core.boosthd import BoostHD
    from ..hdc.onlinehd import OnlineHD

    X_train, X_test, y_train, y_test = get_shared()
    if kind == "OnlineHD":
        model = OnlineHD(dim=int(dim), epochs=int(epochs), seed=int(run))
    else:
        model = BoostHD(
            total_dim=int(dim),
            n_learners=min(int(n_learners), int(dim)),
            epochs=int(epochs),
            seed=int(run),
        )
    model.fit(X_train, y_train)
    from ..baselines.metrics import accuracy

    return float(accuracy(y_test, model.predict(X_test)))


def imbalance_cell(item: tuple[str, int, int, float, int, int, int, int]) -> float:
    """One Figure 7 cell: macro accuracy at one (model, D_total, r) point.

    ``item`` is ``(kind, total_dim, index, fraction, target_class,
    n_learners, epochs, seed)`` where ``index`` is the keep-fraction position
    (the serial loop seeds with ``seed + index``).
    """
    kind, total_dim, index, fraction, target_class, n_learners, epochs, seed = item
    from ..baselines.metrics import macro_accuracy
    from ..core.boosthd import BoostHD
    from ..data.imbalance import make_imbalanced
    from ..hdc.onlinehd import OnlineHD

    X_train, X_test, y_train, y_test = get_shared()
    X_imbalanced, y_imbalanced = make_imbalanced(
        X_train, y_train, int(target_class), float(fraction), rng=int(seed) + int(index)
    )
    if kind == "OnlineHD":
        model = OnlineHD(dim=int(total_dim), epochs=int(epochs), seed=int(seed) + int(index))
    else:
        model = BoostHD(
            total_dim=int(total_dim),
            n_learners=int(n_learners),
            epochs=int(epochs),
            seed=int(seed) + int(index),
        )
    model.fit(X_imbalanced, y_imbalanced)
    return float(macro_accuracy(y_test, model.predict(X_test)))


def bitflip_cell(item: str):
    """One Figure 8 cell: the full bit-flip sweep of one registry model.

    The shared payload is ``(split, probabilities, n_trials, seed, scale)``;
    the sweep's own RNG is seeded identically to the serial loop.
    """
    model_name = item
    from ..analysis.robustness import bitflip_sweep
    from ..experiments.registry import build_model

    (X_train, X_test, y_train, y_test), probabilities, n_trials, seed, scale = get_shared()
    model = build_model(model_name, seed, scale)
    model.fit(X_train, y_train)
    return bitflip_sweep(
        model,
        X_test,
        y_test,
        probabilities,
        n_trials=n_trials,
        model_name=model_name,
        rng=seed,
    )


def table3_cell(item: str) -> tuple[str, dict[str, float]]:
    """One Table III row: per-group accuracies of one registry model.

    The shared payload is ``(dataset, seed, scale)``; groups
    are the module-level :data:`~repro.analysis.fairness.PAPER_GROUPS` (their
    predicates are lambdas, which cannot be pickled into workers).
    """
    model_name = item
    from ..analysis.fairness import group_accuracy_table
    from ..experiments.registry import build_model

    dataset, seed, scale = get_shared()
    table = group_accuracy_table(
        {model_name: lambda group_seed: build_model(model_name, group_seed, scale)},
        dataset,
        seed=seed,
    )
    return model_name, table[model_name]
