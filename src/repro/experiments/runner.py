"""Suite runner: trains models repeatedly and records accuracy and timing.

Tables I and II need, per (dataset, model) cell, the mean ± std accuracy over
independent runs and the per-query inference time.  The runner produces both
in one pass so the two tables stay consistent.

Since the :mod:`repro.runtime` refactor the suite executes as independent
(dataset × model × run) cells (:func:`~repro.runtime.plan.suite_cells`):
``run_suite`` maps them over a process pool (``max_workers``) with
:func:`~repro.runtime.executor.parallel_map`, each cell checkpointing itself
into an :class:`~repro.runtime.store.ArtifactStore` (``store``) so
interrupted suites resume without recomputation, and reports per-cell wall
time and worker utilization on ``SuiteResult.report``.  One seed rule holds
everywhere: run ``r`` of a model is seeded with ``r`` and dataset ``i`` of
:data:`DATASET_NAMES` with ``i``.  So results are bit-identical across
worker counts: a cell's numbers depend only on its grid coordinates.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict, dataclass
from itertools import groupby
from typing import Callable, Mapping, Sequence

import numpy as np

from ..baselines.base import BaseClassifier
from ..data.loaders import TabularDataset
from ..obs import OBS, MetricsRegistry, scoped_registry
from ..runtime.cells import single_run, suite_cell
from ..runtime.executor import parallel_map, pool_size
from ..runtime.plan import CellTask, suite_cells
from ..runtime.report import RunReport
from ..runtime.store import ArtifactStore
from .config import ExperimentScale, get_scale
from .registry import MODEL_NAMES, check_model_names

__all__ = [
    "DATASET_NAMES",
    "ModelRunResult",
    "SuiteResult",
    "run_model",
    "run_suite",
    "load_dataset",
    "load_datasets",
]

#: The three synthetic datasets of Tables I–III, in the paper's row order.
#: The position doubles as the dataset's generation seed (0, 1, 2).
DATASET_NAMES: tuple[str, ...] = (
    "WESAD",
    "Nurse Stress Dataset",
    "Stress-Predict Dataset",
)


@dataclass(frozen=True)
class ModelRunResult:
    """Accuracy/timing summary of one model on one dataset.

    ``engine_inference_seconds_per_query`` is populated for models that can
    be compiled into the fused batch engine (:mod:`repro.engine`) — i.e.
    OnlineHD and BoostHD — and holds the per-query time of the compiled
    scorer on the same test batch, so Table II can report the loop-vs-fused
    speedup alongside the paper's loop-path numbers.
    """

    model_name: str
    dataset_name: str
    accuracies: np.ndarray
    train_seconds: np.ndarray
    inference_seconds_per_query: np.ndarray
    engine_inference_seconds_per_query: np.ndarray | None = None

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.accuracies))

    @property
    def mean_inference_per_query(self) -> float:
        return float(np.mean(self.inference_seconds_per_query))

    @property
    def mean_engine_inference_per_query(self) -> float | None:
        if self.engine_inference_seconds_per_query is None:
            return None
        return float(np.mean(self.engine_inference_seconds_per_query))

    @property
    def fused_speedup(self) -> float | None:
        """Loop-path time divided by fused-engine time (>1 means faster)."""
        engine_mean = self.mean_engine_inference_per_query
        if engine_mean is None or engine_mean <= 0:
            return None
        return self.mean_inference_per_query / engine_mean


@dataclass(frozen=True)
class SuiteResult:
    """Results of all models on all datasets: ``results[dataset][model]``.

    ``report`` carries the :class:`~repro.runtime.report.RunReport` of the
    grid execution (per-cell wall time, worker utilization, cache replays)
    when the suite ran through :func:`run_suite`; hand-built results leave
    it ``None``.
    """

    results: Mapping[str, Mapping[str, ModelRunResult]]
    report: RunReport | None = None

    def datasets(self) -> list[str]:
        return list(self.results.keys())

    def models(self) -> list[str]:
        first = next(iter(self.results.values()), {})
        return list(first.keys())


#: Runs of one :func:`run_model` call; run ``r`` builds its model with seed ``r``.
_RUNS = 2


def run_model(
    build: Callable[[int], BaseClassifier],
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    *,
    engine: bool = True,
) -> ModelRunResult:
    """Train/evaluate ``_RUNS`` (2) instances of one model, timing each phase.

    This is the serial, bring-your-own-builder entry point (``build`` may be
    any callable, including a closure, so it never crosses a process
    boundary); grid-scale parallel execution goes through :func:`run_suite`.
    Both share the measurement core (:func:`repro.runtime.cells.single_run`),
    so they report identical quantities.  Run ``r`` fits ``build(r)``.

    With ``engine=True`` (default), models exposing a ``compile()`` hook are
    additionally compiled into the fused batch engine after fitting, and the
    compiled scorer's inference over the same test batch is timed so the
    loop-vs-fused speedup can be reported.  Models whose encoders cannot be
    fused simply skip the engine column.
    """
    samples = [
        single_run(build(run), (X_train, X_test, y_train, y_test), engine=engine)
        for run in range(_RUNS)
    ]
    return _aggregate_samples("model", "dataset", samples)


def _aggregate_samples(
    model_name: str, dataset_name: str, samples: Sequence
) -> ModelRunResult:
    """Fold per-run measurements into one :class:`ModelRunResult`."""
    engine_times = [
        s.engine_seconds_per_query
        for s in samples
        if s.engine_seconds_per_query is not None
    ]
    return ModelRunResult(
        model_name=model_name,
        dataset_name=dataset_name,
        accuracies=np.asarray([s.accuracy for s in samples]),
        train_seconds=np.asarray([s.train_seconds for s in samples]),
        inference_seconds_per_query=np.asarray(
            [s.inference_seconds_per_query for s in samples]
        ),
        engine_inference_seconds_per_query=(
            np.asarray(engine_times) if engine_times else None
        ),
    )


_DATASET_BUILDERS: Mapping[str, Callable[[ExperimentScale, int], TabularDataset]] = {}


def _builders() -> Mapping[str, Callable[[ExperimentScale, int], TabularDataset]]:
    global _DATASET_BUILDERS
    if not _DATASET_BUILDERS:
        from ..data.nurse_stress import load_nurse_stress
        from ..data.stress_predict import load_stress_predict
        from ..data.wesad import load_wesad

        _DATASET_BUILDERS = {
            "WESAD": lambda scale, seed: load_wesad(
                n_subjects=scale.wesad_subjects,
                windows_per_state=scale.windows_per_state,
                seed=seed,
            ),
            "Nurse Stress Dataset": lambda scale, seed: load_nurse_stress(
                n_subjects=scale.nurse_subjects,
                windows_per_state=max(6, scale.windows_per_state // 2),
                seed=seed,
            ),
            "Stress-Predict Dataset": lambda scale, seed: load_stress_predict(
                n_subjects=scale.stress_predict_subjects,
                windows_per_state=scale.windows_per_state,
                seed=seed,
            ),
        }
    return _DATASET_BUILDERS


def load_dataset(name: str, scale: ExperimentScale | None = None) -> TabularDataset:
    """Generate one of the three synthetic datasets at the active scale,
    seeded with its position in :data:`DATASET_NAMES` (0, 1, 2)."""
    scale = scale or get_scale()
    builders = _builders()
    if name not in builders:
        raise KeyError(f"unknown dataset {name!r}; available: {DATASET_NAMES}")
    return builders[name](scale, DATASET_NAMES.index(name))


def load_datasets(scale: ExperimentScale | None = None) -> dict[str, TabularDataset]:
    """Generate the three synthetic datasets at the active scale."""
    scale = scale or get_scale()
    return {name: load_dataset(name, scale) for name in DATASET_NAMES}


#: Seed of every dataset's subject-wise train/test split in :func:`run_suite`.
_SPLIT_SEED = 7


def _split_fingerprint(split: Sequence[np.ndarray]) -> str:
    """SHA-256 of a split's arrays, so different data never replays a cell."""
    digest = hashlib.sha256()
    for array in split:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _cell_spec(cell: CellTask, data: str, scale: Mapping[str, object]) -> dict:
    """The content-hashed identity of one cell's computation (its store key)."""
    return {
        "version": 1,
        "dataset": cell.dataset,
        "model": cell.model,
        "run_index": cell.run_index,
        "data": data,
        "scale": scale,
    }


def run_suite(
    datasets: Mapping[str, TabularDataset] | None = None,
    model_names: Sequence[str] = MODEL_NAMES,
    *,
    scale: ExperimentScale | None = None,
    n_runs: int | None = None,
    max_workers: int | str | None = None,
    store: ArtifactStore | str | os.PathLike | None = None,
) -> SuiteResult:
    """Run every requested model on every dataset with subject-wise splits.

    Each dataset is split by :meth:`TabularDataset.split` with seed
    ``_SPLIT_SEED`` (7), run ``r`` of a model is seeded with ``r``, and every
    model that compiles also times its fused engine (Table II's footer).
    The grid executes through :mod:`repro.runtime`:

    * ``max_workers`` — process-pool size; ``None`` consults the
      ``REPRO_MAX_WORKERS`` environment variable and falls back to serial;
      ``"auto"`` uses all available CPUs.  Accuracies are bit-identical for
      every worker count.
    * ``store`` — an :class:`~repro.runtime.store.ArtifactStore` (or a
      directory path) into which each cell checkpoints itself, in the
      process that ran it; rerunning with the same configuration replays
      finished cells instead of recomputing them.

    When ``datasets`` is omitted the suite runs on ``load_datasets(scale)``.
    Every dataset is split once in the parent and shipped to each worker a
    single time.  Unknown or repeated model names, and ``n_runs`` < 1, raise
    ``ValueError`` before anything is split, looked up or trained.
    """
    scale = scale or get_scale()
    n_runs = scale.n_runs if n_runs is None else n_runs
    model_names = check_model_names(model_names)
    cells = suite_cells(
        DATASET_NAMES if datasets is None else tuple(datasets), model_names, n_runs
    )
    if isinstance(store, (str, os.PathLike)):
        store = ArtifactStore(store)
    if datasets is None:
        datasets = load_datasets(scale)
    splits = {name: dataset.split(rng=_SPLIT_SEED) for name, dataset in datasets.items()}

    start = time.perf_counter()
    # Specs exist only to key the store; without one, skip hashing the data.
    specs: list[dict | None] = [None] * len(cells)
    if store is not None:
        fingerprints = {name: _split_fingerprint(split) for name, split in splits.items()}
        scale_spec = asdict(scale)
        specs = [_cell_spec(cell, fingerprints[cell.dataset], scale_spec) for cell in cells]
    replayed = [None if spec is None else store.load(spec) for spec in specs]
    pending = [
        (cell, spec)
        for cell, spec, result in zip(cells, specs, replayed)
        if result is None
    ]

    workers = pool_size(max_workers, len(pending))
    run_registry = MetricsRegistry()
    with scoped_registry(run_registry):
        computed = iter(
            parallel_map(
                suite_cell, pending, max_workers=workers, shared=(splits, scale, store)
            )
        )
    results = [next(computed) if result is None else result for result in replayed]
    metrics = None
    if OBS.enabled:
        metrics = run_registry.snapshot()
        # Fold the run's telemetry into the process-wide registry so the
        # suite run shows up on the parent's /metrics like everything else.
        OBS.metrics.merge(metrics)
    report = RunReport(
        total_seconds=time.perf_counter() - start,
        max_workers=workers,
        cells=tuple(results),
        metrics=metrics,
    )

    grouped: dict[str, dict[str, ModelRunResult]] = {}
    for (dataset_name, model_name), runs in groupby(
        results, key=lambda result: (result.dataset, result.model)
    ):
        grouped.setdefault(dataset_name, {})[model_name] = _aggregate_samples(
            model_name, dataset_name, list(runs)
        )
    return SuiteResult(results=grouped, report=report)
