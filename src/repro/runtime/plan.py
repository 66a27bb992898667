"""Grid planning: expanding a suite into independent cell tasks.

:func:`suite_cells` lists everything a suite run will compute: the
(dataset × model × run) grid.  Run ``r`` of every model is seeded with
``r``, so each :class:`CellTask` carries everything its computation depends
on, and the cells can execute in any order on any number of workers without
changing a single result bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["CellTask", "suite_cells"]


@dataclass(frozen=True)
class CellTask:
    """One unit of suite work: train/evaluate one model run on one dataset.

    The model is built with the run index as its seed.
    """

    dataset: str
    model: str
    run_index: int


def suite_cells(
    dataset_names: Sequence[str],
    model_names: Sequence[str],
    n_runs: int,
) -> tuple[CellTask, ...]:
    """The (dataset × model × run) cells of a suite.

    Datasets vary slowest and runs fastest.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if not dataset_names:
        raise ValueError("dataset_names must not be empty")
    if not model_names:
        raise ValueError("model_names must not be empty")
    return tuple(
        CellTask(dataset, model, run)
        for dataset in dataset_names
        for model in model_names
        for run in range(n_runs)
    )
