"""Grid planning: expanding a suite into independent, seedable cell tasks.

:func:`suite_cells` lists everything a suite run will compute: the
(dataset × model × run) grid with every cell's seed.  Because every
:class:`CellTask` carries its own seed derived from its coordinates (see
:mod:`repro.runtime.seeding`), the cells are fully independent and can
execute in any order on any number of workers without changing a single
result bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .seeding import cell_seed

__all__ = ["CellTask", "suite_cells"]


@dataclass(frozen=True)
class CellTask:
    """One unit of suite work: train/evaluate one model run on one dataset."""

    dataset: str
    model: str
    run_index: int
    seed: int


def suite_cells(
    dataset_names: Sequence[str],
    model_names: Sequence[str],
    n_runs: int,
    seed: int | None = None,
) -> tuple[CellTask, ...]:
    """The (dataset × model × run) cells of a suite, with derived seeds.

    Datasets vary slowest and runs fastest.  ``seed`` is the root seed of the
    deterministic derivation; ``None`` selects the legacy per-run seeds of
    the original serial runner, so default suite results stay byte-identical
    to the pre-runtime code.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if not dataset_names:
        raise ValueError("dataset_names must not be empty")
    if not model_names:
        raise ValueError("model_names must not be empty")
    return tuple(
        CellTask(dataset, model, run, cell_seed(seed, dataset, model, run))
        for dataset in dataset_names
        for model in model_names
        for run in range(n_runs)
    )
