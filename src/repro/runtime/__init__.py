"""Parallel, resumable experiment runtime.

The runtime turns a suite specification into a :class:`~repro.runtime.plan.GridPlan`
of independent (dataset × model × run) cells with deterministically derived
seeds, executes the cells on a process pool (or serially) via
:class:`~repro.runtime.executor.ParallelExecutor`, checkpoints every
completed cell into a content-hashed :class:`~repro.runtime.store.ArtifactStore`
so interrupted suites resume without recomputation, and reports per-cell
wall time and worker utilization through a
:class:`~repro.runtime.report.RunReport`.

Results are bit-identical across worker counts and scheduling orders because
every cell's seed is a pure function of its grid coordinates
(:mod:`repro.runtime.seeding`).
"""

from .cells import CellResult, RunSample, execute_cell, single_run
from .executor import (
    ParallelExecutor,
    SplitSource,
    available_cpus,
    get_shared,
    parallel_map,
    resolve_max_workers,
)
from .plan import CellTask, GridPlan
from .report import CellStats, RunReport, merge_reports
from .seeding import cell_seed, dataset_seeds, derive_seed, derive_seed_sequence
from .store import ArtifactStore, canonical_spec, spec_key

__all__ = [
    "CellResult",
    "RunSample",
    "execute_cell",
    "single_run",
    "ParallelExecutor",
    "SplitSource",
    "available_cpus",
    "get_shared",
    "parallel_map",
    "resolve_max_workers",
    "CellTask",
    "GridPlan",
    "CellStats",
    "RunReport",
    "merge_reports",
    "cell_seed",
    "dataset_seeds",
    "derive_seed",
    "derive_seed_sequence",
    "ArtifactStore",
    "canonical_spec",
    "spec_key",
]
