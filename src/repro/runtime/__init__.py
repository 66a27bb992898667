"""Parallel, resumable experiment runtime.

The runtime turns a suite specification into independent (dataset × model ×
run) cells (:func:`~repro.runtime.plan.suite_cells`), maps the cells over one
process pool (or serially) with :func:`~repro.runtime.executor.parallel_map`,
checkpoints every completed cell into a content-hashed
:class:`~repro.runtime.store.ArtifactStore` so interrupted suites resume
without recomputation, and reports per-cell wall time and worker
utilization through a :class:`~repro.runtime.report.RunReport`.

Results are bit-identical across worker counts and scheduling orders because
a cell's seed is its run index: nothing a cell computes depends on where or
when it runs.
"""

from .cells import CellResult, RunSample, execute_cell, single_run
from .executor import available_cpus, get_shared, parallel_map, resolve_max_workers
from .plan import CellTask, suite_cells
from .report import RunReport
from .store import ArtifactStore, canonical_spec, spec_key

__all__ = [
    "CellResult",
    "RunSample",
    "execute_cell",
    "single_run",
    "available_cpus",
    "get_shared",
    "parallel_map",
    "resolve_max_workers",
    "CellTask",
    "suite_cells",
    "RunReport",
    "ArtifactStore",
    "canonical_spec",
    "spec_key",
]
