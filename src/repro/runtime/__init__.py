"""Parallel, resumable experiment runtime.

The runtime turns a suite specification into independent (dataset × model ×
run) cells with deterministically derived seeds
(:func:`~repro.runtime.plan.suite_cells`), maps the cells over one process
pool (or serially) with :func:`~repro.runtime.executor.parallel_map`,
checkpoints every completed cell into a content-hashed
:class:`~repro.runtime.store.ArtifactStore` so interrupted suites resume
without recomputation, and reports per-cell wall time and worker
utilization through a :class:`~repro.runtime.report.RunReport`.

Results are bit-identical across worker counts and scheduling orders because
every cell's seed is a pure function of its grid coordinates
(:mod:`repro.runtime.seeding`).
"""

from .cells import CellResult, RunSample, execute_cell, single_run
from .executor import available_cpus, get_shared, parallel_map, resolve_max_workers
from .plan import CellTask, suite_cells
from .report import RunReport
from .seeding import cell_seed, dataset_seeds, derive_seed, derive_seed_sequence
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
    "cell_seed",
    "dataset_seeds",
    "derive_seed",
    "derive_seed_sequence",
    "ArtifactStore",
    "canonical_spec",
    "spec_key",
]
