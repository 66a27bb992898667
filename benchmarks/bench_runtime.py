"""Runtime benchmarks: parallel suite speedup, pool concurrency, resume.

Three contracts on :mod:`repro.runtime`:

1. **Equivalence + CPU speedup** — a quick-scale suite grid executed with 4
   workers must produce bit-identical accuracies to the serial path, and on a
   machine with >= 4 usable cores it must finish at least 2x faster
   wall-clock.  With fewer cores the grid runs at one worker per core and
   prints its speedup; the floor is asserted only on >= 4 cores (the
   equivalence assertion always runs), since a process pool cannot beat
   the clock on hardware it does not have.
2. **Scheduling concurrency** — with cells whose cost is service time rather
   than CPU (the regime of anything I/O- or sleep-bound), 4 workers must beat
   serial by >= 2x on *any* machine, which pins the executor's fan-out and
   chunking machinery independently of core count.
3. **Resume** — rerunning a suite against a populated artifact store must
   replay every cell from disk (zero recomputation) and beat the computing
   run by a wide margin.

Fast mode (``REPRO_BENCH_FAST=1``) shrinks the grids so the whole module
smokes in well under a minute on CI.
"""

import dataclasses
import os
import time

import numpy as np

from repro.experiments import run_suite
from repro.runtime import available_cpus, parallel_map

#: Worker count the acceptance contract is stated at.
WORKERS = 4
SPEEDUP_FLOOR = 2.0

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

#: Quick-scale grid for the speedup check: HDC + classical models whose
#: per-cell training cost dominates pool overhead at this dataset size.
SPEEDUP_MODELS = ("SVM", "DNN", "OnlineHD", "BoostHD")
SPEEDUP_RUNS = 2 if FAST else 3


def _suite_accuracies(suite):
    return {
        (dataset, model): suite.results[dataset][model].accuracies
        for dataset in suite.datasets()
        for model in suite.models()
    }


def test_parallel_suite_speedup(datasets, scale):
    """4-worker suite: bit-identical to serial and >= 2x faster on >= 4 cores."""
    grid = dict(datasets) if not FAST else {"WESAD": datasets["WESAD"]}
    scale = dataclasses.replace(scale, n_runs=SPEEDUP_RUNS)
    cpus = available_cpus()
    workers = min(cpus, WORKERS)

    start = time.perf_counter()
    serial = run_suite(grid, SPEEDUP_MODELS, scale=scale, max_workers=1)
    serial_seconds = time.perf_counter() - start

    # Equivalence at 4 workers on any machine; the clock at one worker per
    # core, up to 4.
    parallel, parallel_seconds = {}, {}
    for n_workers in sorted({workers, WORKERS}):
        start = time.perf_counter()
        parallel[n_workers] = run_suite(
            grid, SPEEDUP_MODELS, scale=scale, max_workers=n_workers
        )
        parallel_seconds[n_workers] = time.perf_counter() - start
        for key, accuracies in _suite_accuracies(serial).items():
            assert np.array_equal(
                accuracies, _suite_accuracies(parallel[n_workers])[key]
            ), key

    report = parallel[workers].report
    speedup = serial_seconds / parallel_seconds[workers]
    print(
        f"\nParallel suite ({len(grid)} datasets x {len(SPEEDUP_MODELS)} models "
        f"x {SPEEDUP_RUNS} runs): serial {serial_seconds:.2f}s, "
        f"{workers} workers {parallel_seconds[workers]:.2f}s -> {speedup:.2f}x on "
        f"{cpus} usable core(s) (utilization {report.utilization:.0%}, "
        f"{report.n_workers_used} workers used)"
    )
    if workers < WORKERS:
        print(
            f"  the >= {SPEEDUP_FLOOR}x floor is stated at {WORKERS} workers and "
            f"asserted only on >= {WORKERS} cores (equivalence was checked)"
        )
        return
    assert speedup >= SPEEDUP_FLOOR, (
        f"{WORKERS}-worker suite only {speedup:.2f}x faster than serial "
        f"(required >= {SPEEDUP_FLOOR}x on {cpus} cores)"
    )


#: Service time of one simulated cell (seconds).  Long enough that 16 cells
#: dwarf pool startup, short enough to keep the module quick.
_SIMULATED_CELL_SECONDS = 0.12
_SIMULATED_CELLS = 16


def _simulated_cell(index: int) -> int:
    """A cell whose cost is service time, not CPU (I/O-bound regime)."""
    time.sleep(_SIMULATED_CELL_SECONDS)
    return index


def test_executor_concurrency_floor():
    """4 workers must overlap service-time cells >= 2x even on one core."""
    items = list(range(_SIMULATED_CELLS))

    start = time.perf_counter()
    serial_result = parallel_map(_simulated_cell, items, max_workers=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_result = parallel_map(_simulated_cell, items, max_workers=WORKERS)
    parallel_seconds = time.perf_counter() - start

    assert serial_result == parallel_result == items
    speedup = serial_seconds / parallel_seconds
    print(
        f"\nExecutor concurrency ({_SIMULATED_CELLS} x "
        f"{_SIMULATED_CELL_SECONDS:.2f}s cells): serial {serial_seconds:.2f}s, "
        f"{WORKERS} workers {parallel_seconds:.2f}s -> {speedup:.2f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"executor only overlapped service-time cells {speedup:.2f}x "
        f"(required >= {SPEEDUP_FLOOR}x at {WORKERS} workers)"
    )


def test_resume_replays_from_store(datasets, scale, tmp_path):
    """A populated store turns a rerun into pure replay: no recomputation."""
    grid = {"WESAD": datasets["WESAD"]}
    models = ("OnlineHD", "BoostHD")
    scale = dataclasses.replace(scale, n_runs=2)

    start = time.perf_counter()
    first = run_suite(grid, models, scale=scale, store=tmp_path)
    compute_seconds = time.perf_counter() - start
    assert first.report.n_computed == len(grid) * len(models) * 2
    assert first.report.n_cached == 0

    start = time.perf_counter()
    second = run_suite(grid, models, scale=scale, store=tmp_path)
    replay_seconds = time.perf_counter() - start
    assert second.report.n_computed == 0
    assert second.report.n_cached == first.report.n_computed

    for key, accuracies in _suite_accuracies(first).items():
        assert np.array_equal(accuracies, _suite_accuracies(second)[key]), key
    print(
        f"\nResume: compute {compute_seconds:.2f}s -> replay {replay_seconds:.3f}s "
        f"({first.report.n_computed} cells)"
    )
    assert replay_seconds < compute_seconds
