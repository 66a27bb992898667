"""Parallel resumable suite demo: the experiment grid on a worker pool.

Run with::

    python examples/parallel_suite.py

The script walks the full :mod:`repro.runtime` lifecycle:

1. run a small (dataset × model × run) suite serially and again on a
   4-worker process pool, and verify the accuracies are **bit-identical** —
   run ``r`` of every model is seeded with ``r``, never with anything that
   depends on execution order,
2. run the same suite with an :class:`~repro.runtime.ArtifactStore`,
   simulate a crash partway through, and resume: completed cells are
   replayed from disk instead of recomputed,
3. print the :class:`~repro.runtime.RunReport` — per-cell wall time, worker
   utilization and cache replays — plus the paper's Table I for the run.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import ArtifactStore, load_wesad
from repro.data import load_nurse_stress
from repro.experiments import ExperimentScale, run_suite, table1_accuracy

#: Shrunk scale so the demo finishes in seconds; swap for get_scale() /
#: REPRO_FULL=1 to reproduce the paper-scale grid.
DEMO_SCALE = ExperimentScale(
    name="demo",
    total_dim=400,
    n_learners=4,
    n_runs=3,
    hd_epochs=4,
    dnn_hidden=(32, 16),
    dnn_epochs=10,
    wesad_subjects=6,
    nurse_subjects=6,
    stress_predict_subjects=6,
    windows_per_state=6,
    bitflip_trials=2,
    sweep_runs=2,
)

MODELS = ("SVM", "DNN", "OnlineHD", "BoostHD")


def main() -> None:
    datasets = {
        "WESAD": load_wesad(
            n_subjects=DEMO_SCALE.wesad_subjects,
            windows_per_state=DEMO_SCALE.windows_per_state,
            seed=0,
        ),
        "Nurse Stress Dataset": load_nurse_stress(
            n_subjects=DEMO_SCALE.nurse_subjects,
            windows_per_state=DEMO_SCALE.windows_per_state,
            seed=1,
        ),
    }

    # ------------------------------------------------- 1. serial vs parallel
    print("=== 1. serial vs 4-worker suite (same grid, same seeds) ===")
    serial = run_suite(datasets, MODELS, scale=DEMO_SCALE, max_workers=1)
    parallel = run_suite(datasets, MODELS, scale=DEMO_SCALE, max_workers=4)
    for dataset in serial.datasets():
        for model in serial.models():
            lhs = serial.results[dataset][model].accuracies
            rhs = parallel.results[dataset][model].accuracies
            assert np.array_equal(lhs, rhs), (dataset, model)
    print("accuracies bit-identical across worker counts ✔")
    print(f"serial:   {serial.report.total_seconds:.2f}s")
    print(
        f"parallel: {parallel.report.total_seconds:.2f}s on "
        f"{parallel.report.max_workers} workers "
        f"(utilization {parallel.report.utilization:.0%})"
    )

    # ------------------------------------------------- 2. interrupt + resume
    print("\n=== 2. crash mid-suite, then resume from the artifact store ===")
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)

        import repro.runtime.cells as cells

        real_execute, budget = cells.execute_cell, {"left": 9}

        def crashy_execute(*args, **kwargs):
            if budget["left"] <= 0:
                raise KeyboardInterrupt("simulated crash")
            budget["left"] -= 1
            return real_execute(*args, **kwargs)

        cells.execute_cell = crashy_execute
        try:
            run_suite(datasets, MODELS, scale=DEMO_SCALE, store=store)
        except KeyboardInterrupt:
            print(f"crashed after {len(store)} cells — checkpoints on disk")
        finally:
            cells.execute_cell = real_execute

        resumed = run_suite(datasets, MODELS, scale=DEMO_SCALE, store=store)
        print(
            f"resume: {resumed.report.n_cached} cells replayed, "
            f"{resumed.report.n_computed} computed"
        )
        for dataset in serial.datasets():
            for model in serial.models():
                assert np.array_equal(
                    serial.results[dataset][model].accuracies,
                    resumed.results[dataset][model].accuracies,
                ), (dataset, model)
        print("resumed suite equals the uninterrupted run ✔")

        # -------------------------------------------------- 3. reports + table
        print("\n=== 3. run report and Table I ===")
        print(resumed.report.summary())
        print()
        print(table1_accuracy(resumed)[1])


if __name__ == "__main__":
    main()
