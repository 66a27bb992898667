"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  By default
the workloads are scaled down so the whole ``pytest benchmarks/
--benchmark-only`` run finishes in a few minutes on a laptop CPU; set
``REPRO_FULL=1`` to use the paper-scale parameters defined in
:mod:`repro.experiments.config` (slow: hours).
"""

from __future__ import annotations

import pytest

from repro.experiments import FULL, ExperimentScale, is_full_scale, load_datasets, run_suite

#: Reduced scale used by default so the benchmark suite stays quick.
BENCH = ExperimentScale(
    name="bench",
    total_dim=1000,
    n_learners=10,
    n_runs=2,
    hd_epochs=8,
    dnn_hidden=(64, 32),
    dnn_epochs=30,
    wesad_subjects=6,
    nurse_subjects=8,
    stress_predict_subjects=6,
    windows_per_state=10,
    bitflip_trials=5,
    sweep_runs=3,
)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """Active experiment scale: paper-scale when REPRO_FULL=1, else reduced."""
    return FULL if is_full_scale() else BENCH


@pytest.fixture(scope="session")
def datasets(scale):
    """The three datasets exactly as ``run_suite(None, scale=scale)`` builds them."""
    return load_datasets(scale)


@pytest.fixture(scope="session")
def wesad(datasets):
    return datasets["WESAD"]


@pytest.fixture(scope="session")
def wesad_split(wesad):
    return wesad.split(test_fraction=0.3, rng=7)


@pytest.fixture(scope="session")
def suite(datasets, scale):
    """One shared model-suite run reused by the Table I and Table II benchmarks.

    Executes through :mod:`repro.runtime`: set ``REPRO_MAX_WORKERS`` to fan
    the (dataset x model x run) grid out over a process pool — accuracies are
    bit-identical to the serial run at any worker count.
    """
    return run_suite(datasets, scale=scale)


@pytest.fixture
def run_once(benchmark):
    """Helper fixture: run a callable exactly once under pytest-benchmark timing."""

    def _run(function):
        return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)

    return _run
