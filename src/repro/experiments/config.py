"""Experiment configuration: quick (default) vs full (paper-scale) settings.

Every benchmark regenerates the structure of a paper table or figure, but the
paper-scale parameters (10 000-dimensional models, 10 independent runs, 100
bit-flip trials, full subject cohorts) take hours on a laptop CPU.  The
default configuration therefore scales the workloads down while keeping every
code path identical; setting the environment variable ``REPRO_FULL=1``
switches to the paper-scale parameters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

__all__ = ["ExperimentScale", "get_scale", "is_full_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by the table/figure generators and the benchmarks.

    Attributes mirror the paper's experimental-setup section: the HDC total
    dimensionality, the ensemble size ``N_L``, the number of independent runs
    per cell, dataset sizes and the perturbation-trial counts.  They are the
    only statement of an experiment's sizes: the generators take no per-call
    override, so another size is another scale
    (``dataclasses.replace(scale, n_runs=5)``).

    A scale refuses to exist with a size below 1 (each ``dnn_hidden`` width
    and ``dnn_epochs`` included) or a negative ``hd_epochs``: 0 adaptive
    epochs is OnlineHD/BoostHD's bundling pass alone.
    """

    name: str
    #: Total HDC dimensionality used for Table I/II-style comparisons.
    total_dim: int
    #: Number of weak learners N_L in every ensemble model.
    n_learners: int
    #: Independent runs per table cell (paper: 10).
    n_runs: int
    #: OnlineHD / BoostHD adaptive epochs.
    hd_epochs: int
    #: DNN hidden-layer widths.
    dnn_hidden: tuple[int, ...]
    #: DNN training epochs.
    dnn_epochs: int
    #: Subjects per synthetic dataset (WESAD, Nurse, Stress-Predict).
    wesad_subjects: int
    nurse_subjects: int
    stress_predict_subjects: int
    #: Windows generated per subject and state.
    windows_per_state: int
    #: Bit-flip trials per probability (paper: 100).
    bitflip_trials: int
    #: Runs per point in the stability / dimension sweeps.
    sweep_runs: int

    def __post_init__(self) -> None:
        for field in fields(self):
            if field.name == "name":
                continue
            value = getattr(self, field.name)
            sizes = value if isinstance(value, tuple) else (value,)
            least = 0 if field.name == "hd_epochs" else 1
            if any(size < least for size in sizes):
                raise ValueError(f"{field.name} must be >= {least}, got {value!r}")


QUICK = ExperimentScale(
    name="quick",
    total_dim=1000,
    n_learners=10,
    n_runs=3,
    hd_epochs=10,
    dnn_hidden=(128, 64, 32),
    dnn_epochs=40,
    wesad_subjects=8,
    nurse_subjects=10,
    stress_predict_subjects=8,
    windows_per_state=12,
    bitflip_trials=10,
    sweep_runs=3,
)

FULL = ExperimentScale(
    name="full",
    total_dim=4000,
    n_learners=10,
    n_runs=10,
    hd_epochs=20,
    dnn_hidden=(2048, 1024, 512),
    dnn_epochs=60,
    wesad_subjects=15,
    nurse_subjects=37,
    stress_predict_subjects=15,
    windows_per_state=25,
    bitflip_trials=100,
    sweep_runs=10,
)


def is_full_scale() -> bool:
    """True when the environment requests paper-scale experiments."""
    return os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes")


def get_scale() -> ExperimentScale:
    """Return the active experiment scale (quick unless ``REPRO_FULL=1``)."""
    return FULL if is_full_scale() else QUICK
