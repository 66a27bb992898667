"""Experiment harness: configurations, model registry, runners and generators
for every table and figure in the paper's evaluation section."""

from .config import FULL, QUICK, ExperimentScale, get_scale, is_full_scale
from .figures import (
    figure2_theory_terms,
    figure3_heatmap,
    figure4_kernel_shape,
    figure5_span,
    figure6_stability,
    figure7_overfitting,
    figure8_robustness,
)
from .registry import MODEL_NAMES, build_model
from .reporting import format_mean_std, format_series, format_table
from .runner import (
    DATASET_NAMES,
    ModelRunResult,
    SuiteResult,
    load_dataset,
    load_datasets,
    run_model,
    run_suite,
)
from .tables import (
    average_rank,
    table1_accuracy,
    table2_inference,
    table3_person_specific,
    table_winner_summary,
)

__all__ = [
    "FULL",
    "QUICK",
    "ExperimentScale",
    "get_scale",
    "is_full_scale",
    "figure2_theory_terms",
    "figure3_heatmap",
    "figure4_kernel_shape",
    "figure5_span",
    "figure6_stability",
    "figure7_overfitting",
    "figure8_robustness",
    "MODEL_NAMES",
    "build_model",
    "format_mean_std",
    "format_series",
    "format_table",
    "DATASET_NAMES",
    "ModelRunResult",
    "SuiteResult",
    "load_dataset",
    "load_datasets",
    "run_model",
    "run_suite",
    "average_rank",
    "table1_accuracy",
    "table2_inference",
    "table3_person_specific",
    "table_winner_summary",
]
