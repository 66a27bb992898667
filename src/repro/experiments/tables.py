"""Generators for the paper's tables (I: accuracy, II: inference, III: fairness).

Each generator returns ``(data, text)``: a structured object benchmarks and
tests can assert on, plus a formatted string with the same rows the paper
prints.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..analysis.fairness import PAPER_GROUPS
from ..data.loaders import TabularDataset
from ..runtime.cells import table3_cell
from ..runtime.executor import parallel_map
from .config import ExperimentScale, get_scale
from .registry import MODEL_NAMES
from .reporting import format_mean_std, format_table
from .runner import SuiteResult

__all__ = ["table1_accuracy", "table2_inference", "table3_person_specific"]


def table1_accuracy(suite: SuiteResult) -> tuple[dict[str, dict[str, tuple[float, float]]], str]:
    """Table I: accuracy (%) mean ± std of every model on every dataset.

    Returns ``({dataset: {model: (mean, std)}}, formatted_text)``.
    """
    data: dict[str, dict[str, tuple[float, float]]] = {}
    rows = []
    models = suite.models()
    for dataset_name in suite.datasets():
        cells = suite.results[dataset_name]
        data[dataset_name] = {
            model: (cells[model].mean_accuracy, cells[model].std_accuracy) for model in models
        }
        row: dict[str, object] = {"Dataset": dataset_name}
        for model in models:
            mean, std = data[dataset_name][model]
            row[model] = format_mean_std(mean, std)
        rows.append(row)
    text = format_table(
        rows, ["Dataset", *models], title="TABLE I — Accuracy (%) vs baselines"
    )
    return data, text


def table2_inference(suite: SuiteResult) -> tuple[dict[str, dict[str, float]], str]:
    """Table II: inference time per query (1e-5 seconds) for every model.

    Returns ``({dataset: {model: seconds_per_query}}, formatted_text)``.  For
    models the runner also timed through the fused batch engine
    (:mod:`repro.engine`), ``data`` gains ``"{model} (fused)"`` entries and
    the text gains a loop-vs-fused speedup footer.
    """
    data: dict[str, dict[str, float]] = {}
    rows = []
    fused_lines = []
    models = suite.models()
    for dataset_name in suite.datasets():
        cells = suite.results[dataset_name]
        data[dataset_name] = {
            model: cells[model].mean_inference_per_query for model in models
        }
        row: dict[str, object] = {"Dataset": dataset_name}
        for model in models:
            row[model] = f"{data[dataset_name][model] / 1e-5:.1f}"
        rows.append(row)
        for model in models:
            result = cells[model]
            engine_mean = result.mean_engine_inference_per_query
            if engine_mean is None:
                continue
            data[dataset_name][f"{model} (fused)"] = engine_mean
            fused_lines.append(
                f"  {dataset_name} / {model}: loop "
                f"{result.mean_inference_per_query / 1e-5:.1f} -> fused "
                f"{engine_mean / 1e-5:.1f} (1e-5 s/query, "
                f"{result.fused_speedup:.1f}x speedup)"
            )
    text = format_table(
        rows,
        ["Dataset", *models],
        title="TABLE II — Inference time (1e-5 seconds per query)",
    )
    if fused_lines:
        text += "\nFused-engine inference (repro.engine):\n" + "\n".join(fused_lines)
    return data, text


def table3_person_specific(
    dataset: TabularDataset,
    *,
    scale: ExperimentScale | None = None,
    seed: int = 0,
) -> tuple[dict[str, dict[str, float]], str]:
    """Table III: per-demographic-group accuracy (%) on the WESAD-like dataset.

    Returns ``({model: {group: accuracy, "AVERAGE": mean}}, formatted_text)``
    with one row per model of :data:`~repro.experiments.registry.MODEL_NAMES`.
    Each model's per-group evaluation is an independent cell, so the rows can
    be computed on a worker pool (``REPRO_MAX_WORKERS``) with results
    identical to the serial path.
    """
    scale = scale or get_scale()
    rows_by_model = parallel_map(table3_cell, MODEL_NAMES, shared=(dataset, seed, scale))
    table = dict(rows_by_model)

    group_columns = [group for group in PAPER_GROUPS if any(group in row for row in table.values())]
    columns = ["Model", *group_columns, "AVERAGE"]
    rows = []
    for model_name, row_data in table.items():
        row: dict[str, object] = {"Model": model_name}
        for group in group_columns:
            value = row_data.get(group)
            row[group] = f"{value * 100:.2f}" if value is not None else "-"
        average = row_data.get("AVERAGE")
        row["AVERAGE"] = f"{average * 100:.2f}" if average is not None else "-"
        rows.append(row)
    text = format_table(
        rows, columns, title="TABLE III — Person-specific accuracy (%)"
    )
    return table, text


def table_winner_summary(
    table1: Mapping[str, Mapping[str, tuple[float, float]]]
) -> dict[str, str]:
    """Convenience: the best-accuracy model per dataset from Table I data."""
    winners = {}
    for dataset_name, cells in table1.items():
        winners[dataset_name] = max(cells, key=lambda model: cells[model][0])
    return winners


def average_rank(table1: Mapping[str, Mapping[str, tuple[float, float]]]) -> dict[str, float]:
    """Average rank (1 = best) of each model across datasets from Table I data."""
    model_names = list(next(iter(table1.values())).keys())
    ranks = {model: [] for model in model_names}
    for cells in table1.values():
        ordered = sorted(model_names, key=lambda model: -cells[model][0])
        for position, model in enumerate(ordered, start=1):
            ranks[model].append(position)
    return {model: float(np.mean(values)) for model, values in ranks.items()}


__all__.extend(["table_winner_summary", "average_rank"])
