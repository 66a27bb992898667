"""Generators for the paper's figures (2–8) as numeric series.

Plots are reproduced as the underlying numeric series (x values plus one or
more y series) together with a formatted text rendering, which is what a
headless benchmark can print and a test can assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.robustness import BitflipSweepResult
from ..analysis.spectra import KernelShapeReport, encoded_data_spread, kernel_shape_report
from ..analysis.stability import DimensionSweepPoint, DimensionSweepResult
from ..core.boosthd import BoostHD
from ..core.span import SpanUtilization, span_utilization
from ..core.theory import term_convergence_table
from ..data.loaders import TabularDataset
from ..hdc.encoder import NonlinearEncoder
from ..hdc.onlinehd import OnlineHD
from ..runtime.cells import bitflip_cell, heatmap_cell, imbalance_cell, stability_cell
from ..runtime.executor import parallel_map
from .config import ExperimentScale, get_scale
from .registry import check_model_names
from .reporting import format_series

__all__ = [
    "figure2_theory_terms",
    "figure3_heatmap",
    "figure4_kernel_shape",
    "figure5_span",
    "figure6_stability",
    "figure7_overfitting",
    "figure8_robustness",
]


# --------------------------------------------------------------------- Fig 2
def figure2_theory_terms(
    q_values: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], str]:
    """Figure 2: the σ²_λ terms T1, T2, T3 as functions of q."""
    table = term_convergence_table(q_values)
    text = format_series(
        [f"{q:.1f}" for q in table["q"]],
        {"T1": table["T1"], "T2": table["T2"], "T3": table["T3"]},
        x_label="q",
        title="FIGURE 2 — Convergence of the sigma^2_lambda terms",
    )
    return table, text


# --------------------------------------------------------------------- Fig 3
@dataclass(frozen=True)
class HeatmapResult:
    """Accuracy grid over (N_L, D) for one of the Figure 3 panels."""

    mode: str
    learner_counts: tuple[int, ...]
    dims: tuple[int, ...]
    accuracy: np.ndarray  # shape (len(learner_counts), len(dims))

    def cell(self, n_learners: int, dim: int) -> float:
        row = self.learner_counts.index(n_learners)
        column = self.dims.index(dim)
        return float(self.accuracy[row, column])


def figure3_heatmap(
    dataset: TabularDataset,
    *,
    mode: str = "total",
    learner_counts: Sequence[int] = (1, 2, 5, 10, 20, 50),
    dims: Sequence[int] = (1000, 2000, 4000),
    epochs: int = 10,
    seed: int = 0,
) -> tuple[HeatmapResult, str]:
    """Figure 3: accuracy heatmap over ensemble size and dimensionality.

    ``mode="per_learner"`` reproduces panel (a), where ``dims`` are the
    dimensionality given to *each* weak learner; ``mode="total"`` reproduces
    panel (b), where ``dims`` are ``D_total`` split across the learners —
    the configuration that collapses when ``D_total / N_L`` gets too small.

    Every (N_L, D) cell trains independently with a seed derived from its
    grid position, so ``REPRO_MAX_WORKERS`` > 1 fans the grid out over a
    process pool with bit-identical results.
    """
    if mode not in ("per_learner", "total"):
        raise ValueError(f"mode must be 'per_learner' or 'total', got {mode!r}")
    split = dataset.split(rng=seed)
    items = []
    for row, n_learners in enumerate(learner_counts):
        for column, dim in enumerate(dims):
            total_dim = dim * n_learners if mode == "per_learner" else dim
            items.append(
                (
                    row,
                    column,
                    int(n_learners),
                    int(total_dim),
                    int(epochs),
                    seed + row * 100 + column,
                )
            )
    scores = parallel_map(heatmap_cell, items, shared=split)
    grid = np.zeros((len(learner_counts), len(dims)))
    for (row, column, *_), score in zip(items, scores):
        grid[row, column] = score
    result = HeatmapResult(
        mode=mode,
        learner_counts=tuple(int(count) for count in learner_counts),
        dims=tuple(int(dim) for dim in dims),
        accuracy=grid,
    )
    series = {
        f"D={dim}": grid[:, column] for column, dim in enumerate(result.dims)
    }
    label = "per-learner D" if mode == "per_learner" else "total D"
    text = format_series(
        [str(count) for count in result.learner_counts],
        series,
        x_label="N_L",
        title=f"FIGURE 3 — BoostHD accuracy heatmap ({label})",
    )
    return result, text


# --------------------------------------------------------------------- Fig 4
def figure4_kernel_shape(
    dataset: TabularDataset,
    *,
    dims: Sequence[int] = (400, 4000),
    seed: int = 0,
) -> tuple[dict[int, dict[str, object]], str]:
    """Figure 4: kernel shape and encoded-data spread at different dimensions.

    For every requested hyperdimension the encoder's empirical/theoretical
    axis ratio (circularity) and the spread of the encoded data are reported;
    larger dimensions approach a circular kernel and a thinner spread, which
    is the figure's "wasted space" regime.
    """
    reports: dict[int, dict[str, object]] = {}
    sample = dataset.X[: min(len(dataset.X), 200)]
    for dim in dims:
        encoder = NonlinearEncoder(dataset.n_features, int(dim), rng=seed)
        shape: KernelShapeReport = kernel_shape_report(encoder)
        spread = encoded_data_spread(encoder, sample)
        reports[int(dim)] = {"shape": shape, "spread": spread}
    text = format_series(
        [str(dim) for dim in dims],
        {
            "axis_ratio": [reports[int(d)]["shape"].empirical_axis_ratio for d in dims],
            "axis_ratio_theory": [
                reports[int(d)]["shape"].theoretical_axis_ratio for d in dims
            ],
            "top10_variance": [
                reports[int(d)]["spread"]["top10_variance_fraction"] for d in dims
            ],
        },
        x_label="D",
        title="FIGURE 4 — Kernel circularity and encoded-data spread vs D",
    )
    return reports, text


# --------------------------------------------------------------------- Fig 5
def figure5_span(
    dataset: TabularDataset,
    *,
    total_dim: int | None = None,
    n_learners: int | None = None,
    epochs: int | None = None,
    seed: int = 0,
    scale: ExperimentScale | None = None,
) -> tuple[dict[str, SpanUtilization], str]:
    """Figure 5: span utilization of BoostHD vs OnlineHD class hypervectors."""
    scale = scale or get_scale()
    total_dim = scale.total_dim if total_dim is None else total_dim
    n_learners = scale.n_learners if n_learners is None else n_learners
    epochs = scale.hd_epochs if epochs is None else epochs
    X_train, X_test, y_train, y_test = dataset.split(rng=seed)

    online = OnlineHD(dim=total_dim, epochs=epochs, seed=seed)
    online.fit(X_train, y_train)
    boost = BoostHD(total_dim=total_dim, n_learners=n_learners, epochs=epochs, seed=seed)
    boost.fit(X_train, y_train)

    results = {
        "OnlineHD": span_utilization(online.class_hypervectors_),
        "BoostHD": span_utilization(boost.class_hypervectors()),
    }
    text = format_series(
        list(results.keys()),
        {
            "mean_abs_cosine": [results[name].mean_abs_cosine for name in results],
            "rank_ratio": [results[name].rank_ratio for name in results],
            "SP": [results[name].sp for name in results],
        },
        x_label="model",
        title="FIGURE 5 — Span utilization of class hypervectors",
        precision=6,
    )
    return results, text


# --------------------------------------------------------------------- Fig 6
def figure6_stability(
    dataset: TabularDataset,
    *,
    dims: Sequence[int] = (100, 200, 400, 600, 800, 1000),
    n_learners: int = 10,
    n_runs: int | None = None,
    epochs: int | None = None,
    seed: int = 0,
    scale: ExperimentScale | None = None,
) -> tuple[dict[str, DimensionSweepResult], str]:
    """Figure 6: accuracy and σ of BoostHD vs OnlineHD as functions of D.

    Every (model, dimension, run) point is an independent cell seeded by its
    run index, so the sweep parallelises over ``REPRO_MAX_WORKERS`` workers
    with results identical to the serial path.
    """
    scale = scale or get_scale()
    n_runs = scale.sweep_runs if n_runs is None else n_runs
    epochs = scale.hd_epochs if epochs is None else epochs
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if not dims:
        raise ValueError("dims must not be empty")
    split = dataset.split(rng=seed)

    kinds = ("OnlineHD", "BoostHD")
    items = [
        (kind, int(dim), run, int(n_learners), int(epochs))
        for kind in kinds
        for dim in dims
        for run in range(n_runs)
    ]
    scores = parallel_map(stability_cell, items, shared=split)
    results = {}
    cursor = 0
    for kind in kinds:
        points = []
        for dim in dims:
            points.append(
                DimensionSweepPoint(
                    dim=int(dim), scores=np.asarray(scores[cursor : cursor + n_runs])
                )
            )
            cursor += n_runs
        results[kind] = DimensionSweepResult(model_name=kind, points=tuple(points))
    online_sweep, boost_sweep = results["OnlineHD"], results["BoostHD"]
    text = format_series(
        [str(dim) for dim in dims],
        {
            "OnlineHD_acc": online_sweep.means,
            "OnlineHD_sigma": online_sweep.stds,
            "BoostHD_acc": boost_sweep.means,
            "BoostHD_sigma": boost_sweep.stds,
        },
        x_label="D",
        title="FIGURE 6 — Accuracy and sigma vs dimensionality",
    )
    return results, text


# --------------------------------------------------------------------- Fig 7
def figure7_overfitting(
    dataset: TabularDataset,
    *,
    keep_fractions: Sequence[float] = (1.0, 0.8, 0.6, 0.4, 0.2),
    total_dims: Sequence[int] = (1000, 4000),
    n_learners: int = 10,
    epochs: int | None = None,
    target_class: int = 0,
    seed: int = 0,
    scale: ExperimentScale | None = None,
) -> tuple[dict[int, dict[str, np.ndarray]], str]:
    """Figure 7: macro accuracy vs the imbalance ratio r (Eq. 8).

    For every ``D_total`` panel the training set of all classes except the
    target class is shrunk to the keep fraction r, models are retrained and
    macro accuracy on the untouched test set is reported.  Each
    (model, D_total, r) point is an independent cell whose imbalanced
    training subset and model seed derive from the keep-fraction index, so
    ``REPRO_MAX_WORKERS`` > 1 produces bit-identical panels.
    """
    scale = scale or get_scale()
    epochs = scale.hd_epochs if epochs is None else epochs
    split = dataset.split(rng=seed)

    kinds = ("OnlineHD", "BoostHD")
    items = [
        (
            kind,
            int(total_dim),
            index,
            float(fraction),
            int(target_class),
            int(n_learners),
            int(epochs),
            int(seed),
        )
        for total_dim in total_dims
        for kind in kinds
        for index, fraction in enumerate(keep_fractions)
    ]
    scores = parallel_map(imbalance_cell, items, shared=split)
    results: dict[int, dict[str, np.ndarray]] = {}
    cursor = 0
    for total_dim in total_dims:
        panel: dict[str, np.ndarray] = {
            "keep_fractions": np.asarray(keep_fractions, dtype=float)
        }
        for kind in kinds:
            panel[kind] = np.asarray(scores[cursor : cursor + len(keep_fractions)])
            cursor += len(keep_fractions)
        results[int(total_dim)] = panel

    sections = []
    for total_dim, series in results.items():
        sections.append(
            format_series(
                [f"{fraction:.2f}" for fraction in series["keep_fractions"]],
                {"OnlineHD": series["OnlineHD"], "BoostHD": series["BoostHD"]},
                x_label="r",
                title=f"FIGURE 7 — Macro accuracy vs imbalance ratio (D_total={total_dim})",
            )
        )
    return results, "\n\n".join(sections)


# --------------------------------------------------------------------- Fig 8
def figure8_robustness(
    dataset: TabularDataset,
    *,
    probabilities: Sequence[float] = (1e-6, 3e-6, 1e-5, 3e-5),
    model_names: Sequence[str] = ("DNN", "OnlineHD", "BoostHD"),
    n_trials: int | None = None,
    seed: int = 0,
    scale: ExperimentScale | None = None,
) -> tuple[dict[str, BitflipSweepResult], str]:
    """Figure 8: accuracy under bit-flip noise for DNN, OnlineHD and BoostHD.

    Bits flip in the 16-bit fixed-point codes of each model's parameters
    (:func:`repro.data.noise.flip_bits_fixed_point`).  Each model's full
    sweep is one independent cell (training plus all trial batches share the
    model instance), so ``REPRO_MAX_WORKERS`` parallelises over models with
    results identical to the serial path.  Unknown or repeated model names
    raise ``ValueError`` before anything trains.
    """
    scale = scale or get_scale()
    model_names = check_model_names(model_names)
    n_trials = scale.bitflip_trials if n_trials is None else n_trials
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    split = dataset.split(rng=seed)

    sweeps = parallel_map(
        bitflip_cell,
        model_names,
        shared=(split, tuple(probabilities), n_trials, seed, scale),
    )
    results: dict[str, BitflipSweepResult] = dict(zip(model_names, sweeps))
    text = format_series(
        [f"{probability:.0e}" for probability in probabilities],
        {name: sweep.means for name, sweep in results.items()},
        x_label="p_b",
        title="FIGURE 8 — Accuracy under bit-flip noise",
    )
    mad_lines = [
        f"  MAD[{name}] = {sweep.overall_mad:.4f}" for name, sweep in results.items()
    ]
    return results, text + "\n" + "\n".join(mad_lines)
