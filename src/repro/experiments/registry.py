"""Model registry with the paper's baseline configurations.

Section IV lists the hyper-parameters of every baseline: AdaBoost (learning
rate 1.0, 10 estimators), Random Forest (bootstrap, 10 estimators), XGBoost
(10 estimators), SVM (linear kernel), a DNN with layers [2048, 1024, 512,
classes] / ReLU / dropout / lr 0.001, OnlineHD (lr 0.035, bootstrap, N(0,1)
encoder) and BoostHD with ``D_wl = D_total / N_L``.  This registry builds each
of them, parameterised by the active :class:`~repro.experiments.config.ExperimentScale`
so that quick runs shrink only sizes, never algorithms.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from ..baselines.adaboost import AdaBoostClassifier
from ..baselines.base import BaseClassifier
from ..baselines.gradient_boosting import GradientBoostingClassifier
from ..baselines.mlp import MLPClassifier
from ..baselines.random_forest import RandomForestClassifier
from ..baselines.svm import LinearSVM
from ..core.boosthd import BoostHD
from ..hdc.onlinehd import OnlineHD
from .config import ExperimentScale, get_scale

__all__ = ["MODEL_NAMES", "build_model", "check_model_names"]

#: The seven models of Tables I–III, in the paper's column order.
MODEL_NAMES: tuple[str, ...] = (
    "AdaBoost",
    "RF",
    "XGBoost",
    "SVM",
    "DNN",
    "OnlineHD",
    "BoostHD",
)


def build_model(
    name: str, seed: int = 0, scale: ExperimentScale | None = None
) -> BaseClassifier:
    """Construct one of the paper's models with its published configuration."""
    scale = scale or get_scale()
    if name == "AdaBoost":
        return AdaBoostClassifier(n_estimators=10, learning_rate=1.0, max_depth=2, seed=seed)
    if name == "RF":
        return RandomForestClassifier(n_estimators=10, bootstrap=True, seed=seed)
    if name == "XGBoost":
        return GradientBoostingClassifier(n_estimators=10, max_depth=3)
    if name == "SVM":
        return LinearSVM(regularization=1e-3, epochs=20, seed=seed)
    if name == "DNN":
        return MLPClassifier(
            hidden_layers=scale.dnn_hidden,
            lr=1e-3,
            epochs=scale.dnn_epochs,
            dropout=0.2,
            seed=seed,
        )
    if name == "OnlineHD":
        return OnlineHD(
            dim=scale.total_dim,
            lr=0.035,
            epochs=scale.hd_epochs,
            bootstrap=True,
            seed=seed,
        )
    if name == "BoostHD":
        return BoostHD(
            total_dim=scale.total_dim,
            n_learners=scale.n_learners,
            lr=0.035,
            epochs=scale.hd_epochs,
            bootstrap=True,
            seed=seed,
        )
    raise ValueError(f"unknown model {name!r}; available: {MODEL_NAMES}")


def check_model_names(names: Sequence[str]) -> tuple[str, ...]:
    """``names`` as a tuple, or a ``ValueError`` naming every unknown or
    repeated one — so a grid refuses bad names before anything trains."""
    names = tuple(names)
    unknown = [name for name in dict.fromkeys(names) if name not in MODEL_NAMES]
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if unknown or repeated:
        raise ValueError(
            f"unknown model names {unknown}, repeated model names {repeated}; "
            f"available: {MODEL_NAMES}"
        )
    return names
