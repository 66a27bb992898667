"""The paper-scale model every workload fits, and the engine-layer timings.

Every workload fits ``BoostHD(total_dim=4000, n_learners=10, epochs=20)`` (the
FULL experiment scale, seeded by the run's seed) on the WESAD-like dataset
during set-up.  In a traced run the fit is wrapped at the
``repro.engine.train`` entry points and the engine layer is timed on the
workload's own feature rows.  Fit times are at the reference host speed
(:class:`perfbench.harness.HostSpeed`): a fit is one call of a few seconds,
so the clock is recalibrated between its train entry-point calls too.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from repro import BoostHD, compile_model, load_wesad
from repro.serving.shm import publish_engine

from .harness import SPEED, median
from .tracer import TRAIN_ENTRY_POINTS, aggregate, instrument, patching

FULL_SCALE = {"total_dim": 4000, "n_learners": 10, "epochs": 20}
#: Seed of the training dataset and its split (``load_wesad``'s default).
DATA_SEED = 0
PRECISIONS = ("float64", "fixed16", "bipolar-packed", "cascade-fixed16")
BATCHES = (1, 8, 64)
#: Wall-clock budget for timing one (precision, batch) pair.
SCORE_BUDGET_S = 0.06

#: Train span name -> metric (inclusive seconds over a traced fit).
TRAIN_METRICS = {
    "train.encode": "train.encode_s",
    "train.bundle": "train.bundle_s",
    "train.adaptive": "train.adaptive_s",
}


@dataclass
class Fitted:
    dataset: object
    model: BoostHD
    X_train: np.ndarray
    X_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray
    fit_s: float
    train: dict  # train.* seconds of a traced fit, else empty


def fit_model(
    seed: int,
    *,
    sampling_rate: float = 32.0,
    window_seconds: float = 20.0,
    spans=None,
) -> Fitted:
    """Generate the dataset, split it 80/20 by subject and fit the FULL model.

    The dataset and split are fixed (``load_wesad`` defaults, split seed
    ``DATA_SEED``), as in the paper's experiment; ``seed`` seeds the model.
    With a span recorder ``spans``, the fit runs instrumented and ``train``
    holds its per-entry-point seconds.
    """
    dataset = load_wesad(
        seed=DATA_SEED, sampling_rate=sampling_rate, window_seconds=window_seconds
    )
    X_train, X_test, y_train, y_test = dataset.split(test_fraction=0.2, rng=DATA_SEED)
    model = BoostHD(seed=seed, **FULL_SCALE)
    traced = contextlib.nullcontext() if spans is None else instrument(spans)
    with traced, recalibrating():
        SPEED.calibrate()
        start = time.perf_counter()
        model.fit(X_train, y_train)
        end = time.perf_counter()
        SPEED.calibrate()
    train = {}
    if spans is not None:
        totals = aggregate(spans.spans)
        train = {metric: totals.get(name, (0, 0.0))[1] for name, metric in TRAIN_METRICS.items()}
    fit_s = SPEED.seconds(start, end)
    return Fitted(dataset, model, X_train, X_test, y_train, y_test, fit_s, train)


@contextlib.contextmanager
def recalibrating():
    """Recalibrate the host-speed clock, when due, before each train entry-point call.

    Patched over any tracing wrappers, so calibrations fall outside the spans.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            if SPEED.due():
                SPEED.calibrate()
            return original(*args, **kwargs)

        return wrapper

    with patching() as patch:
        for module, function, _ in TRAIN_ENTRY_POINTS:
            patch(module, function, make)
        yield


def _score_us_per_row(engine, rows: np.ndarray, batch: int) -> float:
    """Median call time over consecutive ``batch``-row slices of ``rows``, per row."""
    pool = np.concatenate([rows] * max(1, -(-batch // len(rows))))
    chunks = [pool[start : start + batch] for start in range(0, len(pool) - batch + 1, batch)]
    times = []
    deadline = time.perf_counter() + SCORE_BUDGET_S
    while time.perf_counter() < deadline or len(times) < 5:
        chunk = chunks[len(times) % len(chunks)]
        began = time.perf_counter()
        engine.decision_function(chunk)
        times.append(time.perf_counter() - began)
    return median(times) / batch * 1e6


def engine_layers(model: BoostHD, rows: np.ndarray) -> dict:
    """Compile time per precision, score time per row at batch 1/8/64, publish time.

    ``rows`` are the workload's own (scaled) feature rows.  The cascade's
    rerank fraction is measured on one pass over all of them.
    """
    metrics: dict = {}
    engines = {}
    for precision in PRECISIONS:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            engines[precision] = compile_model(model, precision=precision)
            times.append(time.perf_counter() - start)
        metrics[f"engine.compile_ms.{precision}"] = median(times) * 1e3
    for precision, engine in engines.items():
        for batch in BATCHES:
            metrics[f"engine.score_us_per_row.{precision}.b{batch}"] = _score_us_per_row(
                engine, rows, batch
            )
    cascade = compile_model(model, precision="cascade-fixed16")
    cascade.decision_function(rows)
    metrics["cascade.rerank_fraction"] = cascade.stats.rows_reranked / max(
        cascade.stats.rows_scored, 1
    )
    times = []
    for _ in range(3):
        start = time.perf_counter()
        shared = publish_engine(engines["fixed16"], generation=0)
        times.append(time.perf_counter() - start)
        shared.unlink()
    metrics["fabric.publish_ms"] = median(times) * 1e3
    return metrics
