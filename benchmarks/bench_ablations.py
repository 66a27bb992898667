"""Ablation benchmarks for the BoostHD design choices called out in DESIGN.md.

Four ablations, each on the WESAD-like dataset with the same dimension budget:

1. aggregation rule — weighted vote vs weighted similarity-score sum;
2. sample weighting — pure boosting weights vs the default uniform blend;
3. partitioning — independent per-learner encoders vs slicing one shared
   ``D_total`` encoder;
4. boosting vs bagging — BoostHD vs a parallel BaggedHD ensemble vs a single
   OnlineHD model of the same total dimension.
"""

from repro.core import BaggedHD, BoostHD
from repro.experiments import run_model
from repro.hdc import OnlineHD


def _mean_accuracy(build, X_train, y_train, X_test, y_test):
    """Mean accuracy over two seeded runs, measured through the runtime core.

    ``run_model`` routes each run through
    :func:`repro.runtime.cells.single_run` with the legacy per-run seeds, so
    ablation numbers stay comparable with the suite tables.  The engine pass
    is skipped: ablations compare accuracies, not inference paths.
    """
    result = run_model(build, X_train, y_train, X_test, y_test, engine=False)
    return result.mean_accuracy


def test_ablation_aggregation(run_once, wesad_split, scale):
    X_train, X_test, y_train, y_test = wesad_split

    def run():
        return {
            aggregation: _mean_accuracy(
                lambda seed, aggregation=aggregation: BoostHD(
                    total_dim=scale.total_dim,
                    n_learners=scale.n_learners,
                    epochs=scale.hd_epochs,
                    aggregation=aggregation,
                    seed=seed,
                ),
                X_train,
                y_train,
                X_test,
                y_test,
            )
            for aggregation in ("vote", "score")
        }

    results = run_once(run)
    print(f"\nABLATION aggregation: {results}")
    assert all(0.4 <= value <= 1.0 for value in results.values())


def test_ablation_sample_weighting(run_once, wesad_split, scale):
    X_train, X_test, y_train, y_test = wesad_split

    def run():
        return {
            f"blend={blend}": _mean_accuracy(
                lambda seed, blend=blend: BoostHD(
                    total_dim=scale.total_dim,
                    n_learners=scale.n_learners,
                    epochs=scale.hd_epochs,
                    uniform_blend=blend,
                    seed=seed,
                ),
                X_train,
                y_train,
                X_test,
                y_test,
            )
            for blend in (0.0, 0.5, 1.0)
        }

    results = run_once(run)
    print(f"\nABLATION sample weighting: {results}")
    assert all(0.4 <= value <= 1.0 for value in results.values())


def test_ablation_partitioning(run_once, wesad_split, scale):
    X_train, X_test, y_train, y_test = wesad_split

    def run():
        independent = _mean_accuracy(
            lambda seed: BoostHD(
                total_dim=scale.total_dim,
                n_learners=scale.n_learners,
                epochs=scale.hd_epochs,
                seed=seed,
            ),
            X_train,
            y_train,
            X_test,
            y_test,
        )
        shared = _mean_accuracy(
            lambda seed: BoostHD(
                total_dim=scale.total_dim,
                n_learners=scale.n_learners,
                epochs=scale.hd_epochs,
                shared_projection=True,
                seed=seed,
            ),
            X_train,
            y_train,
            X_test,
            y_test,
        )
        return {"independent": independent, "shared": shared}

    results = run_once(run)
    print(f"\nABLATION partitioning: {results}")
    # Both strategies must produce working ensembles of comparable quality.
    assert abs(results["independent"] - results["shared"]) < 0.25
    assert min(results.values()) > 0.4


def test_ablation_boosting_vs_bagging(run_once, wesad_split, scale):
    X_train, X_test, y_train, y_test = wesad_split

    def run():
        return {
            "BoostHD": _mean_accuracy(
                lambda seed: BoostHD(
                    total_dim=scale.total_dim,
                    n_learners=scale.n_learners,
                    epochs=scale.hd_epochs,
                    seed=seed,
                ),
                X_train,
                y_train,
                X_test,
                y_test,
            ),
            "BaggedHD": _mean_accuracy(
                lambda seed: BaggedHD(
                    total_dim=scale.total_dim,
                    n_learners=scale.n_learners,
                    epochs=scale.hd_epochs,
                    seed=seed,
                ),
                X_train,
                y_train,
                X_test,
                y_test,
            ),
            "OnlineHD": _mean_accuracy(
                lambda seed: OnlineHD(
                    dim=scale.total_dim, epochs=scale.hd_epochs, seed=seed
                ),
                X_train,
                y_train,
                X_test,
                y_test,
            ),
        }

    results = run_once(run)
    print(f"\nABLATION boosting vs bagging vs single model: {results}")
    assert results["BoostHD"] >= results["BaggedHD"] - 0.1
    assert min(results.values()) > 0.4
