"""Compare all seven models on the three wearable stress-detection datasets.

This mirrors the paper's Table I / Table II evaluation at a reduced scale:
every model (AdaBoost, Random Forest, XGBoost-style boosting, linear SVM,
DNN, OnlineHD, BoostHD) is trained on subject-wise splits of the synthetic
WESAD, Nurse Stress and Stress-Predict datasets, and both accuracy and
per-query inference time are reported.  The quick scale's sizes hold, but
with 2 runs a model (``dataclasses.replace(QUICK, n_runs=2)``).

Run with::

    python examples/stress_monitoring_comparison.py
"""

from __future__ import annotations

import dataclasses

from repro.experiments import (
    QUICK,
    run_suite,
    table1_accuracy,
    table2_inference,
)
from repro.experiments.runner import load_datasets
from repro.experiments.tables import average_rank, table_winner_summary


def main() -> None:
    print("Generating the three synthetic datasets (quick scale)...")
    datasets = load_datasets(QUICK)
    for name, dataset in datasets.items():
        print(f"  {name}: {dataset.n_samples} windows from {len(dataset.subject_ids)} subjects")

    print("\nRunning every model on every dataset (this takes a few minutes)...")
    suite = run_suite(datasets, scale=dataclasses.replace(QUICK, n_runs=2))

    _, accuracy_text = table1_accuracy(suite)
    print("\n" + accuracy_text)

    _, timing_text = table2_inference(suite)
    print("\n" + timing_text)

    data, _ = table1_accuracy(suite)
    print("\nBest model per dataset:", table_winner_summary(data))
    ranks = average_rank(data)
    print("Average rank across datasets (1 = best):")
    for model, rank in sorted(ranks.items(), key=lambda item: item[1]):
        print(f"  {model:10s} {rank:.2f}")


if __name__ == "__main__":
    main()
