"""Person-specific fairness evaluation (Table III).

Segments the synthetic WESAD subjects by demographic attributes (handedness,
gender, age band, height band) and evaluates a subset of models within each
group, reproducing the structure of the paper's Table III.  The groups are the
paper's, ``repro.analysis.PAPER_GROUPS``, which ``group_accuracy_table``
always evaluates.

Run with::

    python examples/person_specific_fairness.py
"""

from __future__ import annotations

from repro import load_wesad
from repro.analysis import PAPER_GROUPS, group_accuracy_table
from repro.baselines import RandomForestClassifier
from repro.core import BoostHD
from repro.hdc import OnlineHD


def main() -> None:
    print("Generating a synthetic WESAD-like cohort (12 subjects)...")
    dataset = load_wesad(n_subjects=12, windows_per_state=12, seed=0)
    for subject_id, record in sorted(dataset.subject_records.items()):
        print(
            f"  subject {subject_id:2d}: {record.gender:6s} {record.hand:5s}-handed, "
            f"age {record.age}, height {record.height:.0f} cm"
        )

    builders = {
        "RF": lambda seed: RandomForestClassifier(n_estimators=10, seed=seed),
        "OnlineHD": lambda seed: OnlineHD(dim=1000, epochs=10, seed=seed),
        "BoostHD": lambda seed: BoostHD(total_dim=1000, n_learners=10, epochs=10, seed=seed),
    }

    print("\nEvaluating each model within each demographic group...")
    table = group_accuracy_table(builders, dataset, seed=0)

    groups = [group for group in PAPER_GROUPS if any(group in row for row in table.values())]
    header = f"{'Model':10s} " + " ".join(f"{group:>14s}" for group in groups) + f" {'AVERAGE':>10s}"
    print("\n" + header)
    print("-" * len(header))
    for model, row in table.items():
        cells = " ".join(
            f"{row[group] * 100:14.2f}" if group in row else f"{'-':>14s}" for group in groups
        )
        average = f"{row['AVERAGE'] * 100:10.2f}" if "AVERAGE" in row else f"{'-':>10s}"
        print(f"{model:10s} {cells} {average}")


if __name__ == "__main__":
    main()
