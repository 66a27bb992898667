"""Reliability analysis: stability, imbalance and bit-flip robustness.

Reproduces the paper's three reliability arguments (Sections IV-B/C/D) on the
synthetic WESAD dataset at a reduced scale:

1. run-to-run stability of accuracy as a function of the dimensionality D
   (Figure 6),
2. macro accuracy under induced class imbalance, Eq. 8 (Figure 7),
3. accuracy under bit-flip noise in the stored model parameters (Figure 8).

Every size comes from the quick scale: Figures 6 and 7 train 8 adaptive
epochs and Figure 8 runs 5 bit-flip trials a probability, each call stating
its own with ``dataclasses.replace(QUICK, ...)``.

Run with::

    python examples/reliability_analysis.py
"""

from __future__ import annotations

import dataclasses

from repro import load_wesad
from repro.experiments import (
    QUICK,
    figure6_stability,
    figure7_overfitting,
    figure8_robustness,
)


def main() -> None:
    print("Generating a synthetic WESAD-like dataset...")
    dataset = load_wesad(n_subjects=8, windows_per_state=12, seed=0)

    print("\n[1/3] Stability: accuracy and sigma vs dimensionality (Figure 6)")
    results, text = figure6_stability(
        dataset,
        dims=(100, 300, 600, 1000),
        seed=0,
        scale=dataclasses.replace(QUICK, hd_epochs=8),
    )
    print(text)
    for name, sweep in results.items():
        print(f"  mu_sigma[{name}] = {sweep.mean_sigma:.4f}")

    print("\n[2/3] Overfitting: macro accuracy under class imbalance (Figure 7)")
    _, text = figure7_overfitting(
        dataset,
        keep_fractions=(1.0, 0.6, 0.3),
        total_dims=(1000,),
        seed=0,
        scale=dataclasses.replace(QUICK, hd_epochs=8),
    )
    print(text)

    print("\n[3/3] Robustness: accuracy under bit-flip noise (Figure 8)")
    _, text = figure8_robustness(
        dataset,
        probabilities=(1e-6, 1e-5, 1e-4),
        seed=0,
        scale=dataclasses.replace(QUICK, bitflip_trials=5),
    )
    print(text)


if __name__ == "__main__":
    main()
