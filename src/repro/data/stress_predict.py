"""Synthetic Stress-Predict-like dataset.

The real Stress-Predict dataset [Iqbal et al., 2022] is a pilot study with 15
participants wearing an Empatica E4 through a series of stressor tasks, with
the same reduced three-level labels (good / common / stress).  Accuracies in
the paper sit in the 65–68 % band — harder than WESAD, easier than the nurse
field study — so the synthetic analogue uses intermediate class overlap and
noise.
"""

from __future__ import annotations

import numpy as np

from .loaders import SubjectRecord, TabularDataset, generate_subject_dataset
from .signals import STRESS_LEVEL_STATES, SignalSimulator

__all__ = ["load_stress_predict"]

#: Window length in seconds, sampled at the simulator's 32 Hz; read at call time.
_WINDOW_SECONDS = 30.0


def load_stress_predict(
    *,
    n_subjects: int = 15,
    windows_per_state: int = 20,
    seed: int | None = 2,
) -> TabularDataset:
    """Generate the Stress-Predict-like dataset (moderate difficulty)."""
    rng = np.random.default_rng(seed)
    simulator = SignalSimulator(
        window_seconds=_WINDOW_SECONDS,
        noise_level=2.0,
        class_overlap=0.55,
        rng=rng,
    )
    subjects = []
    for subject_id in range(n_subjects):
        subjects.append(
            SubjectRecord(
                subject_id=subject_id,
                hand="left" if rng.random() < 0.12 else "right",
                gender="female" if rng.random() < 0.5 else "male",
                age=int(np.clip(rng.normal(30.0, 7.0), 20, 55)),
                height=float(np.clip(rng.normal(172.0, 9.0), 150, 200)),
                physiology=simulator.random_subject(strength=1.3),
            )
        )
    return generate_subject_dataset(
        name="Stress-Predict (synthetic)",
        states=STRESS_LEVEL_STATES,
        subject_records=subjects,
        windows_per_state=windows_per_state,
        simulator=simulator,
    )
