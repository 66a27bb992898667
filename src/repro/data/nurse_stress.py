"""Synthetic Nurse Stress-like dataset.

The real Nurse Stress dataset [Hosseini et al., 2022] contains Empatica E4
recordings from 37 hospital nurses during work shifts, with stress levels
reduced to three labels (good / common / stress).  Field recordings are far
noisier than the lab-controlled WESAD sessions — the paper reports only
~55–62 % accuracy for every model — so the synthetic analogue uses a much
larger class overlap and heavier measurement noise, plus longer windows (the
paper notes the "relatively large input vectors" of this dataset).
"""

from __future__ import annotations

import numpy as np

from .loaders import SubjectRecord, TabularDataset, generate_subject_dataset
from .signals import STRESS_LEVEL_STATES, SignalSimulator

__all__ = ["load_nurse_stress"]

#: Window length in seconds, sampled at the simulator's 32 Hz; read at call time.
_WINDOW_SECONDS = 40.0


def load_nurse_stress(
    *,
    n_subjects: int = 37,
    windows_per_state: int = 12,
    seed: int | None = 1,
) -> TabularDataset:
    """Generate the Nurse-Stress-like dataset (hard, noisy, 37 subjects)."""
    rng = np.random.default_rng(seed)
    simulator = SignalSimulator(
        window_seconds=_WINDOW_SECONDS,
        noise_level=3.0,
        class_overlap=0.72,
        rng=rng,
    )
    subjects = []
    for subject_id in range(n_subjects):
        subjects.append(
            SubjectRecord(
                subject_id=subject_id,
                hand="left" if rng.random() < 0.15 else "right",
                gender="female" if rng.random() < 0.8 else "male",
                age=int(np.clip(rng.normal(35.0, 8.0), 22, 60)),
                height=float(np.clip(rng.normal(168.0, 8.0), 150, 195)),
                physiology=simulator.random_subject(strength=1.6),
            )
        )
    return generate_subject_dataset(
        name="Nurse Stress (synthetic)",
        states=STRESS_LEVEL_STATES,
        subject_records=subjects,
        windows_per_state=windows_per_state,
        simulator=simulator,
    )
