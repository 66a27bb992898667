"""Data substrate: synthetic wearable-sensor datasets and perturbations.

The paper's three healthcare datasets (WESAD, Nurse Stress, Stress-Predict)
cannot be downloaded offline, so this subpackage generates synthetic analogues
with the same structure — multichannel physiological windows per subject and
affective state, demographic metadata, the paper's moving-average +
statistical-feature pipeline — plus the imbalance (Eq. 8) and bit-flip noise
injections used by the overfitting and robustness experiments.
"""

from .features import (
    STATISTICS,
    extract_features,
    feature_names,
    moving_average,
)
from .imbalance import imbalance_indices, make_imbalanced
from .loaders import SubjectRecord, TabularDataset, generate_subject_dataset
from .noise import flip_bits_fixed_point, perturb_model
from .nurse_stress import load_nurse_stress
from .signals import (
    CHANNELS,
    STRESS_LEVEL_STATES,
    WESAD_STATES,
    SignalSimulator,
    StatePhysiology,
    SubjectPhysiology,
)
from .stress_predict import load_stress_predict
from .wesad import load_wesad, make_wesad_subjects

__all__ = [
    "STATISTICS",
    "extract_features",
    "feature_names",
    "moving_average",
    "imbalance_indices",
    "make_imbalanced",
    "SubjectRecord",
    "TabularDataset",
    "generate_subject_dataset",
    "flip_bits_fixed_point",
    "perturb_model",
    "load_nurse_stress",
    "CHANNELS",
    "STRESS_LEVEL_STATES",
    "WESAD_STATES",
    "SignalSimulator",
    "StatePhysiology",
    "SubjectPhysiology",
    "load_stress_predict",
    "load_wesad",
    "make_wesad_subjects",
]
