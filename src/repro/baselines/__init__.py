"""Classical machine-learning baselines implemented from scratch.

Every model the paper compares BoostHD against is rebuilt here on plain
``numpy`` with a shared estimator API (:class:`~repro.baselines.base.BaseClassifier`):
CART decision trees, Random Forest, AdaBoost (SAMME), XGBoost-style gradient
boosting, a Pegasos linear SVM and a DNN-style MLP, plus the preprocessing,
metric and model-selection utilities the experiments need.
"""

from .adaboost import AdaBoostClassifier
from .base import BaseClassifier, NotFittedError, clone
from .gradient_boosting import GradientBoostingClassifier
from .metrics import (
    accuracy,
    confusion_matrix,
    macro_accuracy,
    macro_f1,
    median_absolute_deviation,
    precision_recall_f1,
)
from .mlp import MLPClassifier
from .model_selection import cross_val_score, kfold_indices, leave_one_subject_out
from .preprocessing import (
    LabelEncoder,
    MinMaxScaler,
    StandardScaler,
    subject_train_test_split,
    train_test_split,
)
from .random_forest import RandomForestClassifier
from .svm import LinearSVM
from .tree import DecisionTreeClassifier, GradientTreeRegressor, TreeNode

__all__ = [
    "AdaBoostClassifier",
    "BaseClassifier",
    "NotFittedError",
    "clone",
    "GradientBoostingClassifier",
    "accuracy",
    "confusion_matrix",
    "macro_accuracy",
    "macro_f1",
    "median_absolute_deviation",
    "precision_recall_f1",
    "MLPClassifier",
    "cross_val_score",
    "kfold_indices",
    "leave_one_subject_out",
    "LabelEncoder",
    "MinMaxScaler",
    "StandardScaler",
    "subject_train_test_split",
    "train_test_split",
    "RandomForestClassifier",
    "LinearSVM",
    "DecisionTreeClassifier",
    "GradientTreeRegressor",
    "TreeNode",
]
