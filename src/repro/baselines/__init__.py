"""Classical machine-learning baselines implemented from scratch.

Every model the paper compares BoostHD against is rebuilt here on plain
``numpy`` with a shared estimator API (:class:`~repro.baselines.base.BaseClassifier`):
CART decision trees, Random Forest, AdaBoost (SAMME), XGBoost-style gradient
boosting, a Pegasos linear SVM and a DNN-style MLP, plus the feature scaling,
subject-wise split and metrics the experiments need.
"""

from .adaboost import AdaBoostClassifier
from .base import BaseClassifier, NotFittedError
from .gradient_boosting import GradientBoostingClassifier
from .metrics import accuracy, macro_accuracy, median_absolute_deviation
from .mlp import MLPClassifier
from .preprocessing import StandardScaler, subject_train_test_split
from .random_forest import RandomForestClassifier
from .svm import LinearSVM
from .tree import DecisionTreeClassifier, GradientTreeRegressor, TreeNode

__all__ = [
    "AdaBoostClassifier",
    "BaseClassifier",
    "NotFittedError",
    "GradientBoostingClassifier",
    "accuracy",
    "macro_accuracy",
    "median_absolute_deviation",
    "MLPClassifier",
    "StandardScaler",
    "subject_train_test_split",
    "RandomForestClassifier",
    "LinearSVM",
    "DecisionTreeClassifier",
    "GradientTreeRegressor",
    "TreeNode",
]
