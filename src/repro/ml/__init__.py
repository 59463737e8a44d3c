"""From-scratch ML library (scikit-learn substitute).

Provides the model families Section 5 experiments with (Random Forest,
Logistic Regression, GBDT) and the families the corpus's own Trainers
fit on the real-execution path, plus metrics and model selection.
"""

from .boosting import GradientBoostingClassifier
from .forest import RandomForestClassifier
from .linear import LogisticRegression
from .inspection import permutation_importance
from .mlp import MLPClassifier
from .metrics import (
    accuracy,
    auc,
    balanced_accuracy,
    roc_auc,
    roc_curve,
)
from .model_selection import grouped_train_test_split
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "GradientBoostingClassifier",
    "LogisticRegression",
    "MLPClassifier",
    "RandomForestClassifier",
    "accuracy",
    "auc",
    "balanced_accuracy",
    "grouped_train_test_split",
    "permutation_importance",
    "roc_auc",
    "roc_curve",
]
