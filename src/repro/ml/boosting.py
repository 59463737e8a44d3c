"""Gradient-boosted decision trees (binary classification).

One of the "more complex models" the paper compared Random Forest against
(Section 5.2.2). Standard gradient boosting on the logistic loss:
each stage fits a shallow regression tree to the negative gradient
(residuals), with a shrinkage learning rate.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTreeRegressor, check_features


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class GradientBoostingClassifier:
    """Binary GBDT with logistic loss.

    Args:
        n_estimators: Number of boosting stages.
        learning_rate: Shrinkage per stage.
        max_depth: Depth of each stage's regression tree.
        min_samples_leaf: Leaf size floor per tree.
        subsample: Row fraction per stage (stochastic gradient boosting).
        random_state: Seed for subsampling and tree feature choices.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, min_samples_leaf: int = 1,
                 subsample: float = 1.0,
                 random_state: int | None = None) -> None:
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state
        self.trees_: list[DecisionTreeRegressor] = []
        self.init_score_: float = 0.0
        self.classes_: np.ndarray | None = None

    def fit(self, features: np.ndarray,
            target: np.ndarray) -> "GradientBoostingClassifier":
        """Fit the boosted ensemble."""
        features = check_features(features)
        target = np.asarray(target)
        self.classes_ = np.unique(target)
        if len(self.classes_) > 2:
            raise ValueError("only binary classification is supported")
        y = (target == self.classes_[-1]).astype(float)
        rng = np.random.default_rng(self.random_state)
        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.init_score_ = float(np.log(positive_rate / (1 - positive_rate)))
        scores = np.full(len(y), self.init_score_)
        self.trees_ = []
        n = len(y)
        for _ in range(self.n_estimators):
            residuals = y - _sigmoid(scores)
            if self.subsample < 1.0:
                rows = rng.choice(n, size=max(1, int(self.subsample * n)),
                                  replace=False)
            else:
                rows = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2 ** 31 - 1)))
            tree.fit(features[rows], residuals[rows])
            self.trees_.append(tree)
            scores = scores + self.learning_rate * tree.predict(features)
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw additive scores (log-odds)."""
        if not self.trees_:
            raise RuntimeError("model is not fitted")
        features = np.asarray(features, dtype=float)
        scores = np.full(len(features), self.init_score_)
        for tree in self.trees_:
            scores = scores + self.learning_rate * tree.predict(features)
        return scores

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """(n, 2) matrix of [P(class0), P(class1)]."""
        p1 = _sigmoid(self.decision_function(features))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted labels (original class values)."""
        p1 = _sigmoid(self.decision_function(features))
        return np.where(p1 >= 0.5, self.classes_[-1], self.classes_[0])
