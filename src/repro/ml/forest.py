"""Random Forest classifier.

The paper's chosen decision function (Section 5.2.2): "Random Forest
performed comparably with the more complex models explored by the
Auto-ML tool". Bootstrap-sampled CART trees with per-node feature
subsampling; probabilities are averaged leaf class frequencies, which is
what the threshold sweep in Section 5.3.2 operates on.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTreeClassifier


class RandomForestClassifier:
    """Bagged ensemble of :class:`DecisionTreeClassifier`.

    Args:
        n_estimators: Number of trees.
        max_depth: Depth cap per tree (None = unbounded).
        max_features: Per-node feature subsample ("sqrt" by default).
        min_samples_leaf: Leaf size floor.
        bootstrap: Sample rows with replacement per tree.
        random_state: Seed; the forest is fully deterministic given it.

    Example:
        >>> x = np.random.default_rng(0).normal(size=(200, 4))
        >>> y = (x[:, 0] + x[:, 1] > 0).astype(int)
        >>> forest = RandomForestClassifier(n_estimators=10, random_state=0)
        >>> float((forest.fit(x, y).predict(x) == y).mean()) > 0.9
        True
    """

    def __init__(self, n_estimators: int = 100,
                 max_depth: int | None = None,
                 max_features: int | float | str | None = "sqrt",
                 min_samples_leaf: int = 1,
                 min_samples_split: int = 2,
                 bootstrap: bool = True,
                 oob_score: bool = False,
                 random_state: int | None = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if oob_score and not bootstrap:
            raise ValueError("oob_score requires bootstrap sampling")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self._tree_columns: list[np.ndarray] = []
        self.classes_: np.ndarray | None = None
        self.feature_importances_: np.ndarray | None = None
        #: Out-of-bag class probabilities per training row (rows never
        #: out of bag fall back to the in-bag ensemble estimate).
        self.oob_decision_function_: np.ndarray | None = None

    def fit(self, features: np.ndarray,
            target: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble."""
        features = np.asarray(features, dtype=float)
        target = np.asarray(target)
        if len(features) != len(target):
            raise ValueError("features and target length mismatch")
        rng = np.random.default_rng(self.random_state)
        self.classes_ = np.unique(target)
        n = len(features)
        self.trees_ = []
        importances = np.zeros(features.shape[1])
        self._tree_columns = []
        oob_sum = np.zeros((n, len(self.classes_)))
        oob_count = np.zeros(n)
        for _ in range(self.n_estimators):
            if self.bootstrap:
                rows = rng.integers(0, n, size=n)
            else:
                rows = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2 ** 31 - 1)))
            tree.fit(features[rows], target[rows])
            self.trees_.append(tree)
            # Forest column of each tree class (a bootstrap may miss some).
            columns = np.searchsorted(self.classes_, tree.classes_)
            self._tree_columns.append(columns)
            importances += tree.feature_importances_
            if self.oob_score and self.bootstrap:
                out_mask = np.ones(n, dtype=bool)
                out_mask[rows] = False
                if out_mask.any():
                    oob_sum[np.ix_(out_mask, columns)] += \
                        tree.predict_proba(features[out_mask])
                    oob_count[out_mask] += 1
        total = importances.sum()
        self.feature_importances_ = (importances / total if total > 0
                                     else importances)
        if self.oob_score:
            covered = oob_count > 0
            oob = np.full((n, len(self.classes_)),
                          1.0 / len(self.classes_))
            oob[covered] = oob_sum[covered] / oob_count[covered, None]
            if not covered.all():
                oob[~covered] = self.predict_proba(features[~covered])
            self.oob_decision_function_ = oob
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Averaged class probabilities, columns aligned to classes_.

        Trees trained on bootstrap samples may have seen only a subset of
        classes; their probabilities are scattered into the forest's full
        class set before averaging.
        """
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        features = np.asarray(features, dtype=float)
        total = np.zeros((len(features), len(self.classes_)))
        for tree, columns in zip(self.trees_, self._tree_columns):
            total[:, columns] += tree.predict_proba(features)
        return total / self.n_estimators

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Majority-vote (probability-averaged) class labels."""
        probabilities = self.predict_proba(features)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, features: np.ndarray, target: np.ndarray) -> float:
        """Plain accuracy on the given data."""
        return float(np.mean(self.predict(features) == np.asarray(target)))
