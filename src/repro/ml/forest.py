"""Random Forest classifier.

The paper's chosen decision function (Section 5.2.2): "Random Forest
performed comparably with the more complex models explored by the
Auto-ML tool". Bootstrap-sampled CART trees with per-node feature
subsampling; probabilities are averaged leaf class frequencies, which is
what the threshold sweep in Section 5.3.2 operates on.

``fit`` draws every tree's bootstrap rows and seed from the forest rng
first, in the order a tree-by-tree loop draws them, then grows all the
trees together in one lockstep frontier (:func:`repro.ml.tree.grow_trees`).
Each tree is therefore the tree it would be if grown alone. A tree grows
on its distinct rows, each row's class indicator counting its bootstrap
copies. The fit is traced as one ``ml.fit`` span.

Inference (out-of-bag scores and ``predict_proba``) stacks every tree's
node arrays into one table and routes all (tree, row) pairs through it
level by level in one pass; each tree's leaf probabilities are then
added in tree order, so every sum is the one a tree-by-tree loop makes.
"""

from __future__ import annotations

import numpy as np

from ..obs.tracing import span
from .tree import (DecisionTreeClassifier, check_features, grow_trees,
                   one_hot, route)

#: Most (tree, row) pairs one inference pass routes at once; rows are
#: taken in blocks, so scratch memory stays bounded for any input.
_ROUTE_BUDGET = 1 << 18


class _NodeTable:
    """Every tree's node arrays stacked into one table.

    Tree ``t``'s node ``k`` is row ``roots[t] + k``, and its child
    pointers are shifted by the same offset (leaves keep ``-1``).
    """

    def __init__(self, trees: list[DecisionTreeClassifier]) -> None:
        sizes = [tree.node_count for tree in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        shift = np.repeat(self.roots, sizes)
        self.feature = np.concatenate([tree.feature_ for tree in trees])
        self.threshold = np.concatenate([tree.threshold_ for tree in trees])
        left = np.concatenate([tree.left_ for tree in trees])
        right = np.concatenate([tree.right_ for tree in trees])
        self.left = np.where(left >= 0, left + shift, -1)
        self.right = np.where(right >= 0, right + shift, -1)

    def leaves(self, features: np.ndarray, trees: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
        """Tree-local leaf id that row ``rows[i]`` reaches in tree
        ``trees[i]``, for every pair at once."""
        start = self.roots[trees]
        return route(self.feature, self.threshold, self.left, self.right,
                     features, start.copy(), rows) - start


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
        self._nodes: _NodeTable | None = None
        self.classes_: np.ndarray | None = None
        self.feature_importances_: np.ndarray | None = None
        #: Out-of-bag class probabilities per training row (rows never
        #: out of bag fall back to the in-bag ensemble estimate).
        self.oob_decision_function_: np.ndarray | None = None

    def fit(self, features: np.ndarray,
            target: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble: every tree grows in one lockstep frontier."""
        features = check_features(features)
        target = np.asarray(target)
        if len(features) != len(target):
            raise ValueError("features and target length mismatch")
        rng = np.random.default_rng(self.random_state)
        self.classes_, encoded = np.unique(target, return_inverse=True)
        n = len(features)
        # Each tree's bootstrap (as copies per row) and seed, drawn in the
        # order of fitting the trees one by one; the fits are then
        # independent.
        copies = np.ones((self.n_estimators, n), dtype=np.int32)
        self.trees_ = []
        for tree_copies in copies:
            if self.bootstrap:
                tree_copies[:] = np.bincount(rng.integers(0, n, size=n),
                                             minlength=n)
            self.trees_.append(DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2 ** 31 - 1))))
        with span("ml.fit", trees=self.n_estimators, rows=n) as record:
            # Each tree grows on its distinct rows, a row's class
            # indicator weighted by its number of copies.
            target = one_hot(encoded, len(self.classes_))[:, None] * copies
            grow_trees(self.trees_, features,
                       target.reshape(len(self.classes_), -1),
                       (np.flatnonzero(count) for count in copies))
            self._finish_trees(features, encoded, copies)
            record.set_attr("nodes", sum(tree.node_count
                                         for tree in self.trees_))
        return self

    def _finish_trees(self, features: np.ndarray, encoded: np.ndarray,
                      copies: np.ndarray) -> None:
        """Per-tree classes, importances and out-of-bag scores."""
        n = len(features)
        importances = np.zeros(features.shape[1])
        self._tree_columns = []
        for tree, tree_copies in zip(self.trees_, copies):
            # Forest column of each tree class (a bootstrap may miss some).
            columns = np.unique(encoded[tree_copies > 0])
            tree.classes_ = self.classes_[columns]
            if len(columns) < len(self.classes_):
                tree.value_ = tree.value_[:, columns]
            self._tree_columns.append(columns)
            importances += tree.feature_importances_
        self._nodes = _NodeTable(self.trees_)
        total = importances.sum()
        self.feature_importances_ = (importances / total if total > 0
                                     else importances)
        if self.oob_score:
            out_of_bag = copies == 0
            oob_sum = np.zeros((n, len(self.classes_)))
            self._add_probabilities(features, out_of_bag, oob_sum)
            oob_count = out_of_bag.sum(axis=0)
            covered = oob_count > 0
            oob = np.full((n, len(self.classes_)),
                          1.0 / len(self.classes_))
            oob[covered] = oob_sum[covered] / oob_count[covered, None]
            if not covered.all():
                oob[~covered] = self.predict_proba(features[~covered])
            self.oob_decision_function_ = oob

    def _add_probabilities(self, features: np.ndarray,
                           selected: np.ndarray, out: np.ndarray) -> None:
        """Add tree ``t``'s class probabilities for row ``i`` into
        ``out[i]`` wherever the (trees, n) ``selected`` is true.

        Rows go in blocks of at most ``_ROUTE_BUDGET`` pairs; within a
        block all pairs are routed in one pass, then the trees are
        added one after another, in forest order.
        """
        n_trees = len(self.trees_)
        block = max(1, _ROUTE_BUDGET // n_trees)
        for begin in range(0, len(features), block):
            trees, rows = np.nonzero(selected[:, begin:begin + block])
            rows += begin
            leaves = self._nodes.leaves(features, trees, rows)
            bounds = np.searchsorted(trees, np.arange(n_trees + 1))
            for t, (tree, columns) in enumerate(
                    zip(self.trees_, self._tree_columns)):
                lo, hi = bounds[t], bounds[t + 1]
                if lo < hi:
                    out[np.ix_(rows[lo:hi], columns)] += \
                        tree.value_[leaves[lo:hi]]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Averaged class probabilities, columns aligned to classes_.

        Trees trained on bootstrap samples may have seen only a subset of
        classes; their probabilities are scattered into the forest's full
        class set before averaging.
        """
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        features = self.trees_[0]._check_inference(features)
        total = np.zeros((len(features), len(self.classes_)))
        self._add_probabilities(
            features, np.ones((self.n_estimators, len(features)), bool),
            total)
        return total / self.n_estimators

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Majority-vote (probability-averaged) class labels."""
        probabilities = self.predict_proba(features)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, features: np.ndarray, target: np.ndarray) -> float:
        """Plain accuracy on the given data."""
        return float(np.mean(self.predict(features) == np.asarray(target)))
