"""CART decision trees (classification and regression).

A from-scratch replacement for the scikit-learn trees the paper uses via
its Random Forest / GBDT experiments (Section 5.2.2); scikit-learn is not
available in this environment. Split search is batched with numpy: a
node sorts all its candidate columns at once and scores every threshold
of every column from prefix sums. Trees grow iteratively in preorder
into flat node arrays; prediction routes all rows level by level.

Supports ``max_features`` (random feature subsampling per node) so the
forest in :mod:`repro.ml.forest` is a proper Random Forest.
"""

from __future__ import annotations

import numpy as np


def _gini(class_counts: np.ndarray,
          sizes: np.ndarray | float) -> np.ndarray:
    """Gini impurity of class counts (last axis) that sum to ``sizes``.

    Two classes add their two squares directly: a two-term sum is the
    same in either order, and numpy's length-2 reduction is slow.
    """
    squares = (class_counts / np.expand_dims(sizes, -1)) ** 2
    if squares.shape[-1] == 2:
        return 1.0 - (squares[..., 0] + squares[..., 1])
    return 1.0 - squares.sum(axis=-1)


class _BaseTree:
    """Shared iterative builder; subclasses define leaf values/impurity."""

    #: How a node sorts its candidate columns. The regressor's float
    #: prefix sums depend on the order of tied values, so it sorts
    #: stably; class counts at a value change do not.
    _sort_kind = "stable"

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features: int | float | str | None = None,
                 random_state: int | None = None) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._n_features = 0
        self.feature_importances_: np.ndarray | None = None
        #: Node arrays, indexed by node id in preorder (root = 0). Leaves
        #: have ``feature_ == -1`` and children ``-1``.
        self.feature_ = self.threshold_ = self.left_ = self.right_ = None
        self.value_: np.ndarray | None = None

    # ---- subclass hooks ------------------------------------------------

    def _prepare_target(self, target: np.ndarray) -> np.ndarray:
        """Return the target in the encoding the other hooks consume."""
        return np.asarray(target, dtype=float)

    def _node_stats(self, y: np.ndarray):
        """Return (value, impurity) summarizing the target at a node."""
        raise NotImplementedError

    def _position_gains(self, ys: np.ndarray, lo: int,
                        hi: int) -> np.ndarray:
        """(k, hi - lo) gains of a split after each sorted position, from
        the (k, n) target sorted along each candidate column."""
        raise NotImplementedError

    def _accepted(self, gains: np.ndarray) -> np.ndarray:
        """Each candidate's best gain, or -1.0 where it may not split."""
        raise NotImplementedError

    # ---- fitting -------------------------------------------------------

    def fit(self, features: np.ndarray, target: np.ndarray):
        """Grow the tree on a dense (n, d) feature matrix."""
        features = np.asarray(features, dtype=float)
        target = np.asarray(target)
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if len(features) != len(target):
            raise ValueError("features and target length mismatch")
        if len(features) == 0:
            raise ValueError("cannot fit on empty data")
        self._n_features = features.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        importance = self._grow(features, self._prepare_target(target))
        total = importance.sum()
        self.feature_importances_ = (importance / total if total > 0
                                     else importance)
        return self

    def _n_candidate_features(self) -> int:
        spec = self.max_features
        d = self._n_features
        if spec is None:
            return d
        if spec == "sqrt":
            return max(1, int(np.sqrt(d)))
        if spec == "log2":
            return max(1, int(np.log2(d))) if d > 1 else 1
        if isinstance(spec, float):
            return max(1, int(spec * d))
        return max(1, min(int(spec), d))

    def _candidate_splits(self, block: np.ndarray, y: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Best (gain, threshold) of each row of a (k, n) column block.

        Valid split positions lie after sorted index ``i`` (left =
        ``[0..i]``) where the value changes and both sides keep
        ``min_samples_leaf`` rows; the first best position wins.
        """
        k, n = block.shape
        lo, hi = self.min_samples_leaf - 1, n - self.min_samples_leaf
        if hi <= lo:
            return np.full(k, -1.0), np.zeros(k)
        order = np.argsort(block, axis=1, kind=self._sort_kind)
        xs = np.take_along_axis(block, order, axis=1)
        gains = self._position_gains(y[order], lo, hi)
        gains[~(xs[:, lo:hi] < xs[:, lo + 1:hi + 1])] = -np.inf
        best = np.argmax(gains, axis=1)
        columns = np.arange(k)
        position = best + lo
        thresholds = (xs[columns, position]
                      + xs[columns, position + 1]) / 2.0
        return self._accepted(gains[columns, best]), thresholds

    def _grow(self, features: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Grow the node arrays in preorder; return raw importances."""
        columns = np.ascontiguousarray(features.T)
        d = self._n_features
        k = self._n_candidate_features()
        importance = np.zeros(d)
        feature, threshold, right, value = [], [], [], []
        # (rows, depth, node whose right child this is or -1). The left
        # child is pushed last, so it is grown first and gets id + 1.
        stack = [(np.arange(len(target)), 0, -1)]
        while stack:
            rows, depth, right_of = stack.pop()
            y = target[rows]
            node_value, impurity = self._node_stats(y)
            index = len(feature)
            if right_of >= 0:
                right[right_of] = index
            feature.append(-1)
            threshold.append(0.0)
            right.append(-1)
            value.append(node_value)
            if (impurity <= 1e-12
                    or len(rows) < self.min_samples_split
                    or (self.max_depth is not None
                        and depth >= self.max_depth)):
                continue
            if k < d:
                candidates = self._rng.choice(d, size=k, replace=False)
            else:
                candidates = np.arange(d)
            block = columns[np.ix_(candidates, rows)]
            gains, thresholds = self._candidate_splits(block, y)
            # The first candidate in draw order beating the best by 1e-15.
            best_gain, best = -1.0, -1
            for position, gain in enumerate(gains.tolist()):
                if gain > best_gain + 1e-15:
                    best_gain, best = gain, position
            if best < 0:
                continue
            mask = block[best] <= thresholds[best]
            if mask.all() or not mask.any():
                continue
            feature[index] = int(candidates[best])
            threshold[index] = float(thresholds[best])
            importance[feature[index]] += best_gain * len(rows)
            stack.append((rows[~mask], depth + 1, index))
            stack.append((rows[mask], depth + 1, -1))

        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold)
        self.left_ = np.where(self.feature_ >= 0,
                              np.arange(1, len(feature) + 1), -1)
        self.right_ = np.array(right, dtype=np.intp)
        self.value_ = np.array(value, dtype=float)
        return importance

    # ---- inference -----------------------------------------------------

    def _leaves(self, features: np.ndarray) -> np.ndarray:
        """Leaf node id of every row, routed one tree level at a time."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self._n_features:
            raise ValueError(
                f"expected (n, {self._n_features}) features")
        node = np.zeros(len(features), dtype=np.intp)
        active = np.arange(len(features))
        while active.size:
            active = active[self.feature_[node[active]] >= 0]
            at = node[active]
            go_left = (features[active, self.feature_[at]]
                       <= self.threshold_[at])
            node[active] = np.where(go_left, self.left_[at],
                                    self.right_[at])
        return node

    @property
    def node_count(self) -> int:
        """Number of nodes in the grown tree."""
        return 0 if self.feature_ is None else len(self.feature_)

    @property
    def depth(self) -> int:
        """Maximum depth of the grown tree."""
        if self.feature_ is None:
            return 0
        level, depth = np.zeros(1, dtype=np.intp), 0
        while (level := level[self.feature_[level] >= 0]).size:
            level = np.concatenate([self.left_[level], self.right_[level]])
            depth += 1
        return depth


class DecisionTreeClassifier(_BaseTree):
    """CART classifier with Gini impurity.

    Example:
        >>> x = np.array([[0.0], [1.0], [2.0], [3.0]])
        >>> y = np.array([0, 0, 1, 1])
        >>> DecisionTreeClassifier().fit(x, y).predict(x).tolist()
        [0, 0, 1, 1]
    """

    _sort_kind = "quicksort"

    def _prepare_target(self, target: np.ndarray) -> np.ndarray:
        self.classes_, encoded = np.unique(target, return_inverse=True)
        return encoded

    def _node_stats(self, y: np.ndarray):
        counts = np.bincount(y, minlength=len(self.classes_)).astype(float)
        total = counts.sum()
        return counts / total, float(_gini(counts, total))

    def _position_gains(self, ys: np.ndarray, lo: int,
                        hi: int) -> np.ndarray:
        n = ys.shape[1]
        prefix = np.stack([np.cumsum(ys == c, axis=1)
                           for c in range(len(self.classes_))], axis=-1)
        total = prefix[0, -1]
        left_counts = prefix[:, lo:hi]
        left_sizes = np.arange(lo + 1, hi + 1)
        right_sizes = n - left_sizes
        child = (left_sizes * _gini(left_counts, left_sizes)
                 + right_sizes * _gini(total - left_counts, right_sizes)) / n
        return float(_gini(total, n)) - child

    def _accepted(self, gains: np.ndarray) -> np.ndarray:
        # Zero-gain splits are allowed (ties still shrink the node), so
        # parity-style targets like XOR remain learnable.
        return np.where(gains < 0, -1.0, gains)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-probability estimates (leaf class frequencies)."""
        return self.value_[self._leaves(features)]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        probabilities = self.predict_proba(features)
        return self.classes_[np.argmax(probabilities, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor with variance reduction."""

    def _node_stats(self, y: np.ndarray):
        return float(y.mean()), float(y.var())

    def _position_gains(self, ys: np.ndarray, lo: int,
                        hi: int) -> np.ndarray:
        n = ys.shape[1]
        prefix_sum = np.cumsum(ys, axis=1)
        prefix_sq = np.cumsum(ys ** 2, axis=1)
        left_n = np.arange(lo + 1, hi + 1)
        right_n = n - left_n
        left_sum = prefix_sum[:, lo:hi]
        right_sum = prefix_sum[:, -1:] - left_sum
        left_sq = prefix_sq[:, lo:hi]
        right_sq = prefix_sq[:, -1:] - left_sq
        left_var = left_sq / left_n - (left_sum / left_n) ** 2
        right_var = right_sq / right_n - (right_sum / right_n) ** 2
        parent_var = ys.var(axis=1, keepdims=True)
        child = (left_n * left_var + right_n * right_var) / n
        return parent_var - child

    def _accepted(self, gains: np.ndarray) -> np.ndarray:
        return np.where(gains <= 1e-15, -1.0, gains)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted regression values."""
        return self.value_[self._leaves(features)]
