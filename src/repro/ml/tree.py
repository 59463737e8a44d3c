"""CART decision trees (classification and regression).

A from-scratch replacement for the scikit-learn trees the paper uses via
its Random Forest / GBDT experiments (Section 5.2.2); scikit-learn is not
available in this environment.

One builder grows every tree. :func:`grow_trees` takes a frontier of
trees, each with its own training sample and seed, and grows them
together in lockstep preorder: step *i* expands the *i*-th preorder node
of every tree still growing. A tree's rng draws, node ids and
tie-breaks are therefore those of growing it alone. A single fit is a
frontier of one tree; :mod:`repro.ml.forest` passes all of its trees.

A step scores every candidate split of its nodes at once. Each
(node, candidate column) pair is a segment; one sort of (segment, value
rank, row) keys, with the per-column ranks computed once per fit,
orders every segment, and gains are computed from prefix sums at the
positions where the value changes. Steps are cut into sub-batches of at
most :data:`_BLOCK_BUDGET` elements, so memory stays bounded however
many trees grow. Trees live in flat node arrays; prediction routes all
rows level by level.

Supports ``max_features`` (random feature subsampling per node) so the
forest is a proper Random Forest.
"""

from __future__ import annotations

from array import array

import numpy as np

#: Elements (node rows x candidate columns) one split search holds at
#: once. A step's nodes are searched in sub-batches up to this size; a
#: node larger than the budget is searched alone.
_BLOCK_BUDGET = 1 << 14


def _gini(class_counts: np.ndarray,
          sizes: np.ndarray | float) -> np.ndarray:
    """Gini impurity of class counts (last axis) that sum to ``sizes``.

    Two classes add their two squares directly: a two-term sum is the
    same in either order, and numpy's length-2 reduction is slow.
    """
    squares = (class_counts / np.asarray(sizes)[..., None]) ** 2
    if squares.shape[-1] == 2:
        return 1.0 - (squares[..., 0] + squares[..., 1])
    return 1.0 - squares.sum(axis=-1)


def check_features(features) -> np.ndarray:
    """``features`` as a float (n, d) matrix.

    NaN is refused: splits order values by rank, and NaN has none.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be 2-D")
    if np.isnan(features).any():
        raise ValueError("features contain NaN")
    return features


def one_hot(encoded: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_classes, n) integer indicators of class codes, one row per
    class, so gathering sample rows gathers contiguous runs."""
    return (encoded == np.arange(n_classes)[:, None]).astype(np.int32)


def route(feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
          right: np.ndarray, features: np.ndarray, node: np.ndarray,
          rows: np.ndarray) -> np.ndarray:
    """Walk every (start ``node[i]``, feature row ``rows[i]``) pair down
    flat node arrays to its leaf; ``node`` is updated and returned.

    Leaves have a negative ``feature``. Each numpy pass moves every
    unfinished pair one level down, so the passes are as many as the
    deepest path taken, whether the arrays hold one tree or many.
    """
    active = np.arange(len(node))
    while active.size:
        active = active[feature[node[active]] >= 0]
        at = node[active]
        go_left = features[rows[active], feature[at]] <= threshold[at]
        node[active] = np.where(go_left, left[at], right[at])
    return node


def _class_counts(ys: np.ndarray, at: np.ndarray, segment: np.ndarray,
                  segment_start: np.ndarray, segment_length: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Class counts (copies included) of each segment, and up to each
    sorted position ``at`` within its ``segment``; one row per class.
    The prefix sums over all of ``ys`` live only inside this call."""
    prefix = np.cumsum(ys, axis=1)
    before = np.zeros((len(ys), len(segment_start)), prefix.dtype)
    before[:, 1:] = prefix.take(segment_start[1:] - 1, axis=1)
    total = prefix.take(segment_start + segment_length - 1, axis=1) - before
    return total, prefix.take(at, axis=1) - before.take(segment, axis=1)


def _by_row(class_major: np.ndarray) -> np.ndarray:
    """A (classes, m) array as contiguous (m, classes) rows."""
    return np.ascontiguousarray(class_major.T)


def _column_ranks(columns: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its row of ``columns``."""
    ranks = np.empty(columns.shape, dtype=np.int32)
    for column, values in enumerate(columns):
        ranks[column] = np.unique(values, return_inverse=True)[1]
    return ranks


def _thresholds(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Thresholds between sorted neighbours ``low < high``: the midpoint,
    or ``low`` where the midpoint is not finite (an infinite value, or
    an overflowing sum near the float maximum)."""
    with np.errstate(over="ignore", invalid="ignore"):
        middle = (low + high) / 2.0
    return np.where(np.isfinite(middle), middle, low)


class _Growth:
    """One tree's state while it grows: its preorder stack and nodes.

    Nodes are kept in typed arrays, not lists of objects: a forest holds
    every tree's nodes at once.
    """

    __slots__ = ("tree", "offset", "rng", "stack", "feature", "threshold",
                 "right", "value", "importance")

    def __init__(self, tree: "_BaseTree", rows: np.ndarray,
                 offset: int) -> None:
        self.tree = tree
        self.offset = offset
        self.rng = np.random.default_rng(tree.random_state)
        # (rows, depth, node whose right child this is or -1). The left
        # child is pushed last, so it is grown first and gets id + 1.
        self.stack = [(rows, 0, -1)]
        self.feature, self.right = array("q"), array("q")
        self.threshold, self.value = array("d"), array("d")
        self.importance = np.zeros(tree._n_features)

    def add_node(self, value: list, right_of: int) -> int:
        """Append a leaf with the flat ``value``; return its id."""
        index = len(self.feature)
        if right_of >= 0:
            self.right[right_of] = index
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.right.append(-1)
        self.value.extend(value)
        return index

    def finish(self, value_shape: tuple) -> None:
        """Store the node arrays and importances on the tree."""
        tree = self.tree
        tree.feature_ = np.array(self.feature, dtype=np.intp)
        tree.threshold_ = np.array(self.threshold)
        tree.left_ = np.where(tree.feature_ >= 0,
                              np.arange(1, len(self.feature) + 1), -1)
        tree.right_ = np.array(self.right, dtype=np.intp)
        tree.value_ = np.array(self.value).reshape(len(self.feature),
                                                   *value_shape)
        total = self.importance.sum()
        tree.feature_importances_ = (self.importance / total if total > 0
                                     else self.importance)


def grow_trees(trees: list["_BaseTree"], features: np.ndarray,
               target: np.ndarray, samples) -> None:
    """Grow ``trees`` together, tree ``t`` on the distinct rows
    ``samples[t]`` of the (n, d) ``features``.

    The trees are of one class with the same parameters; each draws its
    candidate columns from its own ``random_state``. ``target[...,
    t * n + row]`` is the target of ``row`` in tree ``t``, in the
    encoding of the trees' ``_prepare_target``: the classifier's class
    indicators carry a bootstrap row's number of copies. ``samples`` may
    be any iterable; a tree holds its sample only until its root splits.
    """
    kind = trees[0]
    columns = np.ascontiguousarray(features.T)
    ranks = _column_ranks(columns)
    for tree in trees:
        tree._n_features = columns.shape[0]
    n, k = columns.shape[1], kind._n_candidate_features()
    growths = [_Growth(tree, rows, t * n)
               for t, (tree, rows) in enumerate(zip(trees, samples))]
    growing = growths
    while growing:
        # Pop every growing tree's next node; expand them in sub-batches.
        batch, size = [], 0
        for growth in growing:
            rows, depth, right_of = growth.stack.pop()
            if batch and size + k * len(rows) > _BLOCK_BUDGET:
                value_shape = _expand(kind, batch, columns, ranks, target, k)
                batch, size = [], 0
            batch.append((growth, rows, depth, right_of))
            size += k * len(rows)
        value_shape = _expand(kind, batch, columns, ranks, target, k)
        growing = [growth for growth in growing if growth.stack]
    for growth in growths:
        growth.finish(value_shape)


def _expand(kind: "_BaseTree", batch: list, columns: np.ndarray,
            ranks: np.ndarray, target: np.ndarray, k: int) -> tuple:
    """Add the popped nodes of ``batch`` to their trees and split every
    node that may split; return the shape of one node's value."""
    d = columns.shape[0]
    values, impurities, sizes = kind._node_stats(
        target, [rows + growth.offset for growth, rows, _, _ in batch])
    splits = []
    for (growth, rows, depth, right_of), value, impurity, size in zip(
            batch, values.reshape(len(batch), -1).tolist(), impurities,
            sizes):
        index = growth.add_node(value, right_of)
        if (impurity <= 1e-12
                or size < kind.min_samples_split
                or (kind.max_depth is not None
                    and depth >= kind.max_depth)):
            continue
        if k < d:
            candidates = growth.rng.choice(d, size=k, replace=False)
        else:
            candidates = np.arange(d)
        splits.append((growth, rows, depth, index, candidates, size))
    if splits:
        _split_nodes(kind, splits, columns, ranks, target, k)
    return values.shape[1:]


def _split_nodes(kind: "_BaseTree", batch: list, columns: np.ndarray,
                 ranks: np.ndarray, target: np.ndarray, k: int) -> None:
    """Search and apply the best split of every node in ``batch``.

    Segment ``g = j * k + a`` holds node ``j``'s rows in candidate
    column ``a``. One sort of ``(g * n + rank, entry)`` pairs, packed
    into int64, orders every segment by value and ties by row order,
    as a lone node's stable sort does. (A pair fits while
    ``2 * k * n**2 < 2**63``: up to 10**8 rows for 460 candidates.)
    """
    n = columns.shape[1]
    lengths = np.array([len(split[1]) for split in batch])
    node_rows = np.concatenate([split[1] for split in batch])
    candidates = np.concatenate([split[4] for split in batch])
    segment_length = np.repeat(lengths, k)
    segment_start = np.cumsum(segment_length) - segment_length
    elements = int(segment_start[-1] + segment_length[-1])
    # Element e of segment g is entry e - segment_start[g] of its node.
    # The element arrays are built and sorted in place: they are the
    # step's memory.
    node_start = np.repeat(np.cumsum(lengths) - lengths, k)
    entry = np.arange(elements)
    entry += np.repeat(node_start - segment_start, segment_length)
    keys = np.repeat(np.arange(len(candidates)) * n, segment_length)
    keys += ranks.ravel()[np.repeat(candidates * n, segment_length)
                          + node_rows[entry]]
    shift = len(node_rows).bit_length()
    keys <<= shift
    keys |= entry
    keys.sort()
    entry = keys & ((1 << shift) - 1)
    keys >>= shift
    offsets = np.repeat([split[0].offset for split in batch], lengths)
    gains, positions = kind._segment_splits(
        target, node_rows + offsets, entry, keys, lengths, k)
    at = segment_start + positions
    thresholds = _thresholds(columns[candidates, node_rows[entry[at]]],
                             columns[candidates, node_rows[entry[at + 1]]])
    gains, thresholds = gains.tolist(), thresholds.tolist()
    for j, (growth, rows, depth, index, drawn, size) in enumerate(batch):
        # The first candidate in draw order beating the best by 1e-15.
        best_gain, best = -1.0, -1
        for position, gain in enumerate(gains[j * k:(j + 1) * k]):
            if gain > best_gain + 1e-15:
                best_gain, best = gain, position
        if best < 0:
            continue
        feature = int(drawn[best])
        threshold = thresholds[j * k + best]
        mask = columns[feature, rows] <= threshold
        left = rows[mask]
        # Between adjacent floats the midpoint rounds up to the upper
        # value, which then goes left too; a side may come out empty.
        if not 0 < len(left) < len(rows):
            continue
        growth.feature[index] = feature
        growth.threshold[index] = threshold
        growth.importance[feature] += best_gain * size
        growth.stack.append((rows[~mask], depth + 1, index))
        growth.stack.append((left, depth + 1, -1))


class _BaseTree:
    """Shared parameters, fit and inference; subclasses define leaf
    values and split gains."""

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

    def _node_stats(self, target: np.ndarray, node_rows: list):
        """(values, impurities, sizes) of the nodes whose target indices
        are ``node_rows``; ``values`` is an array, one entry per node."""
        raise NotImplementedError

    def _segment_splits(self, target: np.ndarray, ids: np.ndarray,
                        entry: np.ndarray, keys: np.ndarray,
                        lengths: np.ndarray, k: int
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Best (gain, sorted position) of every segment.

        The sorted segments hold target indices ``ids[entry]`` and sort
        keys ``keys``: ``k`` segments per node, each as long as the
        node's entry in ``lengths``. Valid positions ``i`` (left =
        ``[0..i]``) are where the key rises and both sides keep
        ``min_samples_leaf`` samples; the first best position wins, and
        the gain is -1.0 where none may split.
        """
        raise NotImplementedError

    # ---- fitting -------------------------------------------------------

    def fit(self, features: np.ndarray, target: np.ndarray):
        """Grow the tree on a dense (n, d) feature matrix."""
        features = check_features(features)
        target = np.asarray(target)
        if len(features) != len(target):
            raise ValueError("features and target length mismatch")
        if len(features) == 0:
            raise ValueError("cannot fit on empty data")
        grow_trees([self], features, self._prepare_target(target),
                   [np.arange(len(target))])
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

    # ---- inference -----------------------------------------------------

    def _leaves(self, features: np.ndarray) -> np.ndarray:
        """Leaf node id of every row, routed one tree level at a time."""
        features = self._check_inference(features)
        return route(self.feature_, self.threshold_, self.left_,
                     self.right_, features,
                     np.zeros(len(features), dtype=np.intp),
                     np.arange(len(features)))

    def _check_inference(self, features) -> np.ndarray:
        """``features`` as a float matrix with this tree's columns."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self._n_features:
            raise ValueError(
                f"expected (n, {self._n_features}) features")
        return features

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

    def _prepare_target(self, target: np.ndarray) -> np.ndarray:
        """Class indicators (:func:`one_hot`); counts are then sums."""
        self.classes_, encoded = np.unique(target, return_inverse=True)
        return one_hot(encoded, len(self.classes_))

    def _node_stats(self, target: np.ndarray, node_rows: list):
        starts = np.cumsum([0] + [len(rows) for rows in node_rows[:-1]])
        rows = np.concatenate(node_rows)
        counts = _by_row(np.add.reduceat(target.take(rows, axis=1), starts,
                                         axis=1))
        sizes = counts.sum(axis=1)
        return (counts / sizes[:, None], _gini(counts, sizes).tolist(),
                sizes.tolist())

    def _segment_splits(self, target: np.ndarray, ids: np.ndarray,
                        entry: np.ndarray, keys: np.ndarray,
                        lengths: np.ndarray, k: int
                        ) -> tuple[np.ndarray, np.ndarray]:
        segment_length = np.repeat(lengths, k)
        segment_start = np.cumsum(segment_length) - segment_length
        gains = np.full(len(segment_length), -1.0)
        positions = np.zeros(len(segment_length), dtype=np.intp)
        # Positions where the value rises, then those inside the
        # min_samples_leaf window of their segment.
        at = np.flatnonzero(keys[1:] > keys[:-1])
        segment = np.searchsorted(segment_start, at, side="right") - 1
        total, left_counts = _class_counts(
            target.take(ids[entry], axis=1), at, segment, segment_start,
            segment_length)
        segment_size = total.sum(axis=0)
        left_sizes = left_counts.sum(axis=0)
        sizes = segment_size[segment]
        keep = ((left_sizes >= self.min_samples_leaf)
                & (left_sizes <= sizes - self.min_samples_leaf))
        if not keep.any():
            return gains, positions
        at, segment, sizes = at[keep], segment[keep], sizes[keep]
        left_counts = left_counts.compress(keep, axis=1)
        left_sizes = left_sizes[keep]
        right_counts = total.take(segment, axis=1) - left_counts
        right_sizes = sizes - left_sizes
        # _gini reads classes on a contiguous last axis, as a lone
        # node's counts are laid out.
        child = (left_sizes * _gini(_by_row(left_counts), left_sizes)
                 + right_sizes * _gini(_by_row(right_counts),
                                       right_sizes)) / sizes
        split_gains = (_gini(_by_row(total), segment_size)[segment]
                       - child)
        # Each segment's first best position.
        starts = np.ones(len(at), dtype=bool)
        starts[1:] = segment[1:] != segment[:-1]
        first = np.flatnonzero(starts)
        best = np.maximum.reduceat(split_gains, first)
        hits = np.minimum.reduceat(
            np.where(split_gains == best[np.cumsum(starts) - 1],
                     np.arange(len(at)), len(at)), first)
        winners = segment[first]
        # Zero-gain splits are allowed (ties still shrink the node), so
        # parity-style targets like XOR remain learnable.
        gains[winners] = np.where(best < 0, -1.0, best)
        positions[winners] = at[hits] - segment_start[winners]
        return gains, positions

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-probability estimates (leaf class frequencies)."""
        return self.value_[self._leaves(features)]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        probabilities = self.predict_proba(features)
        return self.classes_[np.argmax(probabilities, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor with variance reduction.

    Its float reductions depend on the length and order of the summed
    block, so node stats and gains are computed per node, on the node's
    own rows and ``(k, n)`` sorted block, exactly as a lone node would.
    """

    def _node_stats(self, target: np.ndarray, node_rows: list):
        ys = [target[rows] for rows in node_rows]
        return (np.array([float(y.mean()) for y in ys]),
                [float(y.var()) for y in ys], [len(y) for y in ys])

    def _segment_splits(self, target: np.ndarray, ids: np.ndarray,
                        entry: np.ndarray, keys: np.ndarray,
                        lengths: np.ndarray, k: int
                        ) -> tuple[np.ndarray, np.ndarray]:
        ys = target[ids[entry]]
        lo = self.min_samples_leaf - 1
        gains = np.full((len(lengths), k), -1.0)
        positions = np.zeros((len(lengths), k), dtype=np.intp)
        stop = 0
        for j, n in enumerate(lengths.tolist()):
            start, stop = stop, stop + k * n
            hi = n - self.min_samples_leaf
            if hi <= lo:
                continue
            block = ys[start:stop].reshape(k, n)
            block_keys = keys[start:stop].reshape(k, n)
            node_gains = self._position_gains(block, lo, hi)
            node_gains[~(block_keys[:, lo:hi]
                         < block_keys[:, lo + 1:hi + 1])] = -np.inf
            best = np.argmax(node_gains, axis=1)
            best_gains = node_gains[np.arange(k), best]
            gains[j] = np.where(best_gains <= 1e-15, -1.0, best_gains)
            positions[j] = best + lo
        return gains.ravel(), positions.ravel()

    @staticmethod
    def _position_gains(ys: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """(k, hi - lo) variance reductions of a split after each sorted
        position, from the (k, n) target sorted along each column."""
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

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted regression values."""
        return self.value_[self._leaves(features)]
