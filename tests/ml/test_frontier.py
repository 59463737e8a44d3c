"""The lockstep frontier: a forest's trees are the trees grown alone,
and a step's memory is bounded whatever the number of trees."""

import tracemalloc

import numpy as np

from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml import tree as tree_module


def _tied_data(seed: int, n: int, d: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x[:, ::2] = np.round(x[:, ::2])
    x[:, 1] = 1.0
    y = (x[:, 0] + x[:, 2] + rng.normal(size=n) > 0).astype(int)
    y[:3] = 2
    return x, y


def _nodes(tree) -> list:
    return [tree.feature_, tree.threshold_, tree.left_, tree.right_,
            tree.value_, tree.feature_importances_, tree.classes_]


def _assert_same_trees(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for x, y in zip(_nodes(a), _nodes(b)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def test_forest_trees_equal_trees_grown_alone():
    x, y = _tied_data(seed=1, n=150, d=8)
    forest = RandomForestClassifier(
        n_estimators=12, max_depth=7, max_features=0.5, min_samples_leaf=2,
        random_state=4).fit(x, y)
    # The forest's own draws, in its order: a bootstrap, then a seed.
    rng = np.random.default_rng(4)
    alone = []
    for _ in range(12):
        rows = rng.integers(0, len(x), size=len(x))
        alone.append(DecisionTreeClassifier(
            max_depth=7, max_features=0.5, min_samples_leaf=2,
            random_state=int(rng.integers(0, 2 ** 31 - 1))).fit(
                x[rows], y[rows]))
    _assert_same_trees(forest.trees_, alone)


def test_sub_batch_size_does_not_change_trees(monkeypatch):
    x, y = _tied_data(seed=2, n=120, d=6)

    def fit():
        return RandomForestClassifier(
            n_estimators=10, max_features=0.5,
            random_state=9).fit(x, y).trees_

    batched = fit()
    monkeypatch.setattr(tree_module, "_BLOCK_BUDGET", 1)
    _assert_same_trees(fit(), batched)


def test_frontier_memory_is_bounded():
    """60 trees grow at once, but a step holds at most a sub-batch. This
    fit peaks near 2.2 MiB; an unbounded frontier peaked near 20 MiB."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(400, 40))
    x[:, ::2] = np.round(x[:, ::2])
    y = (x[:, 0] + rng.normal(size=400) > 0).astype(int)
    forest = RandomForestClassifier(
        n_estimators=60, max_depth=4, max_features=0.4, min_samples_leaf=2,
        random_state=0)
    tracemalloc.start()
    try:
        forest.fit(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
