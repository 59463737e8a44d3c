"""Golden digests: the CART builder's output is pinned bit for bit.

The sha256 digests below were computed at commit 1d63144, with the
recursive, one-candidate-column-at-a-time split search that preceded
the batched builder, before ``repro.ml.tree`` was rewritten. The
batched, array-backed builder must reproduce them unchanged: the same
rng draws in the same order, the same float formulas and the same
tie-breaks give the same nodes, leaf values and predictions. A
legitimate change of results re-computes these digests and says why.

The ``waste_forest.*`` and ``deep_boosting.*`` digests were computed at
commit a94dad8, with the per-tree preorder builder, before the forest
grew its trees together in one lockstep frontier. They pin the
Section-5 policy's forest shape (binary labels, tied and constant 0/1
columns, 60 trees) and deeper regression stages over tied columns.
"""

import hashlib

import numpy as np
import pytest

from repro.ml import (DecisionTreeClassifier, GradientBoostingClassifier,
                      RandomForestClassifier)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _tree_arrays(tree) -> tuple:
    """A fitted tree's nodes: split feature, threshold, children, value."""
    return (np.asarray(tree.feature_, dtype=np.int64),
            np.asarray(tree.threshold_, dtype=np.float64),
            np.asarray(tree.left_, dtype=np.int64),
            np.asarray(tree.right_, dtype=np.int64),
            np.asarray(tree.value_, dtype=np.float64))


def _trees_digest(trees) -> str:
    return _digest(*(a for tree in trees for a in _tree_arrays(tree)))


def _data(seed: int, n: int, d: int, n_classes: int):
    """Noisy labels over a mix of continuous and tied (rounded) columns;
    the last class is rare, so some bootstrap samples miss it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x[:, ::3] = np.round(x[:, ::3], 1)
    score = x[:, 0] + 0.5 * x[:, 1] - x[:, 2] + rng.normal(0, 0.7, n)
    y = np.digitize(score, np.quantile(score, [0.5]))
    if n_classes == 3:
        y[rng.choice(n, size=2, replace=False)] = 2
    test = rng.normal(size=(80, d))
    return x, y, test


def fit_forest():
    x, y, test = _data(seed=101, n=300, d=9, n_classes=3)
    forest = RandomForestClassifier(
        n_estimators=15, max_depth=8, max_features=0.4,
        min_samples_leaf=2, oob_score=True, random_state=3).fit(x, y)
    return forest, test


def fit_multiclass_tree():
    x, y, test = _data(seed=202, n=250, d=6, n_classes=3)
    tree = DecisionTreeClassifier(max_features="sqrt",
                                  random_state=5).fit(x, y)
    return tree, test


def fit_boosting():
    x, y, test = _data(seed=303, n=240, d=7, n_classes=2)
    model = GradientBoostingClassifier(
        n_estimators=20, max_depth=3, min_samples_leaf=2, subsample=0.8,
        random_state=11).fit(x, y)
    return model, test


def _waste_data(seed: int, n: int, d: int):
    """Binary labels over waste-shaped columns: 0/1 flags, constant
    columns, small tied counts and a few rounded scores, as the
    Section-5 feature families give."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, d))
    x[:, 0::4] = rng.integers(0, 2, size=x[:, 0::4].shape)
    x[:, 1::4] = rng.integers(0, 2, size=d // 4 + (d % 4 > 1))
    x[:, 2::4] = rng.poisson(1.5, size=x[:, 2::4].shape)
    x[:, 3::4] = np.round(rng.gamma(2.0, size=x[:, 3::4].shape), 1)
    score = (x[:, 0] + x[:, 2] - 0.6 * x[:, 3] + x[:, 4] * x[:, 6]
             + rng.normal(0, 0.8, n))
    y = (score > np.median(score)).astype(int)
    test = x[rng.permutation(n)[:60]] + rng.integers(0, 2, size=(60, d))
    return x, y, test


def fit_waste_forest():
    x, y, test = _waste_data(seed=404, n=260, d=22)
    forest = RandomForestClassifier(
        n_estimators=60, max_depth=12, max_features=0.4,
        min_samples_leaf=2, oob_score=True, random_state=13).fit(x, y)
    return forest, test


def fit_deep_boosting():
    """Deeper stages on heavily tied columns: the regressor's stable
    sort and float prefix sums decide its splits."""
    x, y, test = _data(seed=505, n=200, d=8, n_classes=2)
    x = np.round(x)
    test = np.round(test)
    model = GradientBoostingClassifier(
        n_estimators=12, max_depth=6, min_samples_leaf=1, subsample=0.9,
        random_state=17).fit(x, y)
    return model, test


def golden() -> dict[str, str]:
    """Every pinned digest, recomputed from the current code."""
    forest, forest_test = fit_forest()
    tree, tree_test = fit_multiclass_tree()
    boosting, boosting_test = fit_boosting()
    waste, waste_test = fit_waste_forest()
    deep, deep_test = fit_deep_boosting()
    return {
        "forest.trees": _trees_digest(forest.trees_),
        "forest.oob_decision_function_": _digest(
            forest.oob_decision_function_),
        "forest.predict_proba": _digest(forest.predict_proba(forest_test)),
        "forest.feature_importances_": _digest(forest.feature_importances_),
        "tree.nodes": _trees_digest([tree]),
        "tree.predict_proba": _digest(tree.predict_proba(tree_test)),
        "tree.feature_importances_": _digest(tree.feature_importances_),
        "boosting.trees": _trees_digest(boosting.trees_),
        "boosting.decision_function": _digest(
            boosting.decision_function(boosting_test)),
        "waste_forest.trees": _trees_digest(waste.trees_),
        "waste_forest.oob_decision_function_": _digest(
            waste.oob_decision_function_),
        "waste_forest.predict_proba": _digest(
            waste.predict_proba(waste_test)),
        "waste_forest.feature_importances_": _digest(
            waste.feature_importances_),
        "deep_boosting.trees": _trees_digest(deep.trees_),
        "deep_boosting.decision_function": _digest(
            deep.decision_function(deep_test)),
    }


GOLDEN = {
    "forest.trees":
        "888d948f711eb57df6b30abdfd9bf0edd57b9cececbed2f22ca0aeadc9baba84",
    "forest.oob_decision_function_":
        "662a833a69f8051dfa603c6c95d72b279c29e589346cfa1e4d9d8b1bfcfb9370",
    "forest.predict_proba":
        "cc1f0fe5ba4f177bdce244547b8c0b45d932ef1ccd2e5b17b180e119dcf436f6",
    "forest.feature_importances_":
        "d6cd5a8670df80a013c5f63a54b9ed22a512cf9e84724a9baa46c56586eed5c7",
    "tree.nodes":
        "675cbf0ad6770c4a787951032d72ba39d8fb50ddd06c748a3eee419859108310",
    "tree.predict_proba":
        "93c54e14c2526960e062acefd0a1d969f389078d42bcf9c72a787574ffd9233b",
    "tree.feature_importances_":
        "9991cdbcfa5c4aeac010fd0a1baf397a180f98bb4b2be11b933cfa4bde722572",
    "boosting.trees":
        "c268c21b0d3fb883824e8423ed4ac93ddb47133c473fea5f2476fe5b2da4625d",
    "boosting.decision_function":
        "f3654ce5f945130f978e6b3832c57aec0600f1d467cde26c50fdf27059ed6d9e",
    "waste_forest.trees":
        "9f91691f651a62f08a0b5b866b060b7092635cb300cc46ff61fae360a24422bf",
    "waste_forest.oob_decision_function_":
        "88934618adb655958bdb3dbc85230576fe20df181b51352f2ff31241381a0bb3",
    "waste_forest.predict_proba":
        "fbf49d581386587ec47840099fdafe89dbf6c055eb4aabccca4e23800d47be75",
    "waste_forest.feature_importances_":
        "ac5dc5d9d86aee0a3d789778872a52a676c01e164804d6b68722374c27a1b6d5",
    "deep_boosting.trees":
        "1e9e110558e476a6b6f238fbec85343e32733213c5d63f76fd5919b614fc5c4f",
    "deep_boosting.decision_function":
        "4d59da5db2c76ea761bb2b626c627c1dce9ee512815d7d9a1de56d01d7e97acd",
}


@pytest.fixture(scope="module")
def computed():
    return golden()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_unchanged(computed, name):
    assert computed[name] == GOLDEN[name]


def test_every_output_is_pinned(computed):
    assert sorted(computed) == sorted(GOLDEN)
