"""Out-of-bag estimation tests for the Random Forest."""

import numpy as np
import pytest

from repro.ml import RandomForestClassifier, roc_auc


@pytest.fixture()
def task(rng):
    x = rng.normal(size=(500, 5))
    y = (x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, 0.5, 500) > 0).astype(int)
    return x, y


class TestOob:
    def test_oob_disabled_by_default(self, task):
        x, y = task
        forest = RandomForestClassifier(n_estimators=10,
                                        random_state=0).fit(x, y)
        assert forest.oob_decision_function_ is None

    def test_oob_shape_and_rows_sum_to_one(self, task):
        x, y = task
        forest = RandomForestClassifier(n_estimators=20, oob_score=True,
                                        random_state=0).fit(x, y)
        oob = forest.oob_decision_function_
        assert oob.shape == (len(x), 2)
        np.testing.assert_allclose(oob.sum(axis=1), 1.0, atol=1e-9)

    def test_oob_requires_bootstrap(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(bootstrap=False, oob_score=True)

    def test_oob_less_optimistic_than_in_bag(self, task):
        """OOB AUC must not exceed the memorized in-bag AUC (on noisy
        labels, in-bag estimates are inflated)."""
        x, y = task
        forest = RandomForestClassifier(n_estimators=40, oob_score=True,
                                        random_state=0).fit(x, y)
        in_bag = roc_auc(y, forest.predict_proba(x)[:, 1])
        oob = roc_auc(y, forest.oob_decision_function_[:, 1])
        assert oob <= in_bag + 1e-9

    def test_oob_tracks_generalization(self, rng, task):
        """OOB AUC approximates held-out AUC far better than in-bag."""
        x, y = task
        forest = RandomForestClassifier(n_estimators=40, oob_score=True,
                                        random_state=0)
        forest.fit(x[:350], y[:350])
        holdout = roc_auc(y[350:], forest.predict_proba(x[350:])[:, 1])
        oob = roc_auc(y[:350], forest.oob_decision_function_[:, 1])
        in_bag = roc_auc(y[:350], forest.predict_proba(x[:350])[:, 1])
        assert abs(oob - holdout) < abs(in_bag - holdout)


def _tree_loop_proba(forest, x):
    """The tree-by-tree loop that stacked inference replaced."""
    total = np.zeros((len(x), len(forest.classes_)))
    for tree, columns in zip(forest.trees_, forest._tree_columns):
        total[:, columns] += tree.predict_proba(x)
    return total / forest.n_estimators


class TestStackedInference:
    """Routing every (tree, row) pair in one pass adds each tree's
    probabilities in forest order, so results equal the tree-by-tree
    loop bit for bit, in any block size."""

    @pytest.fixture()
    def three_class(self, rng):
        # Noisy labels and shallow trees give impure leaves, whose
        # fractions sum differently in another order. Class 2 is rare,
        # so some bootstraps miss it and those trees score a subset of
        # the forest's columns.
        x = rng.normal(size=(120, 4))
        y = (x[:, 0] + rng.normal(0, 1.0, 120) > 0).astype(int)
        y[:3] = 2
        return x, y

    @pytest.mark.parametrize("budget", [7, 1 << 18])
    def test_predict_proba_equals_tree_loop(self, three_class, budget,
                                            monkeypatch):
        from repro.ml import forest as forest_module

        monkeypatch.setattr(forest_module, "_ROUTE_BUDGET", budget)
        x, y = three_class
        forest = RandomForestClassifier(n_estimators=15, max_depth=3,
                                        min_samples_leaf=5,
                                        random_state=4).fit(x, y)
        assert any(len(c) < 3 for c in forest._tree_columns)
        test = np.random.default_rng(9).normal(size=(50, 4))
        assert np.array_equal(forest.predict_proba(test),
                              _tree_loop_proba(forest, test))
        assert np.array_equal(forest.predict_proba(test[:1]),
                              _tree_loop_proba(forest, test[:1]))

    @pytest.mark.parametrize("budget", [7, 1 << 18])
    def test_oob_equals_tree_loop(self, three_class, budget, monkeypatch):
        from repro.ml import forest as forest_module

        monkeypatch.setattr(forest_module, "_ROUTE_BUDGET", budget)
        x, y = three_class
        forest = RandomForestClassifier(n_estimators=6, max_depth=3,
                                        min_samples_leaf=5, oob_score=True,
                                        random_state=2).fit(x, y)
        # Each tree's out-of-bag rows: those its bootstrap drew no copy
        # of, re-drawn exactly as fit draws them.
        rng = np.random.default_rng(2)
        oob_sum = np.zeros((len(x), 3))
        oob_count = np.zeros(len(x))
        for tree, columns in zip(forest.trees_, forest._tree_columns):
            copies = np.bincount(rng.integers(0, len(x), size=len(x)),
                                 minlength=len(x))
            rng.integers(0, 2 ** 31 - 1)
            out = copies == 0
            oob_sum[np.ix_(out, columns)] += tree.predict_proba(x[out])
            oob_count[out] += 1
        covered = oob_count > 0
        assert not covered.all()
        expected = np.empty((len(x), 3))
        expected[covered] = oob_sum[covered] / oob_count[covered, None]
        expected[~covered] = _tree_loop_proba(forest, x[~covered])
        assert np.array_equal(forest.oob_decision_function_, expected)

    def test_wrong_width_refused(self, task):
        x, y = task
        forest = RandomForestClassifier(n_estimators=3,
                                        random_state=0).fit(x, y)
        with pytest.raises(ValueError):
            forest.predict_proba(x[:, :3])
