"""Decision-tree tests (classifier and regressor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (DecisionTreeClassifier, DecisionTreeRegressor,
                      GradientBoostingClassifier, RandomForestClassifier)


class TestClassifier:
    def test_separable_data_perfect_fit(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.predict(x).tolist() == [0, 0, 1, 1]

    def test_xor_needs_depth_two(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        shallow = DecisionTreeClassifier(max_depth=1).fit(x, y)
        deep = DecisionTreeClassifier(max_depth=3).fit(x, y)
        assert (shallow.predict(x) == y).mean() <= 0.75
        assert (deep.predict(x) == y).mean() == 1.0

    def test_max_depth_respected(self, rng):
        x = rng.normal(size=(200, 3))
        y = (x[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert tree.depth <= 2

    def test_min_samples_leaf(self, rng):
        x = rng.normal(size=(50, 2))
        y = rng.integers(0, 2, size=50)
        tree = DecisionTreeClassifier(min_samples_leaf=25).fit(x, y)
        assert tree.depth <= 1

    def test_predict_proba_rows_sum_to_one(self, rng):
        x = rng.normal(size=(100, 3))
        y = rng.integers(0, 3, size=100)
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        probabilities = tree.predict_proba(x)
        assert probabilities.shape == (100, 3)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_string_labels_supported(self):
        x = np.array([[0.0], [1.0]])
        y = np.array(["no", "yes"])
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.predict(x).tolist() == ["no", "yes"]

    def test_single_class(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([1, 1])
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.predict(x).tolist() == [1, 1]
        assert tree.node_count == 1

    def test_feature_importances_sum_to_one(self, rng):
        x = rng.normal(size=(200, 4))
        y = (x[:, 2] > 0).astype(int)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)
        assert np.argmax(tree.feature_importances_) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.ones((3,)), np.ones(3))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.ones((3, 1)), np.ones(2))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_predict_validates_width(self, rng):
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        tree = DecisionTreeClassifier().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(rng.normal(size=(5, 2)))

    @given(st.integers(min_value=10, max_value=60),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_training_accuracy_beats_majority(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        y = ((x[:, 0] + x[:, 1]) > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=6).fit(x, y)
        accuracy = float((tree.predict(x) == y).mean())
        majority = max(y.mean(), 1 - y.mean())
        assert accuracy >= majority


class TestRegressor:
    def test_step_function_recovered(self):
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (x.ravel() > 0.5) * 10.0
        tree = DecisionTreeRegressor(max_depth=1).fit(x, y)
        predictions = tree.predict(x)
        assert predictions[0] == pytest.approx(0.0)
        assert predictions[-1] == pytest.approx(10.0)

    def test_constant_target_single_leaf(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor().fit(x, np.full(10, 2.5))
        assert tree.node_count == 1
        assert tree.predict(x) == pytest.approx(np.full(10, 2.5))

    def test_deeper_tree_reduces_training_error(self, rng):
        x = rng.uniform(size=(300, 1))
        y = np.sin(6 * x.ravel())
        shallow = DecisionTreeRegressor(max_depth=2).fit(x, y)
        deep = DecisionTreeRegressor(max_depth=8).fit(x, y)
        err_shallow = np.mean((shallow.predict(x) - y) ** 2)
        err_deep = np.mean((deep.predict(x) - y) ** 2)
        assert err_deep < err_shallow

    def test_prediction_within_target_range(self, rng):
        x = rng.normal(size=(100, 2))
        y = rng.uniform(-1, 1, size=100)
        tree = DecisionTreeRegressor(max_depth=5).fit(x, y)
        predictions = tree.predict(x)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9


class TestUnboundedDepth:
    """Trees deeper than Python's recursion limit grow and predict."""

    @staticmethod
    def _chain_task():
        # 3,800 rows of one class, then 1,200 alternating rows: an
        # unbounded tree peels the alternating block one row per level.
        x = np.arange(5000.0).reshape(-1, 1)
        y = np.where(np.arange(5000) < 3800, 0, np.arange(5000) % 2)
        return x, y

    @pytest.mark.parametrize("model", [DecisionTreeClassifier,
                                       DecisionTreeRegressor])
    def test_5000_rows(self, model):
        x, y = self._chain_task()
        target = y if model is DecisionTreeClassifier else y.astype(float)
        tree = model().fit(x, target)
        assert tree.depth > 1000
        assert tree.node_count == 2 * tree.depth + 1
        assert (tree.predict(x) == target).all()

    def test_node_arrays_are_preorder(self, rng):
        x = rng.normal(size=(300, 3))
        y = rng.integers(0, 3, size=300)
        tree = DecisionTreeClassifier(max_depth=6, random_state=0).fit(x, y)
        inner = np.flatnonzero(tree.feature_ >= 0)
        assert (tree.left_[inner] == inner + 1).all()
        assert (tree.right_[inner] > tree.left_[inner]).all()
        leaves = tree.feature_ < 0
        assert (tree.left_[leaves] == -1).all()
        assert (tree.right_[leaves] == -1).all()
        assert tree.value_.shape == (tree.node_count, 3)


class TestNonFiniteFeatures:
    """A split between a finite and an infinite value (or two values whose
    sum overflows) must still separate them; NaN is refused."""

    def test_infinite_values_split(self):
        tree = DecisionTreeClassifier().fit([[0], [1], [np.inf], [np.inf]],
                                            [0, 0, 1, 1])
        assert tree.threshold_[0] == 1.0
        assert tree.predict([[0], [1], [np.inf]]).tolist() == [0, 0, 1]

    def test_negative_infinity_splits(self):
        tree = DecisionTreeClassifier().fit([[-np.inf], [-np.inf], [0], [1]],
                                            [1, 1, 0, 0])
        assert tree.threshold_[0] == -np.inf
        assert tree.predict([[-np.inf], [0], [-1e300]]).tolist() == [1, 0, 0]

    def test_overflowing_midpoint_splits(self):
        x = [[0.0], [1e308], [1.7e308], [1.7e308]]
        tree = DecisionTreeRegressor().fit(x, [0.0, 0.0, 1.0, 1.0])
        assert tree.threshold_[0] == 1e308
        assert tree.predict(x).tolist() == [0.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("model", [
        DecisionTreeClassifier, DecisionTreeRegressor,
        lambda: RandomForestClassifier(n_estimators=3),
        lambda: GradientBoostingClassifier(n_estimators=3)],
        ids=["tree", "regressor", "forest", "boosting"])
    def test_nan_refused(self, model):
        x = np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 3.0], [2.0, 4.0]])
        with pytest.raises(ValueError, match="NaN"):
            model().fit(x, np.array([0, 1, 0, 1]))
