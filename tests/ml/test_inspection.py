"""Permutation-importance tests."""

import numpy as np
import pytest

from repro.ml import (
    RandomForestClassifier,
    balanced_accuracy,
    permutation_importance,
)


@pytest.fixture()
def fitted(rng):
    x = rng.normal(size=(400, 4))
    # Only columns 0 and 1 matter; 1 matters more.
    y = ((2.0 * x[:, 1] + 0.8 * x[:, 0]) > 0).astype(int)
    model = RandomForestClassifier(n_estimators=25,
                                   random_state=0).fit(x, y)
    return model, x, y


class TestPermutationImportance:
    def test_informative_features_rank_first(self, fitted, rng):
        model, x, y = fitted
        importances = permutation_importance(
            model, x, y, balanced_accuracy, rng=rng)
        assert max(importances, key=importances.get) in ("f0", "f1")
        assert importances["f1"] > importances["f2"]
        assert importances["f1"] > importances["f3"]

    def test_noise_features_near_zero(self, fitted, rng):
        model, x, y = fitted
        importances = permutation_importance(
            model, x, y, balanced_accuracy, rng=rng)
        assert abs(importances["f2"]) < 0.1
        assert abs(importances["f3"]) < 0.1

    def test_grouped_columns_shuffled_together(self, fitted, rng):
        model, x, y = fitted
        importances = permutation_importance(
            model, x, y, balanced_accuracy,
            groups={"signal": [0, 1], "noise": [2, 3]}, rng=rng)
        assert importances["signal"] > importances["noise"]
        assert importances["signal"] > 0.2

    def test_deterministic_given_rng(self, fitted):
        model, x, y = fitted
        a = permutation_importance(model, x, y, balanced_accuracy,
                                   rng=np.random.default_rng(3))
        b = permutation_importance(model, x, y, balanced_accuracy,
                                   rng=np.random.default_rng(3))
        assert a == b
