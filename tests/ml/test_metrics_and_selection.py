"""Metric and model-selection tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    accuracy,
    auc,
    balanced_accuracy,
    grouped_train_test_split,
    roc_auc,
    roc_curve,
)


class TestBalancedAccuracy:
    def test_perfect_prediction(self):
        y = np.array([0, 0, 1, 1])
        assert balanced_accuracy(y, y) == 1.0

    def test_majority_prediction_is_half(self):
        y_true = np.array([0] * 80 + [1] * 20)
        y_pred = np.zeros(100, dtype=int)
        assert balanced_accuracy(y_true, y_pred) == pytest.approx(0.5)

    def test_weighs_classes_equally(self):
        # 90% accuracy on negatives, 50% on positives → 0.7 balanced.
        y_true = np.array([0] * 100 + [1] * 10)
        y_pred = np.array([0] * 90 + [1] * 10 + [1] * 5 + [0] * 5)
        assert balanced_accuracy(y_true, y_pred) == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            balanced_accuracy(np.array([]), np.array([]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            balanced_accuracy(np.array([0]), np.array([0, 1]))


class TestConfusionAndRates:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0]), np.array([1, 1])) == 0.5


class TestRoc:
    def test_perfect_scores_auc_one(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(y, scores) == pytest.approx(1.0)

    def test_reversed_scores_auc_zero(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc(y, scores) == pytest.approx(0.0)

    def test_random_scores_auc_half(self, rng):
        y = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        assert roc_auc(y, scores) == pytest.approx(0.5, abs=0.05)

    def test_curve_starts_at_origin_ends_at_one(self):
        y = np.array([0, 1, 0, 1])
        scores = np.array([0.4, 0.3, 0.2, 0.9])
        fpr, tpr, thresholds = roc_curve(y, scores)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.isinf(thresholds[0])

    def test_tied_scores_collapse_to_one_point(self):
        y = np.array([0, 1, 0, 1])
        scores = np.full(4, 0.5)
        fpr, tpr, _ = roc_curve(y, scores)
        assert len(fpr) == 2  # origin + single threshold point

    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.floats(0, 1, allow_nan=False)),
                    min_size=4, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_curve_monotone(self, pairs):
        y = np.array([p[0] for p in pairs])
        if len(set(y)) < 2:
            y[0], y[1] = 0, 1
        scores = np.array([p[1] for p in pairs])
        fpr, tpr, _ = roc_curve(y, scores)
        assert (np.diff(fpr) >= -1e-12).all()
        assert (np.diff(tpr) >= -1e-12).all()

    def test_auc_trapezoid(self):
        assert auc(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == \
            pytest.approx(0.5)


class TestSplits:
    def test_grouped_split_keeps_groups_whole(self, rng):
        groups = [i // 10 for i in range(100)]
        train, test = grouped_train_test_split(groups, 0.8, rng)
        train_groups = {groups[i] for i in train}
        test_groups = {groups[i] for i in test}
        assert train_groups.isdisjoint(test_groups)

    def test_grouped_split_targets_row_weight(self, rng):
        groups = [i // 5 for i in range(500)]
        train, test = grouped_train_test_split(groups, 0.8, rng)
        assert 0.7 <= len(train) / 500 <= 0.9

    def test_grouped_split_never_empty_test(self, rng):
        groups = [0] * 50 + [1] * 2
        train, test = grouped_train_test_split(groups, 0.8, rng)
        assert len(test) > 0
