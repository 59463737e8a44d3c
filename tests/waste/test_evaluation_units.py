"""Unit tests for the tradeoff-curve machinery on synthetic scores."""

import numpy as np
import pytest

from repro.waste.evaluation import tradeoff_curve
from repro.waste.policy import TrainedPolicy


def _policy(scores, labels, costs, name="P"):
    return TrainedPolicy(
        name=name, families=("input",), model=None,
        balanced_accuracy=0.0, decision_threshold=0.5,
        test_scores=np.asarray(scores, dtype=float),
        test_labels=np.asarray(labels, dtype=int),
        test_costs=np.asarray(costs, dtype=float),
        feature_columns=[])


class TestTradeoffCurve:
    def test_perfect_scores_full_cut_at_full_freshness(self):
        policy = _policy([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0],
                         [1.0, 1.0, 5.0, 5.0])
        curve = tradeoff_curve(policy)
        assert curve.waste_cut_at_freshness(1.0) == pytest.approx(1.0)

    def test_random_scores_linear_tradeoff(self, rng):
        n = 4000
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        policy = _policy(scores, labels, np.ones(n))
        curve = tradeoff_curve(policy)
        # For uninformative scores, freshness ≈ wasted fraction along
        # the curve (both equal the run-rate).
        mid = np.argmin(np.abs(curve.freshness - 0.5))
        assert curve.wasted_fraction[mid] == pytest.approx(0.5, abs=0.06)

    def test_cost_weighting_matters(self):
        # One expensive unpushed graphlet scored high: cutting it
        # requires sacrificing the low-scored pushed one.
        policy = _policy([0.9, 0.2], [0, 1], [100.0, 1.0])
        curve = tradeoff_curve(policy)
        assert curve.waste_cut_at_freshness(1.0) == pytest.approx(0.0)
        assert curve.waste_cut_at_freshness(0.0) == pytest.approx(1.0)

    def test_points_roundtrip(self):
        policy = _policy([0.9, 0.1], [1, 0], [1.0, 1.0])
        curve = tradeoff_curve(policy)
        points = curve.points()
        assert len(points) == len(curve.thresholds)
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in points)

    def test_all_unpushed_edge_case(self):
        policy = _policy([0.4, 0.6], [0, 0], [1.0, 2.0])
        curve = tradeoff_curve(policy)
        # Freshness is vacuously 1 at every threshold.
        assert (curve.freshness == 1.0).all() or \
            curve.waste_cut_at_freshness(1.0) >= 0.0
