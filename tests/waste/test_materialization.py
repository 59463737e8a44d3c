"""Materialization-policy tests (Section 3.3's caching opportunity)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.waste import (
    Stage,
    expected_run_cost,
    greedy_policy,
    optimal_policy,
    stages_from_cost_shares,
)

stage_lists = st.lists(
    st.builds(
        Stage,
        name=st.sampled_from(list("abcdef")),
        cost=st.floats(0.1, 10.0),
        failure_probability=st.floats(0.0, 0.5),
        cache_cost=st.floats(0.0, 0.5),
    ),
    min_size=1, max_size=5, unique_by=lambda s: s.name,
)


def _chain(*triples):
    return [Stage(name=n, cost=c, failure_probability=p)
            for n, c, p in triples]


class TestExpectedCost:
    def test_no_failures_no_cache_is_sum(self):
        stages = _chain(("a", 1.0, 0.0), ("b", 2.0, 0.0))
        assert expected_run_cost(stages, frozenset()) == pytest.approx(3.0)

    def test_failure_inflates_cost_geometrically(self):
        stages = _chain(("a", 1.0, 0.5))
        # Geometric retries: E = c / (1 - p) = 2.
        assert expected_run_cost(stages, frozenset()) == pytest.approx(2.0)

    def test_checkpoint_localizes_retries(self):
        # Expensive reliable stage followed by cheap flaky stage.
        stages = _chain(("prep", 10.0, 0.0), ("train", 1.0, 0.5))
        uncached = expected_run_cost(stages, frozenset())
        cached = expected_run_cost(stages, frozenset({"prep"}))
        # Without the checkpoint, every training failure redoes prep.
        assert uncached == pytest.approx((10.0 + 1.0) / 0.5)
        assert cached == pytest.approx(10.0 + 1.0 / 0.5)
        assert cached < uncached

    def test_cache_cost_charged(self):
        stages = [Stage("a", 1.0, 0.0, cache_cost=0.3)]
        assert expected_run_cost(stages, frozenset({"a"})) == \
            pytest.approx(1.3)

    def test_empty_chain(self):
        assert expected_run_cost([], frozenset()) == 0.0

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            Stage("a", -1.0, 0.0)
        with pytest.raises(ValueError):
            Stage("a", 1.0, 1.0)


class TestPolicies:
    def test_optimal_beats_or_matches_no_cache(self):
        stages = _chain(("a", 5.0, 0.05), ("b", 1.0, 0.3),
                        ("c", 2.0, 0.1))
        cached, cost = optimal_policy(stages)
        assert cost <= expected_run_cost(stages, frozenset()) + 1e-12

    def test_free_caching_checkpoints_before_flaky_stage(self):
        stages = _chain(("prep", 10.0, 0.0), ("train", 1.0, 0.4))
        cached, _ = optimal_policy(stages)
        assert "prep" in cached

    def test_expensive_cache_not_chosen(self):
        stages = [Stage("prep", 1.0, 0.0, cache_cost=100.0),
                  Stage("train", 1.0, 0.1, cache_cost=100.0)]
        cached, _ = optimal_policy(stages)
        assert cached == frozenset()

    @given(stage_lists)
    @settings(max_examples=60, deadline=None)
    def test_greedy_never_worse_than_no_cache(self, stages):
        _, greedy_cost = greedy_policy(stages)
        assert greedy_cost <= expected_run_cost(stages,
                                                frozenset()) + 1e-9

    @given(stage_lists)
    @settings(max_examples=60, deadline=None)
    def test_optimal_lower_bounds_greedy(self, stages):
        _, optimal_cost = optimal_policy(stages)
        _, greedy_cost = greedy_policy(stages)
        assert optimal_cost <= greedy_cost + 1e-9

    def test_exhaustive_limit(self):
        stages = [Stage(f"s{i}", 1.0, 0.0) for i in range(17)]
        with pytest.raises(ValueError):
            optimal_policy(stages)


class TestFromCostShares:
    def test_builds_canonical_chain(self):
        stages = stages_from_cost_shares(
            {"training": 0.2, "data_ingestion": 0.22},
            {"training": 0.05})
        assert [s.name for s in stages][0] == "data_ingestion"
        assert len(stages) == 6
        training = next(s for s in stages if s.name == "training")
        assert training.failure_probability == 0.05
        assert training.cache_cost == pytest.approx(0.2 * 0.02)
