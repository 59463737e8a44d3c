"""Analysis-suite tests over the shared small corpus."""

import numpy as np
import pytest

from repro.analysis import (
    DistributionSummary,
    bucket_fractions,
    cdf_points,
    full_report,
    graphlet_level,
    pipeline_level,
)


class TestDistributions:
    def test_summary_statistics(self):
        summary = DistributionSummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_summary_empty(self):
        summary = DistributionSummary.from_values([])
        assert summary.count == 0
        assert np.isnan(summary.mean)

    def test_histogram_fractions_sum_to_one(self):
        summary = DistributionSummary.from_values(range(100))
        assert sum(summary.histogram.values()) == pytest.approx(1.0)

    def test_log_bins(self):
        summary = DistributionSummary.from_values([1, 10, 100, 1000],
                                                  log_bins=True)
        assert sum(summary.histogram.values()) == pytest.approx(1.0)

    def test_bucket_fractions(self):
        fractions = bucket_fractions([0.1, 0.3, 0.9, 1.0],
                                     [0.0, 0.25, 0.5, 0.75, 1.0])
        assert fractions["[0.0, 0.25]"] == pytest.approx(0.25)
        assert fractions["[0.75, 1.0]"] == pytest.approx(0.5)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_bucket_fractions_empty(self):
        fractions = bucket_fractions([], [0.0, 0.5, 1.0])
        assert all(v == 0.0 for v in fractions.values())

    def test_cdf_points_monotone(self):
        points = cdf_points([3, 1, 2, 5, 4], n_points=10)
        xs = [p[0] for p in points]
        assert xs == sorted(xs)
        assert points[-1][1] == 1.0


class TestPipelineLevel:
    def test_lifespans_positive(self, small_corpus):
        values = pipeline_level.lifespans(
            small_corpus.store, small_corpus.production_context_ids)
        assert values
        assert all(v >= 0 for v in values)

    def test_models_per_day_positive(self, small_corpus):
        values = pipeline_level.models_per_day(
            small_corpus.store, small_corpus.production_context_ids)
        assert all(v > 0 for v in values)

    def test_feature_counts_match_archetypes(self, small_corpus):
        values = pipeline_level.feature_counts(
            small_corpus.store, small_corpus.production_context_ids)
        by_context = {r.context_id: r.archetype.n_features
                      for r in small_corpus.production_records}
        assert sorted(values) == sorted(by_context.values())

    def test_model_mix_sums_to_one(self, small_corpus):
        mix = pipeline_level.model_mix(
            small_corpus.store, small_corpus.production_context_ids)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_operator_presence_training_universal(self, small_corpus):
        presence = pipeline_level.operator_presence(
            small_corpus.store, small_corpus.production_context_ids)
        assert presence["training"] == pytest.approx(1.0)
        assert presence["data_ingestion"] == pytest.approx(1.0)
        assert 0.2 < presence["model_analysis_validation"] <= 1.0

    def test_cost_breakdown_sums_to_one(self, small_corpus):
        shares = pipeline_level.cost_breakdown(
            small_corpus.store, small_corpus.production_context_ids)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_analyzer_usage_vocabulary_dominates(self, small_corpus):
        usage = pipeline_level.analyzer_usage(
            small_corpus.store, small_corpus.production_context_ids)
        assert usage["usage"].get("vocabulary", 0) == max(
            usage["usage"].values())

    def test_lifespan_by_type_covers_families(self, small_corpus):
        by_family = pipeline_level.lifespan_by_model_type(
            small_corpus.store, small_corpus.production_context_ids)
        assert set(by_family) <= {"DNN", "Linear", "Rest"}
        assert by_family

    def test_failure_cost_nonzero(self, small_corpus):
        failure = pipeline_level.failure_cost(
            small_corpus.store, small_corpus.production_context_ids)
        assert failure["total_cpu_hours"] > 0
        assert 0 <= failure["failed_fraction"] < 0.5

    def test_retry_stats_zero_retries_on_seed_corpus(self, small_corpus):
        stats = pipeline_level.retry_stats(
            small_corpus.store, small_corpus.production_context_ids)
        assert stats["retried_executions"] == 0
        assert stats["retried_cpu_hours"] == 0.0
        assert stats["max_attempt"] == 1
        assert stats["retry_amplification"] == pytest.approx(1.0)
        # Without retries the wasted bucket is exactly failure_cost's
        # failed compute, and the partition still reconciles.
        failure = pipeline_level.failure_cost(
            small_corpus.store, small_corpus.production_context_ids)
        assert stats["wasted_cpu_hours"] == pytest.approx(
            failure["failed_cpu_hours"], rel=1e-9)
        assert stats["total_cpu_hours"] == pytest.approx(
            stats["useful_cpu_hours"] + stats["wasted_cpu_hours"],
            rel=1e-9)

    def test_retry_stats_reconcile_exactly_under_faults(self):
        from repro.corpus import CorpusConfig
        from repro.faults import FaultPlan, RetryPolicy
        from repro.fleet import generate_corpus_fleet
        corpus, _ = generate_corpus_fleet(
            CorpusConfig(n_pipelines=6, seed=13,
                         max_graphlets_per_pipeline=8,
                         max_window_spans=6),
            fault_plan=FaultPlan.parse("transient:*:0.2", seed=2),
            retry_policy=RetryPolicy(max_attempts=3))
        stats = pipeline_level.retry_stats(
            corpus.store, corpus.production_context_ids)
        assert stats["retried_executions"] > 0
        assert stats["max_attempt"] >= 2
        assert stats["retry_amplification"] > 1.0
        assert stats["total_cpu_hours"] == pytest.approx(
            stats["useful_cpu_hours"] + stats["wasted_cpu_hours"]
            + stats["retried_cpu_hours"], rel=1e-12)
        # Every superseded attempt is FAILED compute priced separately
        # from terminally wasted compute.
        total = sum(
            float(e.get("cpu_hours", 0.0))
            for cid in corpus.production_context_ids
            for e in corpus.store.get_executions_by_context(cid))
        assert stats["total_cpu_hours"] == pytest.approx(total, rel=1e-12)

    def test_cached_stats_zero_without_cache(self, small_corpus):
        # The seed corpus is generated without the execution cache, so
        # the aggregate must report zero cached work over a real total.
        stats = pipeline_level.cached_execution_stats(
            small_corpus.store, small_corpus.production_context_ids)
        assert stats["cached_executions"] == 0
        assert stats["cached_fraction"] == 0.0
        assert stats["saved_cpu_hours"] == 0.0
        assert stats["total_executions"] > 0

    def test_cached_stats_counts_cached_rows(self):
        from repro.mlmd import (Context, Execution, ExecutionState,
                                MetadataStore)
        store = MetadataStore()
        cid = store.put_context(Context(type_name="Pipeline", name="p"))
        normal = store.put_execution(Execution(
            type_name="Trainer", state=ExecutionState.COMPLETE,
            properties={"cpu_hours": 4.0}))
        cached = store.put_execution(Execution(
            type_name="Transform", state=ExecutionState.CACHED,
            properties={"cpu_hours": 0.0, "saved_cpu_hours": 2.5}))
        store.put_association(cid, normal)
        store.put_association(cid, cached)
        stats = pipeline_level.cached_execution_stats(store, [cid])
        assert stats["cached_executions"] == 1
        assert stats["total_executions"] == 2
        assert stats["cached_fraction"] == pytest.approx(0.5)
        assert stats["saved_cpu_hours"] == pytest.approx(2.5)


class TestGraphletLevel:
    def test_similarity_table_rows(self, small_graphlets):
        table = graphlet_level.similarity_table(small_graphlets)
        for row in ("jaccard", "dataset", "avg_dataset"):
            assert 0.0 <= table[row]["mean"] <= 1.0
            assert sum(table[row]["buckets"].values()) == pytest.approx(
                1.0, abs=1e-6)

    def test_gaps_pushed_sparser_than_all(self, small_graphlets):
        gaps = graphlet_level.inter_graphlet_gaps(small_graphlets)
        assert np.mean(gaps["pushed"]) > np.mean(gaps["all"])

    def test_graphlets_between_pushes_non_negative(self, small_graphlets):
        counts = graphlet_level.graphlets_between_pushes(small_graphlets)
        assert counts
        assert min(counts) >= 0

    def test_cost_by_push_covers_both_classes(self, small_graphlets):
        costs = graphlet_level.cost_by_push(small_graphlets)
        assert costs["pushed"] and costs["unpushed"]

    def test_durations_positive(self, small_graphlets):
        durations = graphlet_level.durations(small_graphlets)
        assert all(d >= 0 for d in durations)

    def test_unpushed_fraction_in_range(self, small_graphlets):
        value = graphlet_level.unpushed_fraction(small_graphlets)
        assert 0.0 < value < 1.0

    def test_push_vs_drift_table_structure(self, small_graphlets):
        table = graphlet_level.push_vs_drift_table(small_graphlets)
        for metric in ("input_similarity", "code_match"):
            assert {"pushed", "unpushed", "all"} <= set(table[metric])

    def test_code_match_rate_near_config(self, small_corpus,
                                         small_graphlets):
        table = graphlet_level.push_vs_drift_table(small_graphlets)
        expected = 1.0 - small_corpus.config.mechanism.code_change_prob
        assert table["code_match"]["all"] == pytest.approx(expected,
                                                           abs=0.12)


class TestFullReport:
    def test_report_has_every_experiment(self, small_corpus,
                                         small_graphlets):
        report = full_report(small_corpus, small_graphlets)
        expected_keys = {
            "fig3a_lifespan", "fig3b_models_per_day", "fig3c_feature_count",
            "fig3d_lifespan_by_type", "fig3e_cadence_by_type",
            "fig3f_feature_profile", "fig4_analyzer_usage",
            "fig5_model_mix", "fig6_operator_presence",
            "fig7_cost_breakdown", "tab1_similarity", "fig9ab_gaps",
            "fig9c_between_pushes", "fig9d_cost_by_push",
            "fig9e_durations", "fig9f_push_by_type", "unpushed_fraction",
            "tab2_push_vs_drift",
        }
        assert expected_keys <= set(report)
