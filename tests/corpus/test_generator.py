"""Corpus-generator tests: determinism, structure, calibration shape."""

import numpy as np
import pytest

from repro.corpus import (
    CorpusConfig,
    build_pipeline,
    sample_archetype,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.fleet import generate_corpus_fleet
from repro.mlmd import trace_lifespan_days
from repro.tfx.model_types import ModelType


class TestConfig:
    def test_model_mix_must_sum_to_one(self):
        config = CorpusConfig()
        config.model_mix[ModelType.DNN] = 0.9
        with pytest.raises(ValueError):
            CorpusConfig(model_mix=config.model_mix)

    def test_presets_scale(self):
        assert CorpusConfig.small().n_pipelines \
            < CorpusConfig.medium().n_pipelines \
            < CorpusConfig.paper_scale().n_pipelines

    def test_n_pipelines_validated(self):
        with pytest.raises(ValueError):
            CorpusConfig(n_pipelines=0)


class TestArchetypes:
    def test_sampling_is_deterministic(self):
        config = CorpusConfig()
        a = sample_archetype(np.random.default_rng(5), config, 0, 20, 0.5)
        b = sample_archetype(np.random.default_rng(5), config, 0, 20, 0.5)
        assert a == b

    def test_built_pipeline_validates(self, rng):
        config = CorpusConfig()
        for index in range(25):
            archetype = sample_archetype(rng, config, index,
                                         int(rng.integers(2, 50)),
                                         float(rng.uniform(0.1, 0.9)))
            pipeline = build_pipeline(archetype)  # Raises if mis-wired.
            names = {n.operator.name for n in pipeline.nodes}
            assert {"Trainer", "Pusher"} <= names

    def test_ab_pipeline_has_parallel_branches(self, rng):
        config = CorpusConfig(p_ab_testing=1.0)
        archetype = sample_archetype(rng, config, 0, 10, 0.5)
        assert archetype.n_parallel_trainers >= 2
        pipeline = build_pipeline(archetype)
        assert len(pipeline.trainer_node_ids()) \
            == archetype.n_parallel_trainers

    def test_window_capped(self, rng):
        config = CorpusConfig(max_window_spans=8)
        for index in range(20):
            archetype = sample_archetype(rng, config, index, 10, 0.5)
            assert archetype.window_spans <= 8


class TestGeneration:
    def test_deterministic_given_seed(self):
        config = CorpusConfig(n_pipelines=3, seed=11,
                              max_graphlets_per_pipeline=10)
        a, _ = generate_corpus_fleet(config)
        b, _ = generate_corpus_fleet(config)
        assert a.store.num_executions == b.store.num_executions
        assert a.store.num_artifacts == b.store.num_artifacts
        assert [r.n_pushes for r in a.records] == \
            [r.n_pushes for r in b.records]

    def test_different_seeds_differ(self):
        a, _ = generate_corpus_fleet(CorpusConfig(
            n_pipelines=3, seed=1, max_graphlets_per_pipeline=10))
        b, _ = generate_corpus_fleet(CorpusConfig(
            n_pipelines=3, seed=2, max_graphlets_per_pipeline=10))
        assert a.store.num_executions != b.store.num_executions

    def test_graphlet_cap_respected(self, small_corpus):
        cap = small_corpus.config.max_graphlets_per_pipeline
        for record in small_corpus.records:
            assert record.n_train_runs <= cap

    def test_production_filter(self, small_corpus):
        for record in small_corpus.production_records:
            assert record.n_models >= 1
            assert record.n_pushes >= 1

    def test_lifespan_within_corpus_span(self, small_corpus):
        store = small_corpus.store
        span = small_corpus.config.corpus_span_days
        for record in small_corpus.records:
            assert trace_lifespan_days(store, record.context_id) \
                <= span + 1.0


def _store_rows(store):
    """Every context, execution, artifact and event row, ids included
    (repr compares NaN properties equal)."""
    return [[repr(row) for row in rows] for rows in (
        store.get_contexts(), store.get_executions(),
        store.get_artifacts(), store.get_events())]


class TestOneStream:
    """The fleet draws the same per-pipeline streams at any worker
    count, so one shard and three store the same rows."""

    @pytest.fixture(scope="class")
    def corpora(self):
        config = CorpusConfig(n_pipelines=5, seed=11,
                              max_graphlets_per_pipeline=6,
                              max_window_spans=6)
        plan = FaultPlan.parse("transient:Trainer:0.4;permanent:Pusher:0.2",
                               seed=3)
        retry = RetryPolicy(max_attempts=3)
        kwargs = dict(fault_plan=plan, retry_policy=retry)
        one, _ = generate_corpus_fleet(config, workers=1, **kwargs)
        three, _ = generate_corpus_fleet(config, workers=3,
                                         in_process=True, **kwargs)
        return one, three

    def test_rows_identical(self, corpora):
        one, three = corpora
        rows = _store_rows(one.store)
        assert all(rows)
        assert any(e.get("retry_of") is not None
                   for e in one.store.get_executions())
        assert _store_rows(three.store) == rows

    def test_pipeline_records_identical(self, corpora):
        one, three = corpora
        assert len(one.records) == 5
        assert three.records == one.records


class TestCalibrationShape:
    """Coarse shape checks on the small corpus (full checks in benches)."""

    def test_unpushed_majority(self, small_graphlets):
        flags = [g.pushed for graphlets in small_graphlets.values()
                 for g in graphlets]
        unpushed = 1.0 - float(np.mean(flags))
        assert 0.6 < unpushed < 0.9  # paper: 0.80

    def test_push_likelihood_below_point_six(self, small_graphlets):
        from repro.analysis.graphlet_level import push_rate_by_model_type
        rates = push_rate_by_model_type(small_graphlets)
        known = {k: v for k, v in rates.items() if k != "unknown"}
        assert known
        assert max(known.values()) < 0.75  # paper: < 0.6

    def test_jaccard_bimodal(self, small_graphlets):
        from repro.analysis.graphlet_level import similarity_table
        table = similarity_table(small_graphlets)
        buckets = table["jaccard"]["buckets"]
        low = buckets["[0.0, 0.25]"]
        high = buckets["[0.75, 1.0]"]
        middle = buckets["[0.25, 0.5]"] + buckets["[0.5, 0.75]"]
        assert low + high > middle  # Table 1: mass at the extremes

    def test_dataset_similarity_mostly_low(self, small_graphlets):
        from repro.analysis.graphlet_level import similarity_table
        table = similarity_table(small_graphlets)
        assert table["dataset"]["buckets"]["[0.0, 0.25]"] > 0.6
        assert table["dataset"]["mean"] < 0.35  # paper: 0.101

    def test_training_cost_minority(self, small_corpus):
        # The strict Figure-7 share check runs at bench scale; the small
        # test corpus has shorter windows (less ingest-side work per
        # model), which inflates training's share somewhat.
        from repro.analysis.pipeline_level import cost_breakdown
        shares = cost_breakdown(small_corpus.store,
                                small_corpus.production_context_ids)
        assert shares.get("training", 0.0) < 0.45

    def test_dnn_majority_of_models(self, small_corpus):
        from repro.analysis.pipeline_level import model_mix
        mix = model_mix(small_corpus.store,
                        small_corpus.production_context_ids)
        dnn = mix.get("dnn", 0) + mix.get("dnn_linear", 0)
        assert dnn > 0.4  # paper: 0.66
