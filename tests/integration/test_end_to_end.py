"""End-to-end integration: corpus → trace → graphlets → waste policy.

These tests exercise the full stack the way the benches do, at reduced
scale, plus the SQLite round-trip of a whole corpus.
"""

import pytest

from repro.analysis import full_report, segment_production_pipelines
from repro.corpus import Corpus, CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.graphlets import segment_pipeline
from repro.mlmd import load_store, save_store
from repro.waste import build_waste_dataset, train_all_variants


class TestFullStack:
    def test_report_and_policy_from_one_corpus(self, small_corpus,
                                               small_graphlets):
        report = full_report(small_corpus, small_graphlets)
        assert report["unpushed_fraction"] > 0.5
        dataset = build_waste_dataset(small_graphlets)
        policies = train_all_variants(dataset, n_estimators=10)
        assert policies["RF:Validation"].balanced_accuracy > 0.6

    def test_corpus_roundtrips_through_sqlite(self, tmp_path,
                                              small_corpus):
        path = tmp_path / "corpus.db"
        save_store(small_corpus.store, path)
        loaded_store = load_store(path)
        assert loaded_store.num_executions == \
            small_corpus.store.num_executions
        # Graphlet segmentation must give identical results on the
        # reloaded trace.
        context = small_corpus.production_context_ids[0]
        original = segment_pipeline(small_corpus.store, context)
        reloaded_context = next(
            c.id for c in loaded_store.get_contexts()
            if c.type_name == "Pipeline"
            and c.name == small_corpus.store.get_context(context).name)
        reloaded = segment_pipeline(loaded_store, reloaded_context)
        assert len(original) == len(reloaded)
        assert [g.pushed for g in original] == [g.pushed for g in reloaded]
        assert [len(g.execution_ids) for g in original] == \
            [len(g.execution_ids) for g in reloaded]

    def test_analysis_on_reloaded_corpus(self, tmp_path, small_corpus):
        path = tmp_path / "corpus.db"
        save_store(small_corpus.store, path)
        loaded_store = load_store(path)
        loaded = Corpus(store=loaded_store, records=small_corpus.records,
                        config=small_corpus.config)
        graphlets = segment_production_pipelines(loaded)
        report = full_report(loaded, graphlets)
        original = full_report(small_corpus)
        assert report["unpushed_fraction"] == pytest.approx(
            original["unpushed_fraction"])

    def test_trace_counts_scale_with_pipelines(self):
        small, _ = generate_corpus_fleet(CorpusConfig(
            n_pipelines=2, seed=3, max_graphlets_per_pipeline=8))
        bigger, _ = generate_corpus_fleet(CorpusConfig(
            n_pipelines=6, seed=3, max_graphlets_per_pipeline=8))
        assert bigger.store.num_executions > small.store.num_executions

    def test_events_reference_valid_nodes(self, small_corpus):
        store = small_corpus.store
        for event in store.get_events()[:500]:
            store.get_artifact(event.artifact_id)
            store.get_execution(event.execution_id)

    def test_every_model_has_producing_trainer(self, small_corpus):
        store = small_corpus.store
        models = [a for a in store.get_artifacts()
                  if a.type_name == "Model"]
        for artifact in models[:200]:
            producers = store.get_producer_execution_ids(artifact.id)
            assert len(producers) == 1
            assert store.get_execution(
                producers[0]).type_name == "Trainer"

    def test_every_pushed_model_chain(self, small_corpus):
        """PushedModel → Pusher → Model → Trainer chain must exist."""
        store = small_corpus.store
        pushed = [a for a in store.get_artifacts()
                  if a.type_name == "PushedModel"]
        assert pushed
        for artifact in pushed[:50]:
            pusher = store.get_execution(
                store.get_producer_execution_ids(artifact.id)[0])
            assert pusher.type_name == "Pusher"
            model_inputs = [
                a for a in store.get_input_artifacts(pusher.id)
                if a.type_name == "Model"
            ]
            assert model_inputs
