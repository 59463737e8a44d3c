"""The client's derived-fact memos live exactly as long as a store version.

A ``put_*`` that moves the store's ``version`` drops the span-digest
memo, the shared span-pair memo, the execution-fact memo and the
data-analysis consumer map. Results computed through the shared
span-pair memo equal those computed with a fresh cache per call.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import segment_production_pipelines
from repro.analysis.graphlet_level import (
    push_vs_drift_table,
    similarity_table,
)
from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.mlmd.types import Event, EventType, Execution
from repro.query import ExecutionFacts, MetadataClient, as_client
from repro.similarity import SpanPairCache
from repro.waste import build_waste_dataset


def _corpus():
    corpus, _ = generate_corpus_fleet(CorpusConfig(
        n_pipelines=6, seed=5, max_graphlets_per_pipeline=6,
        max_window_spans=4, warmstart_fraction=0.0))
    return corpus


@pytest.fixture()
def corpus():
    return _corpus()


def _fill(corpus):
    """Read every memo once; returns the client and what it memoized."""
    client = as_client(corpus.store)
    similarity_table(segment_production_pipelines(corpus))
    execution_id = next(iter(client.index.executions_by_id))
    span_id = next(a.id for a in client.artifacts("DataSpan"))
    return client, dict(
        pairs=client.span_pairs,
        facts=client.execution_facts([execution_id])[0],
        consumers=client.analysis_consumers(),
        digest=client.span_digest(span_id),
        execution_id=execution_id, span_id=span_id)


class TestMemoLifetime:
    def test_reads_within_a_version_hit_the_memos(self, corpus):
        client, memo = _fill(corpus)
        assert memo["pairs"].size > 0
        assert client.span_pairs is memo["pairs"]
        assert client.execution_facts([memo["execution_id"]])[0] \
            is memo["facts"]
        assert client.analysis_consumers() is memo["consumers"]
        assert client.span_digest(memo["span_id"]) is memo["digest"]

    def test_a_put_drops_every_memo(self, corpus):
        client, memo = _fill(corpus)
        store = corpus.store
        execution = store.get_execution(memo["execution_id"])
        version = store.version
        store.put_execution(dataclasses.replace(
            execution, properties={**execution.properties,
                                   "cpu_hours": 123.0}))
        assert store.version > version
        assert client.span_pairs is not memo["pairs"]
        assert client.span_pairs.size == 0
        assert client.execution_facts([memo["execution_id"]])[0] \
            .cpu_hours == 123.0
        assert client.analysis_consumers() is not memo["consumers"]
        assert client.span_digest(memo["span_id"]) is not memo["digest"]

    def test_consumer_map_sees_a_new_consumer(self, corpus):
        client, memo = _fill(corpus)
        store = corpus.store
        before = list(memo["consumers"].get(memo["span_id"], ()))
        validator = store.put_execution(Execution(
            type_name="ExampleValidator"))
        store.put_event(Event(memo["span_id"], validator,
                              EventType.INPUT))
        assert client.analysis_consumers()[memo["span_id"]] \
            == [*before, validator]

    def test_facts_match_the_store(self, corpus):
        from repro.graphlets import stage_of_group
        client = as_client(corpus.store)
        ids = list(client.index.executions_by_id)
        for execution_id, facts in zip(ids, client.execution_facts(ids)):
            execution = corpus.store.get_execution(execution_id)
            group = str(execution.get("group", "custom"))
            assert facts == ExecutionFacts(
                execution.type_name, stage_of_group(group),
                len(corpus.store.get_input_artifact_ids(execution_id)),
                len(corpus.store.get_output_artifact_ids(execution_id)),
                group, float(execution.get("cpu_hours", 0.0)))


class TestSharedSpanPairMemo:
    def test_results_equal_fresh_caches(self, monkeypatch):
        shared_corpus = _corpus()
        graphlets = segment_production_pipelines(shared_corpus)
        shared = (similarity_table(graphlets),
                  push_vs_drift_table(graphlets),
                  [row.by_family
                   for row in build_waste_dataset(graphlets).rows])
        assert as_client(shared_corpus.store).span_pairs.size > 0

        # Every read of the memo now hands out a new, empty cache.
        monkeypatch.setattr(MetadataClient, "span_pairs",
                            property(lambda client: SpanPairCache()))
        fresh_corpus = _corpus()
        graphlets = segment_production_pipelines(fresh_corpus)
        fresh = (similarity_table(graphlets),
                 push_vs_drift_table(graphlets),
                 [row.by_family
                  for row in build_waste_dataset(graphlets).rows])
        assert repr(shared) == repr(fresh)
        assert len(shared[2]) > 10
