"""Micro-benchmarks of the substrates (true multi-round timings).

Unlike the experiment benches (which run once), these use
pytest-benchmark's statistics over repeated rounds: metadata-store
writes, lineage traversal, graphlet segmentation, digest hashing, and
span-pair similarity — the operations that dominate corpus analysis.
"""

import numpy as np
import pytest

from repro.corpus import CorpusConfig
from repro.data import random_schema, synthetic_span
from repro.fleet import generate_corpus_fleet
from repro.graphlets import segment_pipeline
from repro.mlmd import Artifact, Event, EventType, Execution, MetadataStore
from repro.similarity import digest_span, span_similarity


@pytest.fixture(scope="module")
def perf_corpus():
    corpus, _ = generate_corpus_fleet(CorpusConfig(
        n_pipelines=10, seed=9, max_graphlets_per_pipeline=30))
    return corpus


def test_store_put_throughput(benchmark):
    def _insert_chain():
        store = MetadataStore()
        previous = None
        for i in range(500):
            execution_id = store.put_execution(Execution(type_name="Op"))
            if previous is not None:
                store.put_event(Event(previous, execution_id,
                                      EventType.INPUT))
            artifact_id = store.put_artifact(Artifact(type_name="A"))
            store.put_event(Event(artifact_id, execution_id,
                                  EventType.OUTPUT))
            previous = artifact_id
        return store

    store = benchmark(_insert_chain)
    assert store.num_executions == 500


def test_segmentation_speed(benchmark, perf_corpus):
    store = perf_corpus.store
    context_id = perf_corpus.production_context_ids[0]
    graphlets = benchmark(segment_pipeline, store, context_id)
    assert graphlets


def test_digest_speed(benchmark):
    rng = np.random.default_rng(2)
    schema = random_schema(rng, n_features=50)
    span = synthetic_span(schema, 1, 10_000, rng)
    digest = benchmark(digest_span, span.statistics)
    assert digest.feature_count == 50


def test_span_similarity_speed(benchmark):
    rng = np.random.default_rng(3)
    schema = random_schema(rng, n_features=50)
    d1 = digest_span(synthetic_span(schema, 1, 5000, rng).statistics)
    d2 = digest_span(synthetic_span(schema, 2, 5000, rng).statistics)
    value = benchmark(span_similarity, d1, d2)
    assert 0.0 <= value <= 1.0


def test_span_generation_speed(benchmark):
    rng = np.random.default_rng(4)
    schema = random_schema(rng, n_features=60)
    span = benchmark(synthetic_span, schema, 1, 10_000, rng)
    assert span.statistics.feature_count == 60
