"""Trace summarization tests."""

import pytest

from repro.mlmd import (
    Artifact,
    Event,
    EventType,
    Execution,
    ExecutionState,
    MetadataStore,
    summarize_by_type,
)


@pytest.fixture()
def chain_store():
    """span -> Trainer -> model -> Pusher -> pushed."""
    store = MetadataStore()
    span = store.put_artifact(Artifact(type_name="DataSpan"))
    trainer = store.put_execution(Execution(type_name="Trainer"))
    store.put_event(Event(span, trainer, EventType.INPUT))
    model = store.put_artifact(Artifact(type_name="Model"))
    store.put_event(Event(model, trainer, EventType.OUTPUT))
    pusher = store.put_execution(Execution(type_name="Pusher"))
    store.put_event(Event(model, pusher, EventType.INPUT))
    pushed = store.put_artifact(Artifact(type_name="PushedModel"))
    store.put_event(Event(pushed, pusher, EventType.OUTPUT))
    return store, span, trainer, model, pusher, pushed


class TestTypeSummary:
    def test_counts(self, chain_store):
        store = chain_store[0]
        summary = summarize_by_type(store)
        assert summary.artifact_counts == {
            "DataSpan": 1, "Model": 1, "PushedModel": 1}
        assert summary.execution_counts == {"Trainer": 1, "Pusher": 1}

    def test_edge_multiplicities(self, chain_store):
        store = chain_store[0]
        summary = summarize_by_type(store)
        assert summary.edge_counts[("DataSpan", "Trainer")] == 1
        assert summary.edge_counts[("Trainer", "Model")] == 1
        assert summary.edge_counts[("Model", "Pusher")] == 1

    def test_summary_size_bounded_by_types(self, small_corpus):
        store = small_corpus.store
        summary = summarize_by_type(store)
        # Thousands of nodes collapse to a handful of types.
        assert summary.node_count < 30
        assert store.num_artifacts > summary.node_count

    def test_per_context_summary(self, small_corpus):
        context = small_corpus.production_context_ids[0]
        summary = summarize_by_type(small_corpus.store, context)
        assert summary.execution_counts.get("Trainer", 0) >= 1

    def test_render(self, chain_store):
        out = summarize_by_type(chain_store[0]).render()
        assert "Trainer" in out and "->" in out


class TestCachedExecutions:
    @pytest.fixture()
    def store_with_cached(self, chain_store):
        store = chain_store[0]
        store.put_execution(Execution(
            type_name="Transform", state=ExecutionState.CACHED,
            properties={"cpu_hours": 0.0, "saved_cpu_hours": 3.5}))
        return store

    def test_cached_count_and_fraction(self, store_with_cached):
        summary = summarize_by_type(store_with_cached)
        assert summary.cached_executions == 1
        assert summary.cached_fraction == pytest.approx(1 / 3)

    def test_render_mentions_cache(self, store_with_cached):
        out = summarize_by_type(store_with_cached).render()
        assert "cached executions: 1" in out

    def test_render_silent_without_cache(self, chain_store):
        # Corpora generated without --exec-cache keep the old output.
        summary = summarize_by_type(chain_store[0])
        assert summary.cached_executions == 0
        assert "cached" not in summary.render()
