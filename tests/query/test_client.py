"""MetadataClient facade: indexed reads, batching, caching, staleness."""

from __future__ import annotations

import hashlib

import pytest

from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.mlmd import (MetadataStore, downstream_executions,
                        upstream_executions)
from repro.mlmd.errors import NotFoundError
from repro.mlmd.types import (
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    ExecutionState,
    TelemetryRecord,
)
from repro.obs.metrics import get_registry
from repro.query import MetadataClient, as_client
from repro.query import client as client_module


@pytest.fixture()
def store():
    return MetadataStore()


@pytest.fixture()
def populated(store):
    """A tiny two-run trace: span -> trainer -> model, in a context."""
    span = Artifact(type_name="DataSpan", name="span-1")
    span_id = store.put_artifact(span)
    trainer = Execution(type_name="Trainer",
                        state=ExecutionState.RUNNING)
    trainer_id = store.put_execution(trainer)
    store.put_event(Event(span_id, trainer_id, EventType.INPUT))
    model = Artifact(type_name="Model")
    model_id = store.put_artifact(model)
    store.put_event(Event(model_id, trainer_id, EventType.OUTPUT))
    context = Context(type_name="Pipeline", name="p-0")
    context_id = store.put_context(context)
    store.put_attribution(context_id, span_id)
    store.put_attribution(context_id, model_id)
    store.put_association(context_id, trainer_id)
    return dict(span_id=span_id, trainer_id=trainer_id,
                model_id=model_id, context_id=context_id,
                trainer=trainer)


class TestAsClient:
    def test_caches_one_client_per_store(self, store):
        client = as_client(store)
        assert as_client(store) is client

    def test_passes_clients_through(self, store):
        client = as_client(store)
        assert as_client(client) is client

    def test_api_version_is_stable(self):
        assert MetadataClient.API_VERSION == 6


#: Every public map of a MetadataStore: the provenance index the client
#: reads in place.
STORE_MAPS = (
    "artifacts_by_id", "executions_by_id", "contexts_by_id", "events",
    "inputs_of", "outputs_of", "consumers_of", "producers_of",
    "artifacts_in_context", "executions_in_context",
    "contexts_of_artifact", "contexts_of_execution",
    "telemetry_by_id", "telemetry_of_execution", "telemetry_of_context",
    "named_nodes",
)


def _map_digests(store):
    """One digest per public map; insertion order and keys count."""
    digests = {}
    for name in STORE_MAPS:
        value = getattr(store, name)
        text = repr(list(value.items()) if isinstance(value, dict)
                    else value)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


class TestClientIsReadOnly:
    def test_build_segment_and_lineage_leave_the_store_unchanged(self):
        # A client owns no copy of the index and adds no listener, so
        # building one costs generation nothing: it reads the store's
        # own maps and never writes them.
        corpus, _ = generate_corpus_fleet(CorpusConfig(
            n_pipelines=4, seed=3, max_graphlets_per_pipeline=6))
        store = corpus.store
        version, before = store.version, _map_digests(store)
        client = MetadataClient(store)
        assert client.segment_corpus()
        execution_ids = list(store.executions_by_id)
        for execution_id in execution_ids[::len(execution_ids) // 5]:
            upstream_executions(client, execution_id)
            downstream_executions(client, execution_id)
        assert store.version == version
        assert _map_digests(store) == before


class TestIncrementalMaintenance:
    def test_writes_after_attach_are_visible(self, store, populated):
        client = as_client(store)
        late = Artifact(type_name="Schema")
        late_id = store.put_artifact(late)
        assert client.get_artifact(late_id) is late
        assert [a.id for a in client.artifacts(type_name="Schema")] \
            == [late_id]

    def test_writes_before_attach_are_indexed(self, store, populated):
        client = as_client(store)
        assert client.num_artifacts == store.num_artifacts
        assert client.get_input_artifact_ids(populated["trainer_id"]) \
            == [populated["span_id"]]

    def test_state_flip_moves_between_buckets(self, store, populated):
        client = as_client(store)
        trainer = populated["trainer"]
        assert [e.id for e in client.executions(state="running")] \
            == [trainer.id]
        trainer.state = ExecutionState.COMPLETE
        store.put_execution(trainer)
        assert client.executions(state="running") == []
        assert [e.id for e in client.executions(state="complete")] \
            == [trainer.id]

    def test_combined_type_and_state_filter(self, store, populated):
        client = as_client(store)
        assert [e.id for e in client.executions(type_name="Trainer",
                                                state="running")] \
            == [populated["trainer_id"]]
        assert client.executions(type_name="Trainer",
                                 state="complete") == []

    def test_version_bumps_on_every_mutation(self, store, populated):
        client = as_client(store)
        before = client.version
        store.put_artifact(Artifact(type_name="Schema"))
        assert client.version == before + 1

    def test_telemetry_joins_maintained(self, store, populated):
        client = as_client(store)
        store.put_telemetry(TelemetryRecord(
            kind="node", name="trainer",
            execution_id=populated["trainer_id"], value=2.5))
        rows = client.get_telemetry_by_execution(populated["trainer_id"])
        assert [r.value for r in rows] == [2.5]
        assert client.num_telemetry == 1


class TestReadProtocol:
    def test_point_lookups_and_not_found(self, store, populated):
        client = as_client(store)
        assert client.get_artifact(populated["span_id"]).name == "span-1"
        with pytest.raises(NotFoundError):
            client.get_artifact(10_000)
        with pytest.raises(NotFoundError):
            client.get_execution(10_000)
        with pytest.raises(NotFoundError):
            client.get_context(10_000)

    def test_adjacency_matches_store(self, store, populated):
        client = as_client(store)
        trainer_id = populated["trainer_id"]
        assert client.get_input_artifact_ids(trainer_id) \
            == store.get_input_artifact_ids(trainer_id)
        assert client.get_output_artifact_ids(trainer_id) \
            == store.get_output_artifact_ids(trainer_id)
        assert client.get_consumer_execution_ids(populated["span_id"]) \
            == [trainer_id]
        assert client.get_producer_execution_ids(populated["model_id"]) \
            == [trainer_id]

    def test_context_membership(self, store, populated):
        client = as_client(store)
        context_id = populated["context_id"]
        assert {a.id for a in client.get_artifacts_by_context(context_id)} \
            == {populated["span_id"], populated["model_id"]}
        assert [e.id for e in client.get_executions_by_context(context_id)] \
            == [populated["trainer_id"]]
        assert [c.id for c in
                client.get_contexts_by_execution(populated["trainer_id"])] \
            == [context_id]
        with pytest.raises(NotFoundError):
            client.get_artifacts_by_context(999)

    def test_name_lookup(self, store, populated):
        client = as_client(store)
        assert client.get_artifact_by_name("DataSpan", "span-1").id \
            == populated["span_id"]
        with pytest.raises(NotFoundError):
            client.get_artifact_by_name("DataSpan", "missing")

    def test_events_and_counts(self, store, populated):
        client = as_client(store)
        assert client.num_events == store.num_events
        assert [(e.artifact_id, e.execution_id) for e in client.get_events()] \
            == [(e.artifact_id, e.execution_id) for e in store.get_events()]

    def test_reads_count_into_the_store_ops(self, store, populated):
        # A client read is the store's own read: it advances the same
        # mlmd.ops counters as a read on the store.
        registry = get_registry()
        get_node = registry.counter("mlmd.ops", op="get_node")
        lineage = registry.counter("mlmd.ops", op="lineage")
        client = as_client(store)
        nodes, edges = get_node.value, lineage.value
        client.get_artifact(populated["span_id"])
        client.get_execution(populated["trainer_id"])
        client.get_input_artifact_ids(populated["trainer_id"])
        assert get_node.value == nodes + 2
        assert lineage.value == edges + 1

    def test_type_filtered_bulk_reads_raise_like_the_store(self, store,
                                                          populated):
        # tests/mlmd/test_deprecations.py pins the same on the store.
        client = as_client(store)
        with pytest.raises(TypeError):
            client.get_artifacts("Model")
        with pytest.raises(TypeError):
            client.get_executions("Trainer")
        with pytest.raises(TypeError):
            client.get_contexts("Pipeline")


class TestSegmentationCache:
    def _trace(self, store):
        span = store.put_artifact(Artifact(type_name="DataSpan"))
        trainer = store.put_execution(Execution(
            type_name="Trainer", state=ExecutionState.COMPLETE))
        store.put_event(Event(span, trainer, EventType.INPUT))
        model = store.put_artifact(Artifact(type_name="Model"))
        store.put_event(Event(model, trainer, EventType.OUTPUT))
        context = store.put_context(Context(type_name="Pipeline",
                                            name="p"))
        store.put_attribution(context, span)
        store.put_attribution(context, model)
        store.put_association(context, trainer)
        return context

    def test_repeat_segmentation_hits_cache(self, store):
        context_id = self._trace(store)
        client = as_client(store)
        first = client.segment_pipeline(context_id)
        second = client.segment_pipeline(context_id)
        assert client.segment_cache_hits == 1
        assert client.segment_cache_misses == 1
        assert [g.trainer_execution_id for g in first] \
            == [g.trainer_execution_id for g in second]

    def test_mutation_invalidates_cache(self, store):
        context_id = self._trace(store)
        client = as_client(store)
        assert len(client.segment_pipeline(context_id)) == 1
        # A second trainer in the same context must appear.
        trainer2 = store.put_execution(Execution(
            type_name="Trainer", state=ExecutionState.COMPLETE,
            start_time=5.0))
        store.put_association(context_id, trainer2)
        assert len(client.segment_pipeline(context_id)) == 2
        assert client.segment_cache_misses == 2

    def test_graphlets_read_through_client(self, store):
        context_id = self._trace(store)
        client = as_client(store)
        graphlet = client.segment_pipeline(context_id)[0]
        assert graphlet.store is client

    def test_lru_eviction_bounds_cache(self, store, monkeypatch):
        monkeypatch.setattr(client_module, "SEGMENT_CACHE_SIZE", 1)
        context_id = self._trace(store)
        client = MetadataClient(store)
        client.segment_pipeline(context_id)
        client.segment_pipeline(context_id)
        assert len(client._segment_cache) == 1

    def test_raw_store_entry_point_routes_to_cache(self, store):
        from repro.graphlets import segment_pipeline
        context_id = self._trace(store)
        segment_pipeline(store, context_id)
        segment_pipeline(store, context_id)
        assert as_client(store).segment_cache_hits == 1
