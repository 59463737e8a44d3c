"""Unit tests for the in-memory metadata store."""

import pytest

from repro.mlmd import (
    AlreadyExistsError,
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    MetadataError,
    MetadataStore,
    NotFoundError,
    TypeMismatchError,
    validate_properties,
)


@pytest.fixture()
def store():
    return MetadataStore()


def _linked(store):
    """One span feeding one trainer; returns (span_id, run_id)."""
    span_id = store.put_artifact(Artifact(type_name="DataSpan",
                                          name="span-1"))
    run_id = store.put_execution(Execution(type_name="Trainer"))
    store.put_event(Event(span_id, run_id, EventType.INPUT))
    return span_id, run_id


class TestPutGet:
    def test_put_assigns_incrementing_ids(self, store):
        first = store.put_artifact(Artifact(type_name="DataSpan"))
        second = store.put_artifact(Artifact(type_name="DataSpan"))
        assert second == first + 1

    def test_get_artifact_roundtrips_properties(self, store):
        artifact = Artifact(type_name="Model",
                            properties={"auc": 0.9, "tags": ["a", "b"]})
        artifact_id = store.put_artifact(artifact)
        fetched = store.get_artifact(artifact_id)
        assert fetched.get("auc") == 0.9
        assert fetched.get("tags") == ["a", "b"]

    def test_get_missing_artifact_raises(self, store):
        with pytest.raises(NotFoundError):
            store.get_artifact(999)

    def test_get_missing_execution_raises(self, store):
        with pytest.raises(NotFoundError):
            store.get_execution(1)

    def test_update_existing_artifact(self, store):
        artifact = Artifact(type_name="Model")
        artifact_id = store.put_artifact(artifact)
        artifact.properties["auc"] = 0.5
        store.put_artifact(artifact)
        assert store.get_artifact(artifact_id).get("auc") == 0.5

    def test_update_unknown_id_raises(self, store):
        with pytest.raises(NotFoundError):
            store.put_artifact(Artifact(type_name="Model", id=42))

    def test_named_artifact_lookup(self, store):
        store.put_artifact(Artifact(type_name="DataSpan", name="s1"))
        fetched = store.get_artifact_by_name("DataSpan", "s1")
        assert fetched.name == "s1"

    def test_duplicate_name_rejected(self, store):
        store.put_artifact(Artifact(type_name="DataSpan", name="s1"))
        with pytest.raises(AlreadyExistsError):
            store.put_artifact(Artifact(type_name="DataSpan", name="s1"))

    def test_same_name_different_type_allowed(self, store):
        store.put_artifact(Artifact(type_name="DataSpan", name="x"))
        store.put_artifact(Artifact(type_name="Model", name="x"))
        assert store.num_artifacts == 2

    def test_bulk_read_returns_every_type(self, store):
        store.put_artifact(Artifact(type_name="DataSpan"))
        store.put_artifact(Artifact(type_name="Model"))
        assert len(store.get_artifacts()) == 2


class TestProperties:
    def test_rejects_unserializable_value(self):
        with pytest.raises(TypeError):
            validate_properties({"bad": object()})
        with pytest.raises(TypeMismatchError) as raised:
            MetadataStore().put_artifact(Artifact(
                type_name="Model", properties={"bad": object()}))
        assert isinstance(raised.value, MetadataError)

    def test_rejects_non_string_key(self):
        with pytest.raises(TypeError):
            validate_properties({1: "x"})
        with pytest.raises(TypeMismatchError) as raised:
            MetadataStore().put_execution(Execution(
                type_name="Trainer", properties={1: "x"}))
        assert isinstance(raised.value, MetadataError)

    def test_rejects_nested_list(self):
        with pytest.raises(TypeError):
            validate_properties({"bad": [[1]]})
        with pytest.raises(TypeMismatchError) as raised:
            MetadataStore().put_context(Context(
                type_name="Pipeline", properties={"bad": [[1]]}))
        assert isinstance(raised.value, MetadataError)

    def test_accepts_scalars_and_flat_lists(self):
        validate_properties({"a": 1, "b": 2.0, "c": "s", "d": True,
                             "e": [1, "x", False]})


class TestEvents:
    def test_input_event_links_both_directions(self, store):
        span_id, run_id = _linked(store)
        assert store.get_input_artifact_ids(run_id) == [span_id]
        assert store.get_consumer_execution_ids(span_id) == [run_id]

    def test_output_event_links_both_directions(self, store):
        run_id = store.put_execution(Execution(type_name="Trainer"))
        model_id = store.put_artifact(Artifact(type_name="Model"))
        store.put_event(Event(model_id, run_id, EventType.OUTPUT))
        assert store.get_output_artifact_ids(run_id) == [model_id]
        assert store.get_producer_execution_ids(model_id) == [run_id]

    def test_event_requires_existing_nodes(self, store):
        with pytest.raises(NotFoundError):
            store.put_event(Event(1, 1, EventType.INPUT))

    def test_event_order_preserved(self, store):
        run_id = store.put_execution(Execution(type_name="Trainer"))
        ids = [store.put_artifact(Artifact(type_name="DataSpan"))
               for _ in range(3)]
        for artifact_id in ids:
            store.put_event(Event(artifact_id, run_id, EventType.INPUT))
        assert store.get_input_artifact_ids(run_id) == ids


class TestContexts:
    def test_attribution_and_association(self, store):
        from repro.mlmd import Context
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="p"))
        span_id, run_id = _linked(store)
        store.put_attribution(context_id, span_id)
        store.put_association(context_id, run_id)
        assert [a.id for a in store.get_artifacts_by_context(context_id)] \
            == [span_id]
        assert [e.id for e in store.get_executions_by_context(context_id)] \
            == [run_id]
        assert store.get_contexts_by_execution(run_id)[0].name == "p"

    def test_attribution_requires_context(self, store):
        span_id, _ = _linked(store)
        with pytest.raises(NotFoundError):
            store.put_attribution(5, span_id)

    def test_reading_an_empty_context_writes_nothing(self, store):
        from repro.mlmd import Context
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="empty"))
        version = store.version
        assert store.get_artifacts_by_context(context_id) == []
        assert store.get_executions_by_context(context_id) == []
        assert dict(store.artifacts_in_context) == {}
        assert dict(store.executions_in_context) == {}
        assert store.version == version


class TestExecutionDuration:
    def test_duration_zero_while_running(self):
        execution = Execution(type_name="Trainer", start_time=10.0)
        assert execution.duration == 0.0

    def test_duration_after_completion(self):
        execution = Execution(type_name="Trainer", start_time=10.0,
                              end_time=12.5)
        assert execution.duration == pytest.approx(2.5)
