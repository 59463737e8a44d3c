"""Lineage traversal tests: ancestors, descendants, trace stats."""

import pytest

from repro.mlmd import (
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    MetadataStore,
    downstream_executions,
    trace_lifespan_days,
    trace_node_count,
    upstream_executions,
)


def _chain(store, n):
    """exec0 -> art0 -> exec1 -> art1 -> ... Returns execution ids."""
    execution_ids = []
    previous_artifact = None
    for i in range(n):
        execution_id = store.put_execution(Execution(type_name=f"Op{i}"))
        if previous_artifact is not None:
            store.put_event(Event(previous_artifact, execution_id,
                                  EventType.INPUT))
        artifact_id = store.put_artifact(Artifact(type_name="A"))
        store.put_event(Event(artifact_id, execution_id, EventType.OUTPUT))
        previous_artifact = artifact_id
        execution_ids.append(execution_id)
    return execution_ids


@pytest.fixture()
def store():
    return MetadataStore()


class TestUpstreamDownstream:
    def test_chain_ancestors(self, store):
        execs = _chain(store, 4)
        assert upstream_executions(store, execs[3]) == set(execs[:3])

    def test_chain_descendants(self, store):
        execs = _chain(store, 4)
        assert downstream_executions(store, execs[0]) == set(execs[1:])

    def test_stop_predicate_prunes_traversal_not_reporting(self, store):
        execs = _chain(store, 4)
        stopped = upstream_executions(
            store, execs[3], stop=lambda e: e == execs[2])
        # execs[2] is reported but its own ancestors are not explored.
        assert stopped == {execs[2]}

    def test_diamond_ancestors_visited_once(self, store):
        top = store.put_execution(Execution(type_name="Top"))
        shared = store.put_artifact(Artifact(type_name="A"))
        store.put_event(Event(shared, top, EventType.OUTPUT))
        mid = []
        for _ in range(2):
            execution_id = store.put_execution(Execution(type_name="Mid"))
            store.put_event(Event(shared, execution_id, EventType.INPUT))
            out = store.put_artifact(Artifact(type_name="A"))
            store.put_event(Event(out, execution_id, EventType.OUTPUT))
            mid.append((execution_id, out))
        bottom = store.put_execution(Execution(type_name="Bottom"))
        for _, out in mid:
            store.put_event(Event(out, bottom, EventType.INPUT))
        ancestors = upstream_executions(store, bottom)
        assert ancestors == {top, mid[0][0], mid[1][0]}

    def test_no_ancestors_for_source(self, store):
        execs = _chain(store, 2)
        assert upstream_executions(store, execs[0]) == set()


class TestTraceStats:
    def test_node_count(self, store):
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="p"))
        execs = _chain(store, 3)
        for execution_id in execs:
            store.put_association(context_id, execution_id)
        for artifact in store.get_artifacts():
            store.put_attribution(context_id, artifact.id)
        assert trace_node_count(store, context_id) == 6

    def test_lifespan_days(self, store):
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="p"))
        early = store.put_execution(
            Execution(type_name="Op", start_time=0.0, end_time=1.0))
        late = store.put_execution(
            Execution(type_name="Op", start_time=47.0, end_time=48.0))
        store.put_association(context_id, early)
        store.put_association(context_id, late)
        assert trace_lifespan_days(store, context_id) == pytest.approx(2.0)

    def test_lifespan_empty_context(self, store):
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="p"))
        assert trace_lifespan_days(store, context_id) == 0.0
