"""Backend parity: MetadataClient over the store vs its saved file.

The same generated corpus is saved with :func:`save_store` and named by
a read-only :class:`SqliteStore` handle, a :class:`MetadataClient` is
built over the in-memory store and over the handle, and every client
operation must return identical results. This is the contract that
lets the analysis layers read a saved corpus as if it were the store
that wrote it.
"""

from __future__ import annotations

import pytest

from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.mlmd import NotFoundError, SqliteStore, save_store
from repro.mlmd.errors import AlreadyExistsError
from repro.mlmd.types import Artifact, ArtifactState, ExecutionState
from repro.query import MetadataClient


def canon(nodes):
    """NaN-tolerant node-list comparison key (nan == nan under repr)."""
    return [repr(n) for n in nodes]


@pytest.fixture(scope="module")
def parity_corpus():
    """A small telemetry-carrying corpus (module-scoped: ~3 s)."""
    corpus, _ = generate_corpus_fleet(
        CorpusConfig(n_pipelines=8, seed=29, max_graphlets_per_pipeline=20,
                     max_window_spans=10),
        telemetry=True)
    return corpus


@pytest.fixture(scope="module")
def backends(parity_corpus, tmp_path_factory):
    """(in-memory client, sqlite client) over the same corpus rows."""
    memory_store = parity_corpus.store
    path = tmp_path_factory.mktemp("parity") / "corpus.db"
    # save_store keeps every id, so results compare without remapping.
    save_store(memory_store, path)
    sqlite_store = SqliteStore(path)
    yield MetadataClient(memory_store), MetadataClient(sqlite_store)
    sqlite_store.close()


def test_node_tables_identical(backends):
    memory, sqlite = backends
    assert canon(memory.get_artifacts()) == canon(sqlite.get_artifacts())
    assert canon(memory.get_executions()) == canon(sqlite.get_executions())
    assert canon(memory.get_contexts()) == canon(sqlite.get_contexts())
    for prop in ("num_artifacts", "num_executions", "num_events",
                 "num_telemetry"):
        assert getattr(memory, prop) == getattr(sqlite, prop)


def test_typed_filters_identical(backends):
    memory, sqlite = backends
    types = {a.type_name for a in memory.get_artifacts()}
    for type_name in sorted(types):
        assert canon(memory.artifacts(type_name=type_name)) \
            == canon(sqlite.artifacts(type_name=type_name))
    for type_name in sorted({e.type_name
                             for e in memory.get_executions()}):
        assert canon(memory.executions(type_name=type_name)) \
            == canon(sqlite.executions(type_name=type_name))
    for state in (s.value for s in ExecutionState):
        assert canon(memory.executions(state=state)) \
            == canon(sqlite.executions(state=state))
    for state in (s.value for s in ArtifactState):
        assert canon(memory.artifacts(state=state)) == canon(sqlite.artifacts(state=state))
    assert canon(memory.contexts("Pipeline")) == canon(sqlite.contexts("Pipeline"))


def test_adjacency_identical(backends):
    memory, sqlite = backends
    for execution in memory.get_executions():
        assert memory.get_input_artifact_ids(execution.id) \
            == sqlite.get_input_artifact_ids(execution.id)
        assert memory.get_output_artifact_ids(execution.id) \
            == sqlite.get_output_artifact_ids(execution.id)
    for artifact in memory.get_artifacts():
        assert memory.get_consumer_execution_ids(artifact.id) \
            == sqlite.get_consumer_execution_ids(artifact.id)
        assert memory.get_producer_execution_ids(artifact.id) \
            == sqlite.get_producer_execution_ids(artifact.id)


def test_events_identical(backends):
    memory, sqlite = backends
    assert canon(memory.get_events()) == canon(sqlite.get_events())


def test_context_membership_identical(backends):
    memory, sqlite = backends
    for context in memory.get_contexts():
        assert canon(memory.get_artifacts_by_context(context.id)) \
            == canon(sqlite.get_artifacts_by_context(context.id))
        assert canon(memory.get_executions_by_context(context.id)) \
            == canon(sqlite.get_executions_by_context(context.id))
    assert sorted(memory.get_attributions()) \
        == sorted(sqlite.get_attributions())
    assert sorted(memory.get_associations()) \
        == sorted(sqlite.get_associations())


def test_telemetry_identical(backends):
    memory, sqlite = backends
    assert canon(memory.get_telemetry()) == canon(sqlite.get_telemetry())
    assert canon(memory.get_telemetry(kind="node")) \
        == canon(sqlite.get_telemetry(kind="node"))
    for execution in memory.get_executions()[:200]:
        assert canon(memory.get_telemetry_by_execution(execution.id)) \
            == canon(sqlite.get_telemetry_by_execution(execution.id))
    for context in memory.get_contexts():
        assert canon(memory.get_telemetry_by_context(context.id)) \
            == canon(sqlite.get_telemetry_by_context(context.id))


def test_batched_reads_identical(backends):
    memory, sqlite = backends
    artifact_ids = [a.id for a in memory.get_artifacts()][:500]
    execution_ids = [e.id for e in memory.get_executions()][:500]
    assert canon(memory.get_artifacts_by_id(artifact_ids)) \
        == canon(sqlite.get_artifacts_by_id(artifact_ids))
    assert canon(memory.get_executions_by_id(execution_ids)) \
        == canon(sqlite.get_executions_by_id(execution_ids))


def test_segmentation_identical(backends):
    memory, sqlite = backends
    for context in memory.contexts("Pipeline"):
        memory_graphlets = memory.segment_pipeline(context.id)
        sqlite_graphlets = sqlite.segment_pipeline(context.id)
        assert [g.trainer_execution_id for g in memory_graphlets] \
            == [g.trainer_execution_id for g in sqlite_graphlets]
        assert [g.execution_ids for g in memory_graphlets] \
            == [g.execution_ids for g in sqlite_graphlets]
        assert [g.artifact_ids for g in memory_graphlets] \
            == [g.artifact_ids for g in sqlite_graphlets]
        assert [g.pushed for g in memory_graphlets] \
            == [g.pushed for g in sqlite_graphlets]


def test_error_parity(backends):
    memory, sqlite = backends
    for client in backends:
        with pytest.raises(NotFoundError):
            client.get_artifact(10**9)
        with pytest.raises(NotFoundError):
            client.get_artifact_by_name("DataSpan", "no-such-name")


def test_store_level_error_parity(backends):
    """The store raises the taxonomy on bad writes (the handle has no
    writes)."""
    memory, _ = backends
    store = memory.store
    duplicate = memory.get_artifacts()[0]
    clone = Artifact(type_name=duplicate.type_name, name=duplicate.name)
    if duplicate.name:
        with pytest.raises(AlreadyExistsError):
            store.put_artifact(clone)
    missing = Artifact(type_name="DataSpan", id=10**9)
    with pytest.raises(NotFoundError):
        store.put_artifact(missing)
