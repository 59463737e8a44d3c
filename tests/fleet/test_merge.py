"""Fleet merge tests: shard files appended with id remapping."""

import sqlite3

import pytest

from repro.faults.journal import shard_db_path, write_shard_payload
from repro.mlmd import (
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    MetadataStore,
    integrity_check,
)
from repro.mlmd.sqlite_store import append_store
from repro.mlmd.types import TelemetryRecord


def _shard_store(tag):
    """A minimal but fully-linked store: context, run, telemetry."""
    store = MetadataStore()
    context = store.put_context(Context(type_name="Pipeline",
                                        name=f"pipeline-{tag}"))
    span = store.put_artifact(Artifact(type_name="DataSpan",
                                       properties={"span_id": tag}))
    trainer = store.put_execution(Execution(type_name="Trainer"))
    store.put_event(Event(span, trainer, EventType.INPUT))
    model = store.put_artifact(Artifact(type_name="Model"))
    store.put_event(Event(model, trainer, EventType.OUTPUT))
    for artifact_id in (span, model):
        store.put_attribution(context, artifact_id)
    store.put_association(context, trainer)
    store.put_telemetry(TelemetryRecord(
        kind="node", name="Trainer", execution_id=trainer,
        context_id=context, value=1.0))
    return store


@pytest.fixture()
def shard_file(tmp_path):
    """Write ``_shard_store(tag)`` as shard ``tag``'s journal payload."""
    def write(tag):
        write_shard_payload(tmp_path, tag, _shard_store(tag), {})
        return shard_db_path(tmp_path, tag)
    return write


class TestShardFile:
    def test_shard_file_is_complete(self, shard_file):
        report = integrity_check(shard_file(0))
        assert report.ok
        assert report.row_counts == {
            "artifacts": 2, "executions": 1, "contexts": 1, "events": 2,
            "attributions": 2, "associations": 1, "telemetry": 1}


class TestMerge:
    def test_ids_remapped_into_occupied_store(self, shard_file):
        # The destination already holds rows, so every shard-local id
        # collides and must be remapped.
        dest = _shard_store(0)
        maps = append_store(shard_file(1), dest)
        assert dest.num_artifacts == 4
        assert dest.num_executions == 2
        assert len(dest.get_contexts()) == 2
        assert all(old != new for old, new in maps.artifacts.items())

    def test_lineage_survives_merge(self, shard_file):
        dest = MetadataStore()
        maps = append_store(shard_file(7), dest)
        (trainer_id,) = maps.executions.values()
        inputs = dest.get_input_artifacts(trainer_id)
        assert [a.get("span_id") for a in inputs] == [7]
        assert [a.type_name
                for a in dest.get_output_artifacts(trainer_id)] == \
            ["Model"]

    def test_context_membership_survives_merge(self, shard_file):
        dest = _shard_store(0)
        maps = append_store(shard_file(1), dest)
        (context_id,) = maps.contexts.values()
        members = dest.get_artifacts_by_context(context_id)
        assert {a.get("span_id") for a in members
                if a.type_name == "DataSpan"} == {1}
        assert len(dest.get_executions_by_context(context_id)) == 1

    def test_telemetry_join_keys_remapped(self, shard_file):
        dest = _shard_store(0)
        maps = append_store(shard_file(1), dest)
        merged = dest.get_telemetry()
        assert len(merged) == 2
        latest = merged[-1]
        assert latest.execution_id in maps.executions.values()
        assert latest.context_id in maps.contexts.values()

    def test_merged_contexts_stay_disjoint(self, shard_file):
        dest = MetadataStore()
        first = append_store(shard_file(0), dest)
        second = append_store(shard_file(1), dest)
        a = set(first.artifacts.values())
        b = set(second.artifacts.values())
        assert not a & b

    def test_dangling_reference_raises(self, shard_file):
        # Integrity is enforced by the store during re-insertion: an
        # event naming an artifact the shard never carried must fail
        # loudly, not produce a silently corrupt trace.
        path = shard_file(0)
        raw = sqlite3.connect(path)  # FKs off: plant the dangling edge
        raw.execute("INSERT INTO events VALUES (999, 1, 'input', 0.0)")
        raw.commit()
        raw.close()
        with pytest.raises(KeyError):
            append_store(path, MetadataStore())
