"""SQLite round-trip, concurrency, integrity, and salvage tests."""

import gc
import hashlib
import sqlite3
import threading

import pytest

from repro.mlmd import (
    AlreadyExistsError,
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    ExecutionState,
    MetadataStore,
    SqliteStore,
    integrity_check,
    load_store,
    salvage_store,
    save_store,
)
from repro.mlmd.sqlite_store import append_store, connect
from repro.mlmd.types import TelemetryRecord
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.query import MetadataClient


@pytest.fixture()
def populated_store():
    store = MetadataStore()
    context_id = store.put_context(Context(type_name="Pipeline", name="p",
                                           properties={"team": "ads"}))
    span_id = store.put_artifact(Artifact(
        type_name="DataSpan", name="s1", uri="/data/s1", create_time=3.0,
        properties={"span_id": 1, "digest_hashes": [4, -2]}))
    run_id = store.put_execution(Execution(
        type_name="Trainer", state=ExecutionState.COMPLETE,
        start_time=3.0, end_time=5.5,
        properties={"cpu_hours": 7.25, "group": "training"}))
    store.put_event(Event(span_id, run_id, EventType.INPUT, time=3.0))
    model_id = store.put_artifact(Artifact(type_name="Model",
                                           create_time=5.5))
    store.put_event(Event(model_id, run_id, EventType.OUTPUT, time=5.5))
    store.put_attribution(context_id, span_id)
    store.put_attribution(context_id, model_id)
    store.put_association(context_id, run_id)
    return store


class TestRoundTrip:
    def test_counts_preserved(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        loaded = load_store(path)
        assert loaded.num_artifacts == populated_store.num_artifacts
        assert loaded.num_executions == populated_store.num_executions
        assert loaded.num_events == populated_store.num_events

    def test_properties_preserved(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        loaded = load_store(path)
        span = loaded.get_artifact_by_name("DataSpan", "s1")
        assert span.get("digest_hashes") == [4, -2]
        assert span.uri == "/data/s1"

    def test_execution_state_and_times(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        loaded = load_store(path)
        trainer = next(e for e in loaded.get_executions()
                       if e.type_name == "Trainer")
        assert trainer.state is ExecutionState.COMPLETE
        assert trainer.duration == pytest.approx(2.5)
        assert trainer.get("cpu_hours") == pytest.approx(7.25)

    def test_lineage_preserved(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        loaded = load_store(path)
        trainer = next(e for e in loaded.get_executions()
                       if e.type_name == "Trainer")
        inputs = loaded.get_input_artifacts(trainer.id)
        outputs = loaded.get_output_artifacts(trainer.id)
        assert [a.type_name for a in inputs] == ["DataSpan"]
        assert [a.type_name for a in outputs] == ["Model"]

    def test_context_membership_preserved(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        loaded = load_store(path)
        context = next(c for c in loaded.get_contexts()
                       if c.type_name == "Pipeline")
        assert context.get("team") == "ads" or \
            context.properties.get("team") == "ads"
        assert len(loaded.get_artifacts_by_context(context.id)) == 2
        assert len(loaded.get_executions_by_context(context.id)) == 1

    def test_overwrites_existing_file(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        save_store(MetadataStore(), path)
        assert load_store(path).num_artifacts == 0

    def test_retry_of_round_trips(self, tmp_path):
        store = MetadataStore()
        first = store.put_execution(Execution(
            type_name="Trainer", state=ExecutionState.FAILED,
            properties={"failure_kind": "transient"}))
        store.put_execution(Execution(
            type_name="Trainer", state=ExecutionState.COMPLETE,
            properties={"attempt": 2, "retry_of": first}))
        path = tmp_path / "trace.db"
        save_store(store, path)
        loaded = load_store(path)
        failed, final = [e for e in loaded.get_executions()
                         if e.type_name == "Trainer"]
        assert final.get("retry_of") == failed.id


def _linked_store(tag):
    """A fully linked trace carrying every id-valued reference: events,
    context memberships, telemetry join keys, ``retry_of`` and the
    id-valued artifact properties."""
    store = MetadataStore()
    context = store.put_context(Context(type_name="Pipeline",
                                        name=f"pipeline-{tag}"))
    span = store.put_artifact(Artifact(type_name="DataSpan",
                                       properties={"span_id": tag}))
    stats = store.put_artifact(Artifact(type_name="ExampleStatistics"))
    schema = store.put_artifact(Artifact(
        type_name="Schema", properties={"source_statistics": stats}))
    failed = store.put_execution(Execution(
        type_name="Trainer", state=ExecutionState.FAILED))
    trainer = store.put_execution(Execution(
        type_name="Trainer", state=ExecutionState.COMPLETE,
        properties={"attempt": 2, "retry_of": failed}))
    model = store.put_artifact(Artifact(type_name="Model"))
    pushed = store.put_artifact(Artifact(
        type_name="PushedModel", properties={"model_artifact": model}))
    store.put_event(Event(span, trainer, EventType.INPUT))
    store.put_event(Event(schema, trainer, EventType.INPUT))
    store.put_event(Event(model, trainer, EventType.OUTPUT))
    for artifact_id in (span, stats, schema, model, pushed):
        store.put_attribution(context, artifact_id)
    for execution_id in (failed, trainer):
        store.put_association(context, execution_id)
    store.put_telemetry(TelemetryRecord(
        kind="node", name="Trainer", execution_id=trainer,
        context_id=context, value=1.0))
    return store


class TestAppendStore:
    """The one loader: a database's rows appended to a given store."""

    def _appended(self, tmp_path):
        save_store(_linked_store(1), tmp_path / "second.db")
        dest = _linked_store(0)
        maps = append_store(tmp_path / "second.db", dest)
        return dest, maps

    def test_every_id_remapped_into_occupied_store(self, tmp_path):
        dest, maps = self._appended(tmp_path)
        assert dest.num_artifacts == 10 and dest.num_executions == 4
        # Every database id collided with a row already in the store.
        assert all(new == old + 5 for old, new in maps.artifacts.items())
        assert all(new == old + 2 for old, new in maps.executions.items())
        assert maps.contexts == {1: 2}
        # 5 artifacts + 2 executions + 1 context + 3 events
        # + 5 attributions + 2 associations + 1 telemetry row.
        assert maps.rows == 19

    def test_edges_and_telemetry_follow_the_maps(self, tmp_path):
        dest, maps = self._appended(tmp_path)
        trainer = maps.executions[2]
        assert [a.get("span_id") for a in dest.get_input_artifacts(trainer)
                if a.type_name == "DataSpan"] == [1]
        assert [a.id for a in dest.get_output_artifacts(trainer)] == \
            [maps.artifacts[4]]
        context = maps.contexts[1]
        assert {a.id for a in dest.get_artifacts_by_context(context)} == \
            set(maps.artifacts.values())
        assert {e.id for e in dest.get_executions_by_context(context)} == \
            set(maps.executions.values())
        latest = dest.get_telemetry()[-1]
        assert (latest.execution_id, latest.context_id) == (trainer, context)

    def test_id_valued_properties_remapped(self, tmp_path):
        dest, maps = self._appended(tmp_path)
        by_type = {}
        for artifact in dest.get_artifacts():
            by_type.setdefault(artifact.type_name, []).append(artifact)
        assert [a.get("source_statistics") for a in by_type["Schema"]] \
            == [2, maps.artifacts[2]]
        assert [a.get("model_artifact") for a in by_type["PushedModel"]] \
            == [4, maps.artifacts[4]]
        retries = [e.get("retry_of") for e in dest.get_executions()
                   if e.get("retry_of") is not None]
        assert retries == [1, maps.executions[1]]

    def test_collector_state_restored(self, tmp_path):
        # The loader pauses the cyclic collector while it runs; a load,
        # a failed load and a salvage leave it as they found it.
        path = tmp_path / "trace.db"
        save_store(_linked_store(0), path)
        assert gc.isenabled()
        load_store(path)
        assert gc.isenabled()
        with pytest.raises(AlreadyExistsError):
            append_store(path, _linked_store(0))
        assert gc.isenabled()
        gc.disable()
        try:
            salvage_store(path)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_missing_file_raises_and_creates_nothing(self, tmp_path):
        path = tmp_path / "typo.db"
        with pytest.raises(FileNotFoundError):
            load_store(path)
        with pytest.raises(FileNotFoundError):
            append_store(path, MetadataStore())
        assert not path.exists()


class TestHandle:
    """A :class:`SqliteStore` only names a saved database: opening it,
    reading it through a client and closing it write nothing."""

    def test_missing_file_raises_and_creates_nothing(self, tmp_path):
        path = tmp_path / "typo.db"
        with pytest.raises(FileNotFoundError):
            SqliteStore(path)
        assert list(tmp_path.iterdir()) == []

    def test_open_read_close_leaves_file_unchanged(self, populated_store,
                                                  tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        with SqliteStore(path) as handle:
            client = MetadataClient(handle)
            assert client.num_artifacts == populated_store.num_artifacts
            assert [e.id for e in client.executions("Trainer")] \
                == [e.id for e in populated_store.get_executions()]
            assert client.get_events() == populated_store.get_events()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before
        assert list(tmp_path.iterdir()) == [path]


#: Rows of ``_linked_store(1)`` saved to a file, per table.
_LINKED_ROWS = {"artifacts": 5, "executions": 2, "contexts": 1,
                "events": 3, "attributions": 5, "associations": 2,
                "telemetry": 1}

#: One planted row per check the loader keeps, against a saved
#: ``_linked_store(1)``: (its table, its values, what loading raises,
#: whether salvage drops it). Salvage keeps a row whose id-valued
#: property dangles and strips the stale pointer instead.
_PLANTED = {
    "null_property": (
        "artifacts", "(6, 'Blob', '', '', 'live', 0.0, '{\"bad\": null}')",
        TypeError, True),
    "object_property": (
        "executions",
        "(3, 'Trainer', '', 'complete', 0.0, 0.0, '{\"bad\": {\"a\": 1}}')",
        TypeError, True),
    "nested_list_property": (
        "contexts", "(2, 'Pipeline', '', 0.0, '{\"bad\": [[1]]}')",
        TypeError, True),
    "telemetry_null_property": (
        "telemetry",
        "(2, 'node', 'x', NULL, NULL, 0.0, 0.0, 0.0, '{\"bad\": null}')",
        TypeError, True),
    "duplicate_name": (
        "contexts", "(2, 'Pipeline', 'pipeline-1', 0.0, '{}')",
        AlreadyExistsError, True),
    "dangling_event": (
        "events", "(999, 1, 'input', 0.0)", KeyError, True),
    "dangling_attribution": (
        "attributions", "(1, 999)", KeyError, True),
    "dangling_association": (
        "associations", "(999, 1)", KeyError, True),
    "dangling_telemetry_execution": (
        "telemetry", "(2, 'node', 'x', 999, NULL, 0.0, 0.0, 0.0, '{}')",
        KeyError, True),
    "dangling_telemetry_context": (
        "telemetry", "(2, 'node', 'x', NULL, 999, 0.0, 0.0, 0.0, '{}')",
        KeyError, True),
    "dangling_retry_of": (
        "executions",
        "(3, 'Trainer', '', 'complete', 0.0, 0.0,"
        " '{\"attempt\": 2, \"retry_of\": 999}')",
        KeyError, False),
    "dangling_source_statistics": (
        "artifacts",
        "(6, 'Schema', '', '', 'live', 0.0,"
        " '{\"version\": 1, \"source_statistics\": 999}')",
        KeyError, False),
}


@pytest.fixture(params=sorted(_PLANTED))
def planted(request, tmp_path):
    """A saved ``_linked_store(1)`` with one bad row planted behind the
    foreign keys' back: (path, table, expected error, dropped)."""
    table, values, error, dropped = _PLANTED[request.param]
    path = tmp_path / "planted.db"
    save_store(_linked_store(1), path)
    raw = sqlite3.connect(path)  # FKs off
    raw.execute(f"INSERT INTO {table} VALUES {values}")
    raw.commit()
    raw.close()
    return path, table, error, dropped


class TestLoaderChecks:
    """Every check the loader keeps, on the trusted and salvage paths."""

    def test_load_store_raises(self, planted):
        path, _, error, _ = planted
        with pytest.raises(error):
            load_store(path)

    def test_append_store_raises_before_writing(self, planted):
        path, _, error, _ = planted
        dest = _linked_store(0)
        version = dest.version
        with pytest.raises(error):
            append_store(path, dest)
        # Every row is checked before the first one is written.
        assert dest.version == version
        assert (dest.num_artifacts, dest.num_executions, dest.num_events,
                len(dest.contexts_by_id), dest.num_telemetry,
                len(dest.named_nodes)) == (5, 2, 3, 1, 1, 1)

    def test_salvage_drops_exactly_the_planted_row(self, planted):
        path, table, _, dropped = planted
        store, report = salvage_store(path)
        loaded = dict(_LINKED_ROWS)
        if dropped:
            assert report.rows_dropped == {table: 1}
        else:
            assert report.rows_dropped == {}
            loaded[table] += 1
            # The row stays; its stale pointer does not.
            kept = (store.get_executions() if table == "executions"
                    else store.get_artifacts())[-1]
            assert set(kept.properties) in ({"attempt"}, {"version"})
        assert report.rows_loaded == loaded
        assert (store.num_artifacts, store.num_executions,
                store.num_events, store.num_telemetry) == (
            loaded["artifacts"], loaded["executions"], loaded["events"],
            loaded["telemetry"])

    def test_name_taken_in_destination_raises(self, tmp_path):
        path = tmp_path / "same.db"
        save_store(_linked_store(0), path)
        with pytest.raises(AlreadyExistsError):
            append_store(path, _linked_store(0))


class TestOpCounters:
    def test_load_counts_one_put_per_row(self, tmp_path):
        # --metrics-out after a load reports one mlmd.ops{op=put_*}
        # per row of each table, as if every row had been put.
        path = tmp_path / "trace.db"
        save_store(_linked_store(1), path)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            load_store(path)
        finally:
            set_registry(previous)
        ops = {record["labels"]["op"]: record["value"]
               for record in registry.snapshot()
               if record["name"] == "mlmd.ops" and record["value"]}
        assert ops == {
            "put_artifact": 5, "put_execution": 2, "put_context": 1,
            "put_event": 3, "put_attribution": 5, "put_association": 2,
            "put_telemetry": 1}


class TestConnectionPragmas:
    """Satellite (c): every connection gets WAL, busy_timeout, FKs."""

    def test_pragmas_applied(self, tmp_path):
        conn = connect(tmp_path / "x.db")
        try:
            assert conn.execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute(
                "PRAGMA busy_timeout").fetchone()[0] == 5000
            assert conn.execute(
                "PRAGMA foreign_keys").fetchone()[0] == 1
        finally:
            conn.close()

    def test_foreign_keys_enforced(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        conn = connect(path)
        try:
            with pytest.raises(sqlite3.IntegrityError):
                conn.execute(
                    "INSERT INTO events VALUES (9999, 9999, 'input', 0.0)")
        finally:
            conn.close()

    def test_concurrent_reader_and_writer(self, populated_store,
                                          tmp_path):
        # The regression this guards: rollback-journal connections raise
        # "database is locked" the moment a reader overlaps a writer.
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        errors = []
        stop = threading.Event()

        def read_loop():
            conn = connect(path)
            try:
                while not stop.is_set():
                    conn.execute(
                        "SELECT COUNT(*) FROM artifacts").fetchone()
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)
            finally:
                conn.close()

        reader = threading.Thread(target=read_loop)
        reader.start()
        writer = connect(path)
        try:
            for index in range(300):
                writer.execute(
                    "INSERT INTO artifacts VALUES (?,?,?,?,?,?,?)",
                    (1000 + index, "Blob", f"b{index}", "", "live",
                     0.0, "{}"))
                writer.commit()
        except Exception as exc:  # pragma: no cover - the failure
            errors.append(exc)
        finally:
            stop.set()
            reader.join()
            writer.close()
        assert errors == []

    def test_save_is_self_contained(self, populated_store, tmp_path):
        # The WAL is checkpointed into the main file on save: copying
        # just the .db (as the shard journal does) loses nothing.
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        wal = tmp_path / "trace.db-wal"
        assert not wal.exists() or wal.stat().st_size == 0


class TestIntegrityCheck:
    def test_healthy_database(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        report = integrity_check(path)
        assert report.ok
        assert report.row_counts["artifacts"] == 2
        assert report.row_counts["executions"] == 1
        assert "ok" in report.summary()

    def test_missing_file(self, tmp_path):
        report = integrity_check(tmp_path / "nope.db")
        assert not report.ok
        assert "does not exist" in report.summary()

    def test_truncated_file_reported_not_raised(self, populated_store,
                                                tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        report = integrity_check(path)
        assert not report.ok
        assert report.errors or report.missing_tables

    def test_dangling_edges_detected(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        # Plant a dangling event behind enforcement's back.
        raw = sqlite3.connect(path)
        raw.execute("INSERT INTO events VALUES (9999, 9999, 'input', 0.0)")
        raw.commit()
        raw.close()
        report = integrity_check(path)
        assert not report.ok
        # One row per violated FK: the planted event breaks both its
        # artifact and execution references.
        assert report.dangling.get("events") == 2


class TestSalvage:
    def _damaged_db(self, populated_store, tmp_path):
        path = tmp_path / "trace.db"
        save_store(populated_store, path)
        raw = sqlite3.connect(path)  # FKs off: simulate torn writes
        raw.execute("DELETE FROM artifacts WHERE type_name = 'Model'")
        raw.execute("INSERT INTO events VALUES (9999, 9999, 'input', 0.0)")
        raw.commit()
        raw.close()
        return path

    def test_salvage_drops_dangling_keeps_rest(self, populated_store,
                                               tmp_path):
        path = self._damaged_db(populated_store, tmp_path)
        store, report = salvage_store(path)
        # The Model artifact is gone, so its OUTPUT event and
        # attribution drop; the planted dangling event drops too.
        assert report.rows_loaded["artifacts"] == 1
        assert report.rows_dropped["events"] == 2
        assert report.rows_dropped["attributions"] == 1
        assert sum(report.rows_dropped.values()) == 3
        # What survived is internally consistent.
        execution_ids = {e.id for e in store.get_executions()}
        artifact_ids = {a.id for a in store.get_artifacts()}
        for event in store.get_events():
            assert event.execution_id in execution_ids
            assert event.artifact_id in artifact_ids

    def test_salvage_unopenable_returns_empty(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"not a database at all" * 100)
        store, report = salvage_store(path)
        assert store.num_artifacts == 0
        assert report.errors

    def test_salvage_missing_file_reports_and_creates_nothing(self,
                                                              tmp_path):
        path = tmp_path / "typo.db"
        store, report = salvage_store(path)
        assert store.num_artifacts == 0
        assert report.errors == ["file does not exist"]
        assert not path.exists()

    def test_salvage_drops_dangling_retry_of(self, tmp_path):
        store = MetadataStore()
        first = store.put_execution(Execution(
            type_name="Trainer", state=ExecutionState.FAILED))
        store.put_execution(Execution(
            type_name="Trainer", state=ExecutionState.COMPLETE,
            properties={"attempt": 2, "retry_of": first}))
        path = tmp_path / "trace.db"
        save_store(store, path)
        raw = sqlite3.connect(path)
        raw.execute("DELETE FROM executions WHERE state = 'failed'")
        raw.commit()
        raw.close()
        salvaged, _ = salvage_store(path)
        survivor = next(e for e in salvaged.get_executions()
                        if e.type_name == "Trainer")
        # The chain head is gone; the stale pointer must not survive.
        assert survivor.get("retry_of") is None
        assert survivor.get("attempt") == 2
