"""Golden digests: the loader is pinned map for map.

``load_store`` and ``append_store`` rebuild every map of a
:class:`~repro.mlmd.store.MetadataStore` from a database file. The
corpus below carries every shape a trace can hold: two shards merged
by the fleet, warm-started pipelines, Trainer attempts that failed
under a seeded transient fault plan with their ``retry_of`` chains,
id-valued artifact properties and telemetry rows. Three digests pin
the loader's output:

* every map of ``load_store``'s result, in the maps' own order;
* ``append_store`` of the second shard's file into a store loaded from
  the first shard's, so every database id collides and is remapped: the
  returned ``IdMaps`` and every map of the destination;
* the rows of save → load → save, which must also dump byte for byte
  like the first save.

The digests were computed before the loader read tables as columns; a
change that moves any id, value, order or counter fails here. A
legitimate change of results re-computes them and says why.
"""

import hashlib
import json
import sqlite3

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.journal import shard_db_path
from repro.fleet import generate_corpus_fleet
from repro.mlmd import Artifact, Context, Execution, load_store, save_store
from repro.mlmd.sqlite_store import append_store
from repro.mlmd.types import ExecutionState, TelemetryRecord
from repro.obs.metrics import MetricsRegistry, set_registry

LOAD_GOLDEN = \
    "944b1e14b20c8515e58e7be3d00ad56e11a48d69133faaaa4063d96e684c6553"
APPEND_GOLDEN = \
    "8a662bf936f24f8801bb1e97dcfccae90d588321ecb1c866c76455b69e57b407"
RESAVE_GOLDEN = \
    "21ed4be896fcce77826d323e2980e862d82f425afb8d611060ec23d1b7cd3f44"

_ADJACENCY = ("inputs_of", "outputs_of", "consumers_of", "producers_of",
              "artifacts_in_context", "executions_in_context",
              "contexts_of_artifact", "contexts_of_execution",
              "telemetry_of_execution", "telemetry_of_context")

_TABLES = ("artifacts", "executions", "contexts", "events",
           "attributions", "associations", "telemetry")


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """The journal directory of a 2-shard run: its shard files and the
    merged corpus saved as ``corpus.db``."""
    config = CorpusConfig(n_pipelines=8, seed=17,
                          max_graphlets_per_pipeline=6,
                          max_window_spans=6, warmstart_fraction=0.5)
    plan = FaultPlan.parse("transient:Trainer:0.3;transient:*:0.05",
                           seed=5)
    directory = tmp_path_factory.mktemp("journal")
    # The merged store persists a snapshot of the global registry, so
    # the run gets its own: earlier tests' instruments stay out of it.
    previous = set_registry(MetricsRegistry())
    try:
        corpus, _ = generate_corpus_fleet(
            config, workers=2, in_process=True, telemetry=True,
            fault_plan=plan, retry_policy=RetryPolicy(max_attempts=3),
            journal_dir=directory)
    finally:
        set_registry(previous)
    save_store(corpus.store, directory / "corpus.db")
    for path in (shard_db_path(directory, 0), shard_db_path(directory, 1),
                 directory / "corpus.db"):
        _pin_measurements(path)
    return directory


def _pin_measurements(path):
    """Replace what telemetry measures on this host with values derived
    from the row id: node and run rows carry wall and cpu seconds, and
    the metric rows are a registry snapshot of the run."""
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(
            "SELECT id, kind, name, properties FROM telemetry").fetchall()
        for record_id, kind, name, text in rows:
            properties = json.loads(text)
            properties.pop("cpu_seconds", None)
            if kind == "metric":
                name, properties = "metric", {"row": record_id}
            conn.execute(
                "UPDATE telemetry SET name=?, value=?, properties=?"
                " WHERE id=?", (name, record_id / 4,
                                json.dumps(properties), record_id))
        conn.commit()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def saved(journal):
    return journal / "corpus.db"


def _feed(h, label, value):
    h.update(label.encode())
    h.update(repr(value).encode())
    h.update(b"\n")


def _store_digest(store):
    """One hash over every map of ``store``, in each map's own order."""
    h = hashlib.sha256()
    for label, nodes in (("artifact", store.artifacts_by_id),
                         ("execution", store.executions_by_id),
                         ("context", store.contexts_by_id)):
        for node_id, node in nodes.items():
            assert node.id == node_id
            fields = (node.id, node.type_name, node.name,
                      node.properties)
            if label == "artifact":
                fields += (node.uri, node.state.value, node.create_time)
            elif label == "execution":
                fields += (node.state.value, node.start_time,
                           node.end_time)
            else:
                fields += (node.create_time,)
            _feed(h, label, fields)
    for record_id, t in store.telemetry_by_id.items():
        assert t.id == record_id
        _feed(h, "telemetry", (t.id, t.kind, t.name, t.execution_id,
                               t.context_id, t.value, t.start_time,
                               t.end_time, t.properties))
    _feed(h, "events", [(e.artifact_id, e.execution_id, e.type.value,
                         e.time) for e in store.events])
    for name in _ADJACENCY:
        _feed(h, name, list(getattr(store, name).items()))
    _feed(h, "named_nodes", list(store.named_nodes.items()))
    _feed(h, "version", store.version)
    return h.hexdigest()


def _rows_digest(path):
    """Hash of every table's rows in rowid order, as Python values."""
    h = hashlib.sha256()
    conn = sqlite3.connect(path)
    try:
        for table in _TABLES:
            _feed(h, table, conn.execute(
                f"SELECT * FROM {table} ORDER BY rowid").fetchall())
    finally:
        conn.close()
    return h.hexdigest()


def _dump(path):
    conn = sqlite3.connect(path)
    try:
        return "\n".join(conn.iterdump())
    finally:
        conn.close()


def test_corpus_has_every_shape(saved):
    store = load_store(saved)
    trainers = [e for e in store.get_executions()
                if e.type_name == "Trainer"]
    assert any(e.state is ExecutionState.FAILED for e in trainers)
    assert any("retry_of" in e.properties for e in trainers)
    assert any("source_statistics" in a.properties
               for a in store.get_artifacts())
    assert any("model_artifact" in a.properties
               for a in store.get_artifacts())
    assert store.num_telemetry > 0
    assert len({c.name for c in store.get_contexts()
                if c.type_name == "Pipeline"}) == 8


def test_load_digest(saved):
    assert _store_digest(load_store(saved)) == LOAD_GOLDEN


def test_append_into_occupied_store_digest(journal):
    dest = load_store(shard_db_path(journal, 0))
    maps = append_store(shard_db_path(journal, 1), dest)
    assert all(old != new for old, new in maps.artifacts.items())
    h = hashlib.sha256()
    _feed(h, "artifacts", list(maps.artifacts.items()))
    _feed(h, "executions", list(maps.executions.items()))
    _feed(h, "contexts", list(maps.contexts.items()))
    _feed(h, "rows", maps.rows)
    _feed(h, "store", _store_digest(dest))
    assert h.hexdigest() == APPEND_GOLDEN


def test_save_load_save_is_byte_stable(saved, tmp_path):
    resaved = tmp_path / "resaved.db"
    save_store(load_store(saved), resaved)
    assert _dump(resaved) == _dump(saved)
    assert _rows_digest(resaved) == RESAVE_GOLDEN


def test_loaded_store_continues_every_id_sequence(saved):
    store = load_store(saved)
    assert store.put_artifact(Artifact(type_name="Probe")) == \
        store.num_artifacts
    assert store.put_execution(Execution(type_name="Probe")) == \
        store.num_executions
    assert store.put_context(Context(type_name="Probe")) == \
        len(store.contexts_by_id)
    assert store.put_telemetry(TelemetryRecord(kind="metric",
                                               name="probe")) == \
        store.num_telemetry
