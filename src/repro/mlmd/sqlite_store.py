"""SQLite persistence for metadata traces.

The in-memory :class:`~repro.mlmd.store.MetadataStore` is the one
store; a sqlite file is only its saved form, so corpora can be
generated once and re-analyzed later (the paper's corpus is a durable
MLMD database).

* :func:`save_store` streams each table from the store's maps into
  ``executemany``.
* :func:`append_store` is the one loader: it appends a database's rows
  to a store with every id remapped. :func:`load_store` is that loader
  run on a fresh store; the fleet merges its shard files with it too (a
  shard's ``shard-NNNN.db`` is how its rows travel home), and the query
  client copies a saved database with it. The loader reads each table
  once, as columns: one ``json.loads`` per properties column,
  whole-column type checks, enum and id remaps through dicts, and one
  batch insert into the store's maps, with the cyclic garbage collector
  paused. The loaded store holds each value once where rows repeat it:
  strings are interned, and equal ints in property lists are shared
  through a memo that lives for one load (a pipeline's spans share one
  schema, so their digests repeat the same names and hashes).
* :class:`SqliteStore` is a read-only handle naming a saved database,
  for callers that pass a file where a store is expected: a
  :class:`~repro.query.MetadataClient` over it reads one
  :func:`load_store` copy. Opening it writes nothing to the file.

Property values are stored as JSON; enum states as their string values.

Every connection — reader or writer, happy path or salvage — is opened
through :func:`connect`, which applies the robustness pragmas:

* ``journal_mode=WAL`` so a reader and a writer can overlap without
  "database is locked" errors (fleet workers journal shard databases
  while the driver inspects them);
* ``busy_timeout`` so residual contention waits instead of raising;
* ``foreign_keys=ON`` so the edge tables (events, attributions,
  associations, telemetry) cannot reference rows that don't exist.

For databases that were cut short mid-write (a killed worker, a full
disk), :func:`integrity_check` reports what's wrong without loading,
and :func:`salvage_store` recovers every internally-consistent row: it
is the same loader, dropping and counting each bad row (a dangling
edge, say) where :func:`append_store` raises.
"""

from __future__ import annotations

import gc
import json
import sqlite3
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from collections.abc import Iterator, Sequence

from ..obs.metrics import get_registry
from ..obs.tracing import span
from .errors import AlreadyExistsError
from .store import MetadataStore
from .types import (
    Artifact,
    ArtifactState,
    Context,
    Event,
    EventType,
    Execution,
    ExecutionState,
    TelemetryRecord,
    _ALLOWED_SCALARS,
    validate_properties,
)

#: Milliseconds a connection waits on a locked database before raising.
BUSY_TIMEOUT_MS = 5000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    id INTEGER PRIMARY KEY,
    type_name TEXT NOT NULL,
    name TEXT NOT NULL,
    uri TEXT NOT NULL,
    state TEXT NOT NULL,
    create_time REAL NOT NULL,
    properties TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS executions (
    id INTEGER PRIMARY KEY,
    type_name TEXT NOT NULL,
    name TEXT NOT NULL,
    state TEXT NOT NULL,
    start_time REAL NOT NULL,
    end_time REAL NOT NULL,
    properties TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS contexts (
    id INTEGER PRIMARY KEY,
    type_name TEXT NOT NULL,
    name TEXT NOT NULL,
    create_time REAL NOT NULL,
    properties TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    artifact_id INTEGER NOT NULL REFERENCES artifacts(id),
    execution_id INTEGER NOT NULL REFERENCES executions(id),
    type TEXT NOT NULL,
    time REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS attributions (
    context_id INTEGER NOT NULL REFERENCES contexts(id),
    artifact_id INTEGER NOT NULL REFERENCES artifacts(id)
);
CREATE TABLE IF NOT EXISTS associations (
    context_id INTEGER NOT NULL REFERENCES contexts(id),
    execution_id INTEGER NOT NULL REFERENCES executions(id)
);
CREATE TABLE IF NOT EXISTS telemetry (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    execution_id INTEGER REFERENCES executions(id),
    context_id INTEGER REFERENCES contexts(id),
    value REAL NOT NULL,
    start_time REAL NOT NULL,
    end_time REAL NOT NULL,
    properties TEXT NOT NULL
);
"""

_TABLES = ("artifacts", "executions", "contexts", "events",
           "attributions", "associations", "telemetry")


def connect(path: str | Path) -> sqlite3.Connection:
    """Open ``path`` with the robustness pragmas applied.

    This is the single chokepoint for *every* connection this module
    (and the shard journal) makes: WAL journaling, a busy timeout, and
    foreign-key enforcement are not happy-path options.
    """
    conn = sqlite3.connect(Path(path), timeout=BUSY_TIMEOUT_MS / 1000)
    conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
    conn.execute("PRAGMA journal_mode = WAL")
    conn.execute("PRAGMA foreign_keys = ON")
    conn.execute("PRAGMA synchronous = NORMAL")
    return conn


def save_store(store: MetadataStore, path: str | Path) -> None:
    """Serialize an in-memory store to a SQLite database file.

    Overwrites any prior contents at ``path`` (including stale WAL
    sidecars). The WAL is checkpointed back into the main file before
    closing, so the result is a self-contained single file.
    """
    path = Path(path)
    for stale in (path, Path(str(path) + "-wal"), Path(str(path) + "-shm")):
        if stale.exists():
            stale.unlink()
    registry = get_registry()
    registry.counter("mlmd.save_store_rows").inc(
        store.num_artifacts + store.num_executions + store.num_events
        + store.num_telemetry)
    conn = connect(path)
    with span("mlmd.save_store", path=str(path)), \
            registry.timer("mlmd.save_store_seconds"):
        try:
            _write_all(conn, store)
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        finally:
            conn.close()


def _write_all(conn: sqlite3.Connection, store: MetadataStore) -> None:
    # Each table streams from the store's own maps into executemany,
    # so no table's rows are ever held as one list.
    conn.executescript(_SCHEMA)
    conn.executemany(
        "INSERT INTO artifacts VALUES (?,?,?,?,?,?,?)",
        ((a.id, a.type_name, a.name, a.uri, a.state.value, a.create_time,
          json.dumps(a.properties))
         for a in store.artifacts_by_id.values()))
    conn.executemany(
        "INSERT INTO executions VALUES (?,?,?,?,?,?,?)",
        ((e.id, e.type_name, e.name, e.state.value, e.start_time,
          e.end_time, json.dumps(e.properties))
         for e in store.executions_by_id.values()))
    conn.executemany(
        "INSERT INTO contexts VALUES (?,?,?,?,?)",
        ((c.id, c.type_name, c.name, c.create_time,
          json.dumps(c.properties))
         for c in store.contexts_by_id.values()))
    conn.executemany(
        "INSERT INTO events VALUES (?,?,?,?)",
        ((ev.artifact_id, ev.execution_id, ev.type.value, ev.time)
         for ev in store.events))
    # Memberships go in context-id order, each context's members in the
    # order they were put.
    for table, members in (("attributions", store.artifacts_in_context),
                           ("associations", store.executions_in_context)):
        conn.executemany(
            f"INSERT INTO {table} VALUES (?,?)",
            ((context_id, member)
             for context_id in store.contexts_by_id
             for member in members.get(context_id, ())))
    conn.executemany(
        "INSERT INTO telemetry VALUES (?,?,?,?,?,?,?,?,?)",
        ((t.id, t.kind, t.name, t.execution_id, t.context_id, t.value,
          t.start_time, t.end_time, json.dumps(t.properties))
         for t in store.telemetry_by_id.values()))
    conn.commit()


#: Artifact properties whose value is an artifact id (set by operators:
#: SchemaGen's source_statistics, Pusher's model_artifact). Every load
#: and salvage remaps these alongside the structural edges.
ID_VALUED_ARTIFACT_PROPERTIES = ("source_statistics", "model_artifact")


@dataclass
class IdMaps:
    """Database id → store id per node kind, from one :func:`append_store`."""

    artifacts: dict[int, int] = field(default_factory=dict)
    executions: dict[int, int] = field(default_factory=dict)
    contexts: dict[int, int] = field(default_factory=dict)
    #: Rows the store accepted: nodes, edges and telemetry.
    rows: int = 0


def load_store(path: str | Path) -> MetadataStore:
    """Deserialize a SQLite database file into an in-memory store.

    The rows go into an empty store, so node ids come back exactly as
    saved. A missing ``path`` raises :class:`FileNotFoundError` and
    creates nothing.
    """
    store = MetadataStore()
    with span("mlmd.load_store", path=str(path)), \
            get_registry().timer("mlmd.load_store_seconds"):
        append_store(path, store)
    return store


def append_store(path: str | Path, store: MetadataStore) -> IdMaps:
    """Append every row of the database at ``path`` to ``store``.

    The store assigns fresh ids and every cross-reference is remapped
    through the returned maps: events, context memberships, telemetry
    join keys, ``retry_of`` and :data:`ID_VALUED_ARTIFACT_PROPERTIES`.
    Nodes are read in id order and edges in rowid order, so appending
    contiguous shards in shard order reproduces the ids of a single
    sequential run. Each table is read once, as columns, and checked as
    a whole before anything is written: a property value outside the
    MLMD set raises :class:`TypeMismatchError`, a ``(type, name)`` the
    store already holds raises :class:`AlreadyExistsError`, and a dangling
    reference raises :class:`KeyError`; on any of these the store is
    left as it was. A missing ``path`` raises :class:`FileNotFoundError`
    and creates nothing.
    """
    if not Path(path).exists():
        raise FileNotFoundError(f"no trace database at {path}")
    conn = connect(path)
    try:
        return _append(conn, store, None)
    finally:
        conn.close()


#: Property value types of the MLMD set (a value may also be a list of
#: them); JSON decodes to exactly these types, never to subclasses.
_SCALARS = frozenset(_ALLOWED_SCALARS)
#: The item types of the lists whose items the loader shares.
_STR = frozenset({str})
_INT = frozenset({int})

#: What a bad row raises while it is checked and built: an unknown enum
#: value or dangling id (KeyError), a property outside the MLMD set
#: (TypeMismatchError, a TypeError) or a column of the wrong type
#: (TypeError), properties that are not a JSON object (AttributeError)
#: and a taken name.
_BAD_ROW = (AttributeError, KeyError, TypeError, AlreadyExistsError)

_ARTIFACT_STATES = {state.value: state for state in ArtifactState}
_EXECUTION_STATES = {state.value: state for state in ExecutionState}
_EVENT_TYPES = {kind.value: kind for kind in EventType}


def _artifact(row: tuple, node_id: int, properties: dict) -> Artifact:
    return Artifact(type_name=sys.intern(row[1]), id=node_id, name=row[2],
                    uri=row[3], state=_ARTIFACT_STATES[row[4]],
                    create_time=row[5], properties=properties)


def _execution(row: tuple, node_id: int, properties: dict) -> Execution:
    return Execution(type_name=sys.intern(row[1]), id=node_id, name=row[2],
                     state=_EXECUTION_STATES[row[3]], start_time=row[4],
                     end_time=row[5], properties=properties)


def _context(row: tuple, node_id: int, properties: dict) -> Context:
    return Context(type_name=sys.intern(row[1]), id=node_id, name=row[2],
                   create_time=row[3], properties=properties)


#: Per node table: its kind in ``named_nodes``, the columns it is read
#: with (id first, properties last) and the node built from one row.
_NODE_TABLES = {
    "artifacts": ("artifact", "id, type_name, name, uri, state,"
                  " create_time, properties", _artifact),
    "executions": ("execution", "id, type_name, name, state, start_time,"
                   " end_time, properties", _execution),
    "contexts": ("context", "id, type_name, name, create_time, properties",
                 _context),
}


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring its state after.

    A load allocates containers by the hundred thousand and makes no
    reference cycle among them. Each allocation counts towards the
    collector's thresholds, so a running collector scans the young
    objects over and over and, beside a large resident heap (the fleet
    merge, the query client's copy beside the generated store), the
    whole heap more than once, for nothing to free. Paused, the load
    leaves the new objects to the collector's later passes, in whatever
    allocates after it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def _append(conn: sqlite3.Connection, store: MetadataStore,
            report: SalvageReport | None) -> IdMaps:
    """The one loader behind :func:`append_store` and
    :func:`salvage_store`: read every table, check and remap its rows,
    then write them with one ``MetadataStore._insert_batch``.

    The two callers differ only in what happens to a bad row. With no
    ``report`` (trusted) it raises; with one (salvage) it is dropped and
    counted there, and a dangling id-valued property is stripped from
    its row instead.
    """
    maps = IdMaps()
    map_a, map_e, map_c = maps.artifacts, maps.executions, maps.contexts
    # The memo that shares equal list ints across this load's rows.
    ints: dict[int, int] = {}
    # Ids continue the store's sequences: the n-th kept row of a table
    # gets the store's next id plus n.
    artifacts = _node_rows(conn, "artifacts", store._next_artifact_id,
                           map_a, store, report, ints)
    executions = _node_rows(conn, "executions", store._next_execution_id,
                            map_e, store, report, ints)
    contexts = _node_rows(conn, "contexts", store._next_context_id,
                          map_c, store, report, ints)
    _remap_properties(artifacts, ID_VALUED_ARTIFACT_PROPERTIES, map_a,
                      report)
    # Retry provenance (repro.faults) points at the prior attempt.
    _remap_properties(executions, ("retry_of",), map_e, report)

    # Edge tables have no id column; rowid order is insertion order,
    # which keeps save → load → save byte-stable (shard journals
    # depend on round trips being deterministic).
    events = []
    for row in _rows(conn, "SELECT artifact_id, execution_id, type, time"
                     " FROM events ORDER BY rowid", "events", report):
        try:
            events.append(Event(map_a[row[0]], map_e[row[1]],
                                _EVENT_TYPES[row[2]], row[3]))
        except KeyError as exc:
            _drop(report, "events", exc)
    attributions = _pairs(conn, "attributions", "artifact_id", map_a,
                          map_c, report)
    associations = _pairs(conn, "associations", "execution_id", map_e,
                          map_c, report)
    telemetry = []
    rows = list(_rows(conn, "SELECT kind, name, execution_id,"
                      " context_id, value, start_time, end_time,"
                      " properties FROM telemetry ORDER BY id",
                      "telemetry", report))
    next_id = store._next_telemetry_id
    for row, properties in zip(rows, _decode_column(rows, report)):
        try:
            telemetry.append(TelemetryRecord(
                kind=sys.intern(row[0]), name=sys.intern(row[1]),
                id=next_id + len(telemetry),
                execution_id=None if row[2] is None else map_e[row[2]],
                context_id=None if row[3] is None else map_c[row[3]],
                value=row[4], start_time=row[5], end_time=row[6],
                properties=_checked(properties, ints)))
        except _BAD_ROW as exc:
            _drop(report, "telemetry", exc)

    tables = {"artifacts": artifacts, "executions": executions,
              "contexts": contexts, "events": events,
              "attributions": attributions, "associations": associations,
              "telemetry": telemetry}
    store._insert_batch(**tables)
    maps.rows = sum(map(len, tables.values()))
    if report is not None:
        report.rows_loaded.update(
            {table: len(kept) for table, kept in tables.items() if kept})
    return maps


def _drop(report: SalvageReport | None, table: str,
          exc: Exception) -> None:
    """A bad row: raise ``exc`` on the trusted path, count it when
    salvaging."""
    if report is None:
        raise exc
    report.rows_dropped[table] = report.rows_dropped.get(table, 0) + 1


def _rows(conn: sqlite3.Connection, sql: str, table: str,
          report: SalvageReport | None) -> Iterator[tuple]:
    """The rows of one query, streamed from the cursor, so an edge table
    is never held whole. Salvage keeps the rows read before a storage
    error and records the error; the trusted path raises it, except for
    a missing telemetry table (databases written before it existed)."""
    try:
        yield from conn.execute(sql)
    except sqlite3.Error as exc:
        if report is not None:
            report.errors.append(f"{table}: {type(exc).__name__}: {exc}")
        elif table != "telemetry" \
                or not isinstance(exc, sqlite3.OperationalError):
            raise


def _decode_column(rows: list[tuple], report: SalvageReport | None
                   ) -> list:
    """The properties (last) column of ``rows``, decoded as one JSON
    array.

    One ``json.loads`` over the whole column lets the scanner share each
    key string across rows. If the column does not decode to one value
    per row, each row is decoded alone: the trusted path then raises
    the bad row's own error, salvage gets ``None`` for it.
    """
    texts = [row[-1] for row in rows]
    try:
        column = json.loads("[" + ",".join(texts) + "]")
        if len(column) == len(texts):
            return column
    except (TypeError, ValueError):
        pass
    column = []
    for text in texts:
        try:
            column.append(json.loads(text))
        except (TypeError, ValueError):
            if report is None:
                raise
            column.append(None)
    return column


def _checked(properties: dict, ints: dict[int, int]) -> dict:
    """``properties`` with its strings interned and its list items
    shared.

    The items of a list of strings are interned like scalar strings. In
    a list whose items are all exactly ``int``, each item is replaced by
    the first equal int that ``ints`` (one load's memo) holds, so equal
    items across rows are one object. A list of any other make-up is
    left as decoded: ``True``, ``1`` and ``1.0`` are equal and hash
    alike, so a bool or float let into the memo would come back as
    another type, and ``0.0 == -0.0``. Items are shared only once the
    whole list has passed the MLMD type check.

    A value outside the MLMD set sends the row to
    :func:`~repro.mlmd.types.validate_properties`, which raises
    :class:`~repro.mlmd.errors.TypeMismatchError`; a row that is not a
    JSON object fails on ``items``.
    """
    for key, value in properties.items():
        kind = type(value)
        if kind is str:
            properties[key] = sys.intern(value)
        elif kind is list:
            kinds = set(map(type, value))
            if not _SCALARS.issuperset(kinds):
                validate_properties(properties)
            if kinds == _STR:
                value[:] = map(sys.intern, value)
            elif kinds == _INT:
                value[:] = map(ints.setdefault, value, value)
        elif kind not in _SCALARS:
            validate_properties(properties)
    return properties


def _node_rows(conn: sqlite3.Connection, table: str, first_id: int,
               id_map: dict[int, int], store: MetadataStore,
               report: SalvageReport | None, ints: dict[int, int]) -> list:
    """The nodes of a node table's rows that pass every check, in id
    order, with ids counted from ``first_id`` and entered in
    ``id_map``."""
    kind, columns, make = _NODE_TABLES[table]
    rows = list(_rows(conn, f"SELECT {columns} FROM {table} ORDER BY id",
                      table, report))
    named = store.named_nodes
    seen: set[tuple[str, str, str]] = set()
    nodes: list = []
    for row, properties in zip(rows, _decode_column(rows, report)):
        try:
            node = make(row, first_id + len(nodes),
                        _checked(properties, ints))
            if node.name:
                key = (kind, node.type_name, node.name)
                if key in named or key in seen:
                    raise AlreadyExistsError(
                        f"{kind} {node.type_name}/{node.name} exists")
                seen.add(key)
        except _BAD_ROW as exc:
            _drop(report, table, exc)
            continue
        id_map[row[0]] = node.id
        nodes.append(node)
    return nodes


def _remap_properties(nodes: list, keys: Sequence[str],
                      id_map: dict[int, int],
                      report: SalvageReport | None) -> None:
    """Remap id-valued properties through ``id_map``; a value with no
    entry raises :class:`KeyError`, or is stripped when salvaging."""
    for node in nodes:
        properties = node.properties
        for key in keys:
            if key in properties:
                try:
                    properties[key] = id_map[int(properties[key])]
                except (KeyError, TypeError, ValueError):
                    if report is None:
                        raise
                    del properties[key]


def _pairs(conn: sqlite3.Connection, table: str, member: str,
           member_map: dict[int, int], context_map: dict[int, int],
           report: SalvageReport | None) -> list[tuple[int, int]]:
    """A membership table's (context id, member id) pairs, remapped."""
    pairs = []
    for row in _rows(conn, f"SELECT context_id, {member} FROM {table}"
                     " ORDER BY rowid", table, report):
        try:
            pairs.append((context_map[row[0]], member_map[row[1]]))
        except KeyError as exc:
            _drop(report, table, exc)
    return pairs


# --------------------------------------------------- integrity / salvage


@dataclass
class IntegrityReport:
    """What :func:`integrity_check` found in one database file."""

    path: str
    ok: bool = True
    errors: list[str] = field(default_factory=list)
    missing_tables: list[str] = field(default_factory=list)
    dangling: dict[str, int] = field(default_factory=dict)
    row_counts: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line verdict for logs and CLI output."""
        if self.ok:
            rows = sum(self.row_counts.values())
            return f"{self.path}: ok ({rows:,} rows)"
        problems = list(self.errors)
        problems += [f"missing table {t}" for t in self.missing_tables]
        problems += [f"{n} dangling rows in {t}"
                     for t, n in self.dangling.items()]
        return f"{self.path}: " + "; ".join(problems)


def integrity_check(path: str | Path) -> IntegrityReport:
    """Inspect a trace database without loading it.

    Runs sqlite's ``integrity_check`` and ``foreign_key_check`` plus a
    schema presence check, and reports per-table row counts. Never
    raises on a corrupt file — corruption is the expected input here.
    """
    report = IntegrityReport(path=str(path))
    if not Path(path).exists():
        report.ok = False
        report.errors.append("file does not exist")
        return report
    try:
        conn = connect(path)
    except sqlite3.Error as exc:
        report.ok = False
        report.errors.append(f"unopenable: {exc}")
        return report
    try:
        rows = conn.execute("PRAGMA integrity_check").fetchall()
        verdicts = [str(r[0]) for r in rows]
        if verdicts != ["ok"]:
            report.ok = False
            report.errors.extend(verdicts[:5])
        present = {r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        for table in _TABLES:
            if table not in present:
                report.ok = False
                report.missing_tables.append(table)
                continue
            report.row_counts[table] = conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        for row in conn.execute("PRAGMA foreign_key_check"):
            table = str(row[0])
            report.dangling[table] = report.dangling.get(table, 0) + 1
            report.ok = False
    except sqlite3.DatabaseError as exc:
        report.ok = False
        report.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        conn.close()
    return report


@dataclass
class SalvageReport:
    """What :func:`salvage_store` kept and what it had to drop."""

    path: str
    rows_loaded: dict[str, int] = field(default_factory=dict)
    rows_dropped: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def salvage_store(path: str | Path) -> tuple[MetadataStore, SalvageReport]:
    """Best-effort load of a damaged or partially written database.

    The same loader as :func:`load_store`, with the salvage policy: a
    row that fails a check (a malformed property, a taken name, an edge
    or telemetry key referencing a node that didn't survive) is dropped
    and counted instead of raising, and a dangling id-valued property
    is stripped from its row. A table that cannot be read keeps the rows
    read before the error. The result is always an internally
    consistent store — possibly smaller than the original, never
    inconsistent. A missing ``path`` yields an empty store whose report
    says ``file does not exist``; nothing is created there.
    """
    report = SalvageReport(path=str(path))
    store = MetadataStore()
    if not Path(path).exists():
        report.errors.append("file does not exist")
        return store, report
    try:
        conn = connect(path)
    except sqlite3.Error as exc:
        report.errors.append(f"unopenable: {exc}")
        return store, report
    try:
        _append(conn, store, report)
    finally:
        conn.close()
    return store, report


# ------------------------------------------------------------- handle


class SqliteStore:
    """A read-only handle on a database :func:`save_store` wrote.

    It names the file and does nothing else: a
    :class:`~repro.query.MetadataClient` built over it reads one
    :func:`load_store` copy, which nothing writes. A missing ``path``
    raises :class:`FileNotFoundError` and creates nothing; opening and
    closing write nothing to the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(f"no trace database at {path}")

    def close(self) -> None:
        """Nothing to release: the handle holds no connection."""

    def __enter__(self) -> SqliteStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
