"""Per-shard journal: crash-safe, resumable fleet generation.

A fleet run with an output path ``corpus.db`` journals under
``corpus.db.shards/``::

    manifest.json            run fingerprint + shard layout (written first)
    shard-0002.db            the shard's trace store (sqlite, worker-written)
    shard-0002.tallies.json  pipeline records + tallies (worker-written)
    shard-0002.json          outcome entry (driver-written after the fact)
    shard-0002.spans.jsonl   the shard's trace spans (when tracing is on)
    shard-0002.status.json   live heartbeat (:mod:`repro.obs.fleetwatch`)
    degradation.json         the DegradationReport of a partial run

Every attempt of a shard writes these same names. Workers persist
their payload (``.db`` + ``.tallies.json``) the moment a shard
finishes; the driver records the outcome entry as each result (or
failure) lands. ``shard-NNNN.db`` is both the shard's transport and
its payload: the driver merges every shard from that file, in the
same run and on resume alike, while the result pipe carries only what
``.tallies.json`` holds. That file keeps each pipeline record as plain
ints; a record's archetype is a pure function of the corpus seed and
the pipeline's global index, so resume re-samples it instead of
storing it. A multi-shard run without a journal directory still
journals, into a private temporary directory it removes on return. A
later ``--resume`` run re-simulates only shards without a ``done``
entry and merges every shard file in shard order — reproducing the
exact store a fault-free run would have produced. The manifest
fingerprint covers the corpus config, shard layout, cache/telemetry
switches, fault plan, and retry policy; resuming with any of those
changed is refused rather than silently mixing incompatible shards.

All writes go through a temp-file + ``os.replace`` so a killed driver
or worker never leaves a half-written journal file behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..mlmd.sqlite_store import save_store
from ..mlmd.store import MetadataStore

__all__ = ["JournalError", "ShardEntry", "ShardJournal",
           "config_fingerprint", "degradation_path", "journal_dir_for",
           "shard_db_path", "spans_path", "write_shard_payload"]

MANIFEST = "manifest.json"
#: Bumped whenever the payload/extras schema changes; the fingerprint
#: covers it, so ``--resume`` refuses a journal from an older layout
#: instead of loading a half-compatible payload. v2: per-shard instrument
#: state records + phase timings replaced the counter-only tallies.
#: v3: attempt-versioned outcome entries (``attempt`` /
#: ``rescheduled_from`` / per-attempt ``history``) plus a
#: ``quarantined`` status for the supervisor — entries from older
#: journals still *parse* (missing fields default), but payload resume
#: across versions stays refused via the fingerprint. v4: the extras
#: no longer carry ``snapshot_bytes`` (the driver measures the shard
#: file it merges). v5: the extras are JSON (``.tallies.json``, was a
#: pickle) and keep no archetypes; resume re-samples them.
JOURNAL_VERSION = 5


class JournalError(RuntimeError):
    """A journal cannot be (re)used: missing, stale, or mismatched."""


def journal_dir_for(out_path: str | Path) -> Path:
    """Where a run writing ``out_path`` keeps its shard journal."""
    return Path(str(out_path) + ".shards")


def config_fingerprint(config, shards, *, exec_cache: bool = False,
                       telemetry: bool = False, fault_plan=None,
                       retry_policy=None) -> str:
    """Digest of everything that must match for shards to be reusable."""
    doc = {
        "version": JOURNAL_VERSION,
        "config": repr(config),
        "shards": [(s.shard_index, s.start, s.stop) for s in shards],
        "exec_cache": bool(exec_cache),
        "telemetry": bool(telemetry),
        "fault_plan": fault_plan.to_json() if fault_plan is not None
        else "",
        "retry_policy": repr(retry_policy) if retry_policy is not None
        else "",
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _stem(shard_index: int) -> str:
    return f"shard-{shard_index:04d}"


#: The :class:`~repro.corpus.generator.PipelineRecord` fields a shard's
#: tallies keep per pipeline; the archetype is re-sampled on load.
_RECORD_FIELDS = ("context_id", "n_runs", "n_train_runs", "n_models",
                  "n_pushes")


def _tallies_path(directory: str | Path, shard_index: int) -> Path:
    return Path(directory) / (_stem(shard_index) + ".tallies.json")


def shard_db_path(directory: str | Path, shard_index: int) -> Path:
    """Where a shard's trace store lives inside the journal dir."""
    return Path(directory) / (_stem(shard_index) + ".db")


def spans_path(directory: str | Path, shard_index: int) -> Path:
    """Where a shard's trace spans live inside the journal dir."""
    return Path(directory) / (_stem(shard_index) + ".spans.jsonl")


def degradation_path(directory: str | Path) -> Path:
    """Where a partial run's DegradationReport lives in the journal."""
    return Path(directory) / "degradation.json"


def write_shard_payload(directory: str | Path, shard_index: int,
                        store: MetadataStore, extras: dict) -> None:
    """Persist a finished shard's store + tallies (worker side).

    ``extras`` must be JSON-safe apart from its ``records``, which are
    written as their :data:`_RECORD_FIELDS`. The sqlite file is written
    to a temp name and renamed into place, so a crash mid-write leaves
    no plausible-but-truncated payload.
    """
    db_path = shard_db_path(directory, shard_index)
    db_tmp = db_path.with_name(db_path.name + ".tmp")
    save_store(store, db_tmp)
    os.replace(db_tmp, db_path)
    records = [{name: int(getattr(record, name)) for name in _RECORD_FIELDS}
               for record in extras.get("records", ())]
    _atomic_write(_tallies_path(directory, shard_index),
                  json.dumps({**extras, "records": records}).encode())


@dataclass
class ShardEntry:
    """One shard's journaled outcome, versioned by attempt.

    ``attempt`` is the 1-based attempt that produced the recorded
    outcome; ``rescheduled_from`` is the attempt it superseded (0 when
    the first attempt sufficed); ``history`` keeps one dict per failed
    attempt (``{"attempt", "failure_kind", "message"}``) so a merged
    store's provenance survives even after the shard finally succeeds.
    """

    shard_index: int
    start: int
    stop: int
    status: str = "pending"  # pending | done | failed | quarantined
    crashes: int = 0
    error_kind: str = ""
    error_message: str = ""
    attempt: int = 1
    rescheduled_from: int = 0
    history: list = field(default_factory=list)


#: Fields a journaled entry may carry; unknown keys (from a future
#: version) are dropped and missing keys (from an older version)
#: default — the v2 -> v3 "back-compat load" contract.
_ENTRY_FIELDS = frozenset(f.name for f in fields(ShardEntry))


class ShardJournal:
    """Driver-side view of one run's journal directory."""

    def __init__(self, directory: str | Path, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.entries: dict[int, ShardEntry] = {}

    # -------------------------------------------------------- lifecycle

    def open(self, shards, resume: bool = False,
             meta: dict | None = None) -> None:
        """Create a fresh journal, or re-open one for ``--resume``.

        A fresh open wipes any stale journal at the same path; a resume
        requires the manifest fingerprint to match this run exactly.
        ``meta`` carries advisory run settings (e.g. the stall
        threshold) into the manifest — outside the fingerprint, so a
        resume may change them freely; on resume the original
        manifest (and its meta) is kept as written.
        """
        manifest_path = self.directory / MANIFEST
        if resume:
            if not manifest_path.exists():
                raise JournalError(
                    f"nothing to resume: no journal at {self.directory}")
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("fingerprint") != self.fingerprint:
                raise JournalError(
                    "journal fingerprint mismatch: the journal at "
                    f"{self.directory} was written by a run with a "
                    "different config/plan; re-run without --resume")
            for spec in shards:
                entry = self._read_entry(spec.shard_index)
                if entry is None:
                    entry = ShardEntry(spec.shard_index, spec.start,
                                       spec.stop)
                self.entries[spec.shard_index] = entry
            # The old run's degradation report describes a partial
            # state this resume is about to change; drop it rather
            # than letting fleet-status show stale accounting. The
            # resuming supervisor rewrites it if shards fail again.
            degradation_path(self.directory).unlink(missing_ok=True)
            return
        if self.directory.exists():
            shutil.rmtree(self.directory)
        self.directory.mkdir(parents=True)
        _atomic_write(manifest_path, json.dumps(
            {"version": JOURNAL_VERSION, "fingerprint": self.fingerprint,
             "shards": [(s.shard_index, s.start, s.stop)
                        for s in shards],
             "meta": meta or {}},
            indent=2).encode())
        for spec in shards:
            self.entries[spec.shard_index] = ShardEntry(
                spec.shard_index, spec.start, spec.stop)

    def cleanup(self) -> None:
        """Remove the journal directory (after a fully merged save)."""
        if self.directory.exists():
            shutil.rmtree(self.directory)

    # ---------------------------------------------------------- entries

    def _entry_path(self, shard_index: int) -> Path:
        return self.directory / (_stem(shard_index) + ".json")

    def _read_entry(self, shard_index: int) -> ShardEntry | None:
        path = self._entry_path(shard_index)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                return None
            return ShardEntry(**{k: v for k, v in payload.items()
                                 if k in _ENTRY_FIELDS})
        except (json.JSONDecodeError, TypeError):
            return None

    def _write_entry(self, entry: ShardEntry) -> None:
        self.entries[entry.shard_index] = entry
        # Shallow, in field order: ``asdict`` would deep-copy the whole
        # history on every attempt, and the bytes come out the same.
        payload = {f.name: getattr(entry, f.name) for f in fields(entry)}
        _atomic_write(self._entry_path(entry.shard_index),
                      json.dumps(payload, indent=2).encode())

    def entry(self, shard_index: int) -> ShardEntry:
        """This shard's current entry (pending if never recorded)."""
        return self.entries[shard_index]

    def is_done(self, shard_index: int) -> bool:
        """Whether the shard completed *and* its payload files exist."""
        entry = self.entries.get(shard_index)
        return (entry is not None and entry.status == "done"
                and shard_db_path(self.directory, shard_index).exists()
                and _tallies_path(self.directory, shard_index).exists())

    def record_done(self, shard_index: int, attempt: int = 1,
                    rescheduled_from: int = 0) -> None:
        """Mark a shard complete (its payload was already written)."""
        entry = self.entries[shard_index]
        entry.status = "done"
        entry.error_kind = entry.error_message = ""
        entry.attempt = attempt
        entry.rescheduled_from = rescheduled_from
        self._write_entry(entry)

    def record_failure(self, shard_index: int, kind: str, message: str,
                       crashed: bool = False, attempt: int = 1,
                       rescheduled_from: int = 0) -> None:
        """Mark a shard failed; crashes are counted so an injected
        worker crash fires once per journal, not once per resume."""
        entry = self.entries[shard_index]
        entry.status = "failed"
        entry.error_kind = kind
        entry.error_message = message
        entry.attempt = attempt
        entry.rescheduled_from = rescheduled_from
        entry.history.append({"attempt": attempt, "failure_kind": kind,
                              "message": message})
        if crashed:
            entry.crashes += 1
        self._write_entry(entry)

    def record_quarantine(self, shard_index: int, kind: str,
                          message: str, attempt: int) -> None:
        """Mark a shard quarantined: the supervisor gave up on it.

        A quarantined shard is skipped by the merge (the run stays
        partial-but-valid) and re-armed with fresh attempts by a later
        ``--resume`` — quarantine is per run, not forever.
        """
        entry = self.entries[shard_index]
        entry.status = "quarantined"
        entry.error_kind = kind
        entry.error_message = message
        entry.attempt = attempt
        self._write_entry(entry)

    # ------------------------------------------------------- degradation

    def write_degradation(self, report: dict) -> None:
        """Persist a partial run's DegradationReport (atomic)."""
        try:
            _atomic_write(degradation_path(self.directory),
                          json.dumps(report, indent=2).encode())
        except OSError:
            pass

    # ---------------------------------------------------------- payload

    def load_payload(self, shard_index: int, config) -> dict:
        """A completed shard's records and tallies (its
        ``.tallies.json``), with each record's archetype re-sampled from
        ``config`` and the pipeline's global index, as the worker
        sampled it.

        The shard's rows stay in :func:`shard_db_path`, which the driver
        merges like any freshly written shard file.
        """
        # Local import: repro.corpus imports repro.faults.
        from ..corpus.generator import (PipelineRecord, pipeline_rng,
                                        sample_pipeline_plan)
        tallies = json.loads(
            _tallies_path(self.directory, shard_index).read_text())
        start = self.entries[shard_index].start
        tallies["records"] = [
            PipelineRecord(sample_pipeline_plan(
                pipeline_rng(config.seed, index), config, index)[0],
                **fields)
            for index, fields in enumerate(tallies["records"], start)]
        return tallies
