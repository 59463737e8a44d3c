"""Provenance-aware telemetry: persist run telemetry into the MLMD store.

The PR-1 observability layer records spans and metrics into flat JSONL
files — write-only logs that cannot be joined back to the executions
they describe. This module closes the loop: a :class:`TelemetrySink`
writes :class:`~repro.mlmd.TelemetryRecord` rows *into the metadata
store itself*, keyed by execution id, so every measurement is queryable
through the provenance graph (execution → artifacts → graphlet → ...).
That joined view is what :mod:`repro.obs.diagnosis` mines.

Three record kinds:

* ``node`` — one operator execution: real wall seconds (value), with
  cpu_hours / status / run kind / run index in the properties, and the
  execution's simulated start/end mirrored for time joins.
* ``run`` — one pipeline run: wall seconds (value), cpu_hours, push
  outcome, and per-status node tallies.
* ``metric`` — a persisted snapshot of a metrics-registry instrument
  (fleet-level counters survive into the corpus database).

Attach a sink with :func:`attach_sink`; the runtime emits into it
whenever its store carries one (``store.telemetry_sink``).
"""

from __future__ import annotations

from ..mlmd.store import MetadataStore
from ..mlmd.types import TelemetryRecord
from .metrics import MetricsRegistry

__all__ = [
    "METRIC_KIND",
    "NODE_KIND",
    "RUN_KIND",
    "TelemetrySink",
    "attach_sink",
    "detach_sink",
]

#: Telemetry record kinds (the ``TelemetryRecord.kind`` vocabulary).
NODE_KIND = "node"
RUN_KIND = "run"
METRIC_KIND = "metric"


class TelemetrySink:
    """Writes telemetry records into a metadata store.

    The sink is deliberately thin: it shapes measurements into
    :class:`TelemetryRecord` rows and defers storage (id assignment,
    referential checks, indexing) to the store. One sink per store.
    """

    def __init__(self, store: MetadataStore) -> None:
        self.store = store

    # ------------------------------------------------------------- node

    def record_node(self, execution_id: int, *, operator: str,
                    wall_seconds: float, status: str,
                    context_id: int | None = None,
                    run_index: int = 0, run_kind: str = "",
                    cpu_seconds: float | None = None) -> int:
        """Persist one operator execution's measurement.

        cpu_hours and the simulated start/end are read off the
        execution itself, so callers only supply what the store does
        not already know (real wall time, status, run coordinates, and
        — when measured — real CPU seconds, the property ``repro
        diagnose`` uses to split wall time into cpu-bound vs idle).
        """
        execution = self.store.get_execution(execution_id)
        properties = {
            "cpu_hours": float(execution.get("cpu_hours", 0.0)),
            "status": status,
            "run_index": int(run_index),
            "run_kind": run_kind,
        }
        if cpu_seconds is not None:
            properties["cpu_seconds"] = float(cpu_seconds)
        return self.store.put_telemetry(TelemetryRecord(
            kind=NODE_KIND,
            name=operator,
            execution_id=execution_id,
            context_id=context_id,
            value=float(wall_seconds),
            start_time=execution.start_time,
            end_time=execution.end_time,
            properties=properties))

    # -------------------------------------------------------------- run

    def record_run(self, context_id: int, *, kind: str, run_index: int,
                   wall_seconds: float, cpu_hours: float, pushed: bool,
                   started_at: float, finished_at: float,
                   node_statuses: dict[str, str] | None = None) -> int:
        """Persist one pipeline run's roll-up."""
        properties = {
            "cpu_hours": float(cpu_hours),
            "pushed": bool(pushed),
            "run_index": int(run_index),
        }
        if node_statuses:
            tallies: dict[str, int] = {}
            for status in node_statuses.values():
                tallies[status] = tallies.get(status, 0) + 1
            for status, count in sorted(tallies.items()):
                properties[f"nodes_{status}"] = count
        return self.store.put_telemetry(TelemetryRecord(
            kind=RUN_KIND,
            name=kind,
            context_id=context_id,
            value=float(wall_seconds),
            start_time=started_at,
            end_time=finished_at,
            properties=properties))

    # ----------------------------------------------------------- metric

    def record_registry(self, registry: MetricsRegistry) -> int:
        """Persist a snapshot of every instrument; returns rows written.

        Counters and gauges store their value; histograms store their
        count as the value with the summary in the properties (``None``
        percentiles of empty histograms are omitted — properties are
        MLMD scalars).
        """
        rows = 0
        for record in registry.snapshot():
            properties = {"metric_kind": record["kind"]}
            for key, value in record.get("labels", {}).items():
                properties[f"label_{key}"] = str(value)
            if record["kind"] == "histogram":
                value = float(record["count"])
                for key in ("sum", "mean", "min", "max",
                            "p50", "p95", "p99"):
                    if record.get(key) is not None:
                        properties[key] = float(record[key])
            else:
                value = float(record["value"])
            self.store.put_telemetry(TelemetryRecord(
                kind=METRIC_KIND, name=record["name"], value=value,
                properties=properties))
            rows += 1
        return rows


def attach_sink(store: MetadataStore) -> TelemetrySink:
    """Attach a telemetry sink to a store (idempotent).

    The runtime checks ``store.telemetry_sink`` on every run, so
    attaching mid-life starts capturing from the next run onward.
    """
    sink = getattr(store, "telemetry_sink", None)
    if sink is None:
        sink = TelemetrySink(store)
        store.telemetry_sink = sink
    return sink


def detach_sink(store: MetadataStore) -> None:
    """Stop a store's sink from receiving further telemetry."""
    store.telemetry_sink = None
