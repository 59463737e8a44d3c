"""ML-Metadata-compatible provenance store (substrate).

The paper's corpus is recorded with ML Metadata (MLMD); this subpackage is
a from-scratch reimplementation of the parts of MLMD the paper relies on:
artifact/execution/context nodes, input/output events, lineage traversal,
and durable storage.

There is one store, the in-memory :class:`MetadataStore`. A sqlite
file is only its saved form (:func:`save_store` / :func:`load_store`),
and :class:`SqliteStore` is a read-only handle naming such a file for
callers that pass a file where a store is expected. The store's MLMD
reads are written once (:class:`repro.mlmd.store.MetadataReader`) and
shared with :class:`repro.query.MetadataClient`, which adds filtered,
batched and cached reads; the error taxonomy is in
:mod:`repro.mlmd.errors`.
"""

from .errors import (
    AlreadyExistsError,
    InvalidQueryError,
    MetadataError,
    NotFoundError,
    TypeMismatchError,
)
from .lineage import (
    downstream_executions,
    trace_lifespan_days,
    trace_node_count,
    upstream_executions,
)
from .sqlite_store import (
    IntegrityReport,
    SalvageReport,
    SqliteStore,
    integrity_check,
    load_store,
    salvage_store,
    save_store,
)
from .summarize import TypeSummary, summarize_by_type
from .store import MetadataStore
from .types import (
    Artifact,
    ArtifactState,
    Context,
    Event,
    EventType,
    Execution,
    ExecutionState,
    Properties,
    PropertyValue,
    TelemetryRecord,
    validate_properties,
)

__all__ = [
    "AlreadyExistsError",
    "Artifact",
    "ArtifactState",
    "Context",
    "Event",
    "EventType",
    "Execution",
    "ExecutionState",
    "IntegrityReport",
    "InvalidQueryError",
    "MetadataError",
    "MetadataStore",
    "NotFoundError",
    "Properties",
    "SalvageReport",
    "SqliteStore",
    "TelemetryRecord",
    "TypeSummary",
    "PropertyValue",
    "TypeMismatchError",
    "downstream_executions",
    "integrity_check",
    "load_store",
    "salvage_store",
    "save_store",
    "summarize_by_type",
    "trace_lifespan_days",
    "trace_node_count",
    "upstream_executions",
    "validate_properties",
]
