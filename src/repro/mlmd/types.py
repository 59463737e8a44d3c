"""Core node and edge types of the metadata store.

The data model follows ML Metadata (MLMD), the provenance framework used by
TFX and by the paper's corpus (Section 2.2):

* :class:`Artifact` — an immutable data object produced or consumed by a
  step (a data span, a model, a schema, validation results, ...).
* :class:`Execution` — one run of an operator, with a state machine and
  wall-clock start/finish times.
* :class:`Event` — a typed edge linking an execution to an input or output
  artifact; the union of all events forms the pipeline *trace* DAG.
* :class:`Context` — a grouping node (e.g. a pipeline, a pipeline run).

Property values are restricted to the MLMD-compatible scalar set
(int, float, str, bool) plus lists thereof, so traces round-trip through
the SQLite backend without loss.

Every record is a slotted dataclass: a loaded corpus holds its nodes,
events and telemetry rows by the hundred thousand, and slots spare each
one a per-instance ``__dict__``. A record takes no attributes beyond its
fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

from .errors import TypeMismatchError

PropertyValue = Union[int, float, str, bool, list]

#: Property dictionaries attached to every node.
Properties = dict[str, PropertyValue]


class ArtifactState(enum.Enum):
    """Lifecycle state of an artifact."""

    PENDING = "pending"
    LIVE = "live"
    DELETED = "deleted"


class ExecutionState(enum.Enum):
    """Lifecycle state of an execution.

    ``FAILED`` executions stay in the trace: the paper's Section 3.3
    analysis of failure cost depends on failed executions being recorded
    along with the cost they incurred before failing.

    ``CACHED`` records an execution whose outputs were served from the
    execution cache instead of re-running the operator — TFX's cached
    executions, the optimization the paper's Section 5 similarity
    analysis motivates. Cached executions carry ``cpu_hours == 0`` plus
    a ``saved_cpu_hours`` property (the cost the cache avoided).
    """

    NEW = "new"
    RUNNING = "running"
    COMPLETE = "complete"
    FAILED = "failed"
    SKIPPED = "skipped"
    CANCELED = "canceled"
    CACHED = "cached"


class EventType(enum.Enum):
    """Direction of an artifact/execution edge."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(slots=True)
class Artifact:
    """An immutable data object in the trace.

    Attributes:
        id: Store-assigned identifier (``-1`` until the node is put).
        type_name: Registered artifact type (e.g. ``"DataSpan"``,
            ``"Model"``, ``"Schema"``).
        name: Optional human-readable name, unique within the type.
        uri: Logical storage location of the payload.
        state: Lifecycle state.
        create_time: Simulation or wall-clock timestamp (hours).
        properties: Typed metadata (e.g. span statistics digests).
    """

    type_name: str
    id: int = -1
    name: str = ""
    uri: str = ""
    state: ArtifactState = ArtifactState.LIVE
    create_time: float = 0.0
    properties: Properties = field(default_factory=dict)

    def get(self, key: str, default: PropertyValue | None = None):
        """Return property ``key`` or ``default`` when absent."""
        return self.properties.get(key, default)


@dataclass(slots=True)
class Execution:
    """One run of an operator.

    Attributes:
        id: Store-assigned identifier (``-1`` until the node is put).
        type_name: Registered execution type; by convention the operator
            name (``"Trainer"``, ``"ExampleGen"``, ...).
        name: Optional unique name within the type.
        state: Lifecycle state.
        start_time / end_time: Timestamps in hours. ``end_time`` is 0 until
            the execution finishes.
        properties: Typed metadata (compute cost, code version, ...).
    """

    type_name: str
    id: int = -1
    name: str = ""
    state: ExecutionState = ExecutionState.NEW
    start_time: float = 0.0
    end_time: float = 0.0
    properties: Properties = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock duration in hours (0 while still running)."""
        if self.end_time <= self.start_time:
            return 0.0
        return self.end_time - self.start_time

    def get(self, key: str, default: PropertyValue | None = None):
        """Return property ``key`` or ``default`` when absent."""
        return self.properties.get(key, default)


@dataclass(frozen=True, slots=True)
class Event:
    """A directed edge between an execution and an artifact.

    ``INPUT`` events point artifact → execution; ``OUTPUT`` events point
    execution → artifact. ``time`` records when the edge was created.
    """

    artifact_id: int
    execution_id: int
    type: EventType
    time: float = 0.0


@dataclass(slots=True)
class Context:
    """A grouping of artifacts and executions (e.g. one pipeline).

    The paper does not use Context nodes in its analysis, but the corpus
    records them (Section 2.2); we keep them so traces are structurally
    faithful and so per-pipeline queries are cheap.
    """

    type_name: str
    id: int = -1
    name: str = ""
    create_time: float = 0.0
    properties: Properties = field(default_factory=dict)

    def get(self, key: str, default: PropertyValue | None = None):
        """Return property ``key`` or ``default`` when absent."""
        return self.properties.get(key, default)


@dataclass(slots=True)
class TelemetryRecord:
    """One telemetry measurement persisted alongside the trace.

    Telemetry rows make the observability layer *queryable through the
    provenance graph*: a ``node`` row carries the execution id it
    describes, so wall time and compute cost join back to the
    execution, its artifacts, and (after segmentation) its graphlet.

    Attributes:
        kind: Record shape — ``"node"`` (one operator execution),
            ``"run"`` (one pipeline run), or ``"metric"`` (a persisted
            instrument snapshot, e.g. fleet-level op counters).
        name: Measurement name; by convention the operator type for
            ``node`` rows, the run kind for ``run`` rows, and the
            instrument name for ``metric`` rows.
        id: Store-assigned identifier (``-1`` until the record is put).
        execution_id: The execution this row describes (``node`` rows).
        context_id: The owning pipeline context, when known.
        value: The primary measurement (wall seconds for node/run rows).
        start_time / end_time: Simulated timestamps (hours), mirroring
            :class:`Execution` so rows are time-joinable without a hop.
        properties: Secondary measurements (cpu_hours, status, ...).
    """

    kind: str
    name: str
    id: int = -1
    execution_id: int | None = None
    context_id: int | None = None
    value: float = 0.0
    start_time: float = 0.0
    end_time: float = 0.0
    properties: Properties = field(default_factory=dict)

    def get(self, key: str, default: PropertyValue | None = None):
        """Return property ``key`` or ``default`` when absent."""
        return self.properties.get(key, default)


_ALLOWED_SCALARS = (int, float, str, bool)


def validate_properties(properties: Properties) -> None:
    """Raise :class:`~repro.mlmd.errors.TypeMismatchError` if a property
    key is not a string or a value is outside the allowed set."""
    for key, value in properties.items():
        if not isinstance(key, str):
            raise TypeMismatchError(f"property keys must be str, got {key!r}")
        if isinstance(value, _ALLOWED_SCALARS):
            continue
        if isinstance(value, list) and all(
            isinstance(item, _ALLOWED_SCALARS) for item in value
        ):
            continue
        raise TypeMismatchError(
            f"property {key!r} has unsupported value type {type(value).__name__}"
        )
