"""The store contract every metadata backend implements.

Historically the in-memory :class:`~repro.mlmd.store.MetadataStore` and
the sqlite layer grew separate (and slightly divergent) ``put_*`` /
``get_*`` surfaces. :class:`AbstractStore` is now the single source of
truth: both backends implement it, :class:`repro.query.MetadataClient`
is written against it, and the backend-parity test suite runs every
operation against both implementations on the same corpus.

Two pieces live here:

* :class:`AbstractStore` — the abstract write/read API (node puts, edge
  puts, node/adjacency/context/telemetry reads, counts) plus default
  batched reads (``get_artifacts_by_id`` / ``get_executions_by_id``).
  Bulk node reads (``get_artifacts()`` etc.) return *everything*:
  type-filtered store-side scans and the pre-unification kwarg
  spellings finished their one-release deprecation window and are gone
  — filtered reads go through :class:`repro.query.MetadataClient`.
* ``version`` — a write counter every backend bumps on each successful
  ``put_*``. Readers that cache derived results (the query client's
  segmentation cache and span-digest memo, its copy of a sqlite
  store) compare it to tell when a write has made them stale.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

from .types import (
    Artifact,
    Context,
    Event,
    Execution,
    TelemetryRecord,
)


class AbstractStore(ABC):
    """Unified write/read contract of every metadata backend."""

    #: Write counter: starts at 0, bumped by every successful ``put_*``.
    version: int

    # ------------------------------------------------------------ puts

    @abstractmethod
    def put_artifact(self, artifact: Artifact) -> int:
        """Insert (id == -1) or update an artifact; returns its id."""

    @abstractmethod
    def put_execution(self, execution: Execution) -> int:
        """Insert (id == -1) or update an execution; returns its id."""

    @abstractmethod
    def put_context(self, context: Context) -> int:
        """Insert (id == -1) or update a context; returns its id."""

    @abstractmethod
    def put_event(self, event: Event) -> None:
        """Record an input/output edge between existing nodes."""

    def put_events(self, events: Iterable[Event]) -> None:
        """Record a batch of events."""
        for event in events:
            self.put_event(event)

    @abstractmethod
    def put_attribution(self, context_id: int, artifact_id: int) -> None:
        """Associate an artifact with a context."""

    @abstractmethod
    def put_association(self, context_id: int, execution_id: int) -> None:
        """Associate an execution with a context."""

    @abstractmethod
    def put_telemetry(self, record: TelemetryRecord) -> int:
        """Insert a telemetry record; returns its id."""

    # ------------------------------------------------------ node reads

    @abstractmethod
    def get_artifact(self, artifact_id: int) -> Artifact:
        """Return the artifact with the given id (NotFoundError else)."""

    @abstractmethod
    def get_execution(self, execution_id: int) -> Execution:
        """Return the execution with the given id (NotFoundError else)."""

    @abstractmethod
    def get_context(self, context_id: int) -> Context:
        """Return the context with the given id (NotFoundError else)."""

    @abstractmethod
    def get_artifacts(self) -> list[Artifact]:
        """All artifacts in id order (filtered reads go through
        :meth:`repro.query.MetadataClient.artifacts`)."""

    @abstractmethod
    def get_executions(self) -> list[Execution]:
        """All executions in id order."""

    @abstractmethod
    def get_contexts(self) -> list[Context]:
        """All contexts in id order."""

    @abstractmethod
    def get_artifact_by_name(self, type_name: str, name: str) -> Artifact:
        """Look up an artifact by its unique (type, name) pair."""

    @abstractmethod
    def get_events(self) -> list[Event]:
        """All events (the raw trace edges) in insertion order."""

    # ----------------------------------------------------- batch reads

    def get_artifacts_by_id(self,
                            artifact_ids: Sequence[int]) -> list[Artifact]:
        """Batched :meth:`get_artifact` (one round trip on backends
        that override it)."""
        return [self.get_artifact(i) for i in artifact_ids]

    def get_executions_by_id(self, execution_ids: Sequence[int]
                             ) -> list[Execution]:
        """Batched :meth:`get_execution`."""
        return [self.get_execution(i) for i in execution_ids]

    # ------------------------------------------------------- adjacency

    @abstractmethod
    def get_input_artifact_ids(self, execution_id: int) -> list[int]:
        """Artifact ids consumed by an execution (event order)."""

    @abstractmethod
    def get_output_artifact_ids(self, execution_id: int) -> list[int]:
        """Artifact ids produced by an execution (event order)."""

    def get_input_artifacts(self, execution_id: int) -> list[Artifact]:
        """Artifacts consumed by an execution."""
        return self.get_artifacts_by_id(
            self.get_input_artifact_ids(execution_id))

    def get_output_artifacts(self, execution_id: int) -> list[Artifact]:
        """Artifacts produced by an execution."""
        return self.get_artifacts_by_id(
            self.get_output_artifact_ids(execution_id))

    @abstractmethod
    def get_consumer_execution_ids(self, artifact_id: int) -> list[int]:
        """Execution ids that consume an artifact."""

    @abstractmethod
    def get_producer_execution_ids(self, artifact_id: int) -> list[int]:
        """Execution ids that produced an artifact."""

    # -------------------------------------------------------- contexts

    @abstractmethod
    def get_artifacts_by_context(self, context_id: int) -> list[Artifact]:
        """All artifacts attributed to a context."""

    @abstractmethod
    def get_executions_by_context(self,
                                  context_id: int) -> list[Execution]:
        """All executions associated with a context."""

    @abstractmethod
    def get_contexts_by_execution(self,
                                  execution_id: int) -> list[Context]:
        """Contexts an execution belongs to."""

    @abstractmethod
    def get_contexts_by_artifact(self, artifact_id: int) -> list[Context]:
        """Contexts an artifact belongs to."""

    @abstractmethod
    def get_attributions(self) -> list[tuple[int, int]]:
        """All (context_id, artifact_id) membership pairs."""

    @abstractmethod
    def get_associations(self) -> list[tuple[int, int]]:
        """All (context_id, execution_id) membership pairs."""

    # ------------------------------------------------------- telemetry

    @abstractmethod
    def get_telemetry(self, kind: str | None = None,
                      name: str | None = None) -> list[TelemetryRecord]:
        """All telemetry records, optionally filtered by kind and name."""

    @abstractmethod
    def get_telemetry_by_execution(self, execution_id: int
                                   ) -> list[TelemetryRecord]:
        """Telemetry rows describing one execution (insertion order)."""

    @abstractmethod
    def get_telemetry_by_context(self, context_id: int
                                 ) -> list[TelemetryRecord]:
        """Telemetry rows attached to one context (insertion order)."""

    # ---------------------------------------------------------- counts

    @property
    @abstractmethod
    def num_artifacts(self) -> int:
        """Total artifacts in the store."""

    @property
    @abstractmethod
    def num_executions(self) -> int:
        """Total executions in the store."""

    @property
    @abstractmethod
    def num_events(self) -> int:
        """Total events (trace edges) in the store."""

    @property
    @abstractmethod
    def num_telemetry(self) -> int:
        """Total telemetry records in the store."""
