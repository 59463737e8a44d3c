"""In-memory metadata store and the one MLMD read protocol.

This is the one metadata store: the corpus generator writes millions of
nodes through this API, a sqlite file is only its saved form
(:mod:`repro.mlmd.sqlite_store`), and every analysis reads it through
the MLMD read protocol, :class:`MetadataReader`. The store keeps
adjacency indexes (artifact → consuming/producing executions and vice
versa) so lineage traversals are O(degree), which is what makes
graphlet segmentation over large traces feasible. These maps are the
one provenance index of a run: the segmenter reads them directly
instead of keeping a copy, and ``version`` (bumped by every ``put_*``)
tells a cache when its result has gone stale.

The public surface intentionally mirrors ML Metadata's
``metadata_store.MetadataStore``: ``put_*`` / ``get_*`` methods over
artifacts, executions, events, and contexts. Every ``get_*`` is written
once, in :class:`MetadataReader`, over an ``index`` store: the store is
its own index, and :class:`repro.query.MetadataClient` inherits the
same reads over the store it was built on.

Bulk reads (``get_artifacts()`` etc.) take no filter and return
everything; filtered reads are ``MetadataClient.artifacts(type_name=...)``
(:func:`repro.query.as_client`).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from ..obs.metrics import Counter, get_registry
from .errors import AlreadyExistsError, NotFoundError
from .types import (
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    TelemetryRecord,
    validate_properties,
)


class MetadataReader:
    """The MLMD read protocol, written once over :attr:`index`.

    ``index`` is the in-memory :class:`MetadataStore` whose maps answer
    every read, and reads count into that store's ``mlmd.ops`` counters
    (``op=get_node`` for point and batched node lookups, ``op=lineage``
    for adjacency and telemetry joins). A ``MetadataStore`` reads itself;
    a :class:`repro.query.MetadataClient` reads the store it was built
    over, so a client stands in wherever a store is read.
    """

    #: Set by the subclass: the store that answers reads, and that
    #: store's two read counters.
    index: MetadataStore
    _ops_get_node: Counter
    _ops_lineage: Counter

    # ---------------------------------------------------------- nodes

    def get_artifact(self, artifact_id: int) -> Artifact:
        """Return the artifact with the given id."""
        self._ops_get_node.value += 1
        try:
            return self.index.artifacts_by_id[artifact_id]
        except KeyError:
            raise NotFoundError(f"artifact id {artifact_id} not found") from None

    def get_execution(self, execution_id: int) -> Execution:
        """Return the execution with the given id."""
        self._ops_get_node.value += 1
        try:
            return self.index.executions_by_id[execution_id]
        except KeyError:
            raise NotFoundError(
                f"execution id {execution_id} not found") from None

    def get_context(self, context_id: int) -> Context:
        """Return the context with the given id."""
        try:
            return self.index.contexts_by_id[context_id]
        except KeyError:
            raise NotFoundError(f"context id {context_id} not found") from None

    def get_artifacts(self) -> list[Artifact]:
        """All artifacts in id order."""
        return list(self.index.artifacts_by_id.values())

    def get_executions(self) -> list[Execution]:
        """All executions in id order."""
        return list(self.index.executions_by_id.values())

    def get_contexts(self) -> list[Context]:
        """All contexts in id order."""
        return list(self.index.contexts_by_id.values())

    def get_artifact_by_name(self, type_name: str, name: str) -> Artifact:
        """Look up an artifact by its unique (type, name) pair."""
        index = self.index
        artifact_id = index.named_nodes.get(("artifact", type_name, name))
        if artifact_id is None:
            raise NotFoundError(f"artifact {type_name}/{name} not found")
        return index.artifacts_by_id[artifact_id]

    def get_events(self) -> list[Event]:
        """Return all events (the raw trace edges)."""
        return list(self.index.events)

    def get_artifacts_by_id(self,
                            artifact_ids: Sequence[int]) -> list[Artifact]:
        """Batched get_artifact (one dict hit per id)."""
        self._ops_get_node.value += 1
        artifacts = self.index.artifacts_by_id
        try:
            return [artifacts[i] for i in artifact_ids]
        except KeyError as exc:
            raise NotFoundError(f"artifact id {exc.args[0]} not found") \
                from None

    def get_executions_by_id(self, execution_ids: Sequence[int]
                             ) -> list[Execution]:
        """Batched get_execution (one dict hit per id)."""
        self._ops_get_node.value += 1
        executions = self.index.executions_by_id
        try:
            return [executions[i] for i in execution_ids]
        except KeyError as exc:
            raise NotFoundError(f"execution id {exc.args[0]} not found") \
                from None

    # ---------------------------------------------------------- telemetry

    def get_telemetry(self, kind: str | None = None,
                      name: str | None = None) -> list[TelemetryRecord]:
        """All telemetry records, optionally filtered by kind and name."""
        rows = self.index.telemetry_by_id.values()
        if kind is not None:
            rows = (r for r in rows if r.kind == kind)
        if name is not None:
            rows = (r for r in rows if r.name == name)
        return list(rows)

    def get_telemetry_by_execution(self, execution_id: int
                                   ) -> list[TelemetryRecord]:
        """Telemetry rows describing one execution (insertion order)."""
        self._ops_lineage.value += 1
        index = self.index
        return [index.telemetry_by_id[i]
                for i in index.telemetry_of_execution.get(execution_id, ())]

    def get_telemetry_by_context(self, context_id: int
                                 ) -> list[TelemetryRecord]:
        """Telemetry rows attached to one context (insertion order)."""
        self._ops_lineage.value += 1
        index = self.index
        return [index.telemetry_by_id[i]
                for i in index.telemetry_of_context.get(context_id, ())]

    # --------------------------------------------------------- adjacency

    def get_input_artifact_ids(self, execution_id: int) -> list[int]:
        """Artifact ids consumed by an execution (event order preserved)."""
        self._ops_lineage.value += 1
        return list(self.index.inputs_of.get(execution_id, ()))

    def get_output_artifact_ids(self, execution_id: int) -> list[int]:
        """Artifact ids produced by an execution."""
        self._ops_lineage.value += 1
        return list(self.index.outputs_of.get(execution_id, ()))

    def get_input_artifacts(self, execution_id: int) -> list[Artifact]:
        """Artifacts consumed by an execution."""
        index = self.index
        return [index.artifacts_by_id[i]
                for i in index.inputs_of.get(execution_id, ())]

    def get_output_artifacts(self, execution_id: int) -> list[Artifact]:
        """Artifacts produced by an execution."""
        index = self.index
        return [index.artifacts_by_id[i]
                for i in index.outputs_of.get(execution_id, ())]

    def get_consumer_execution_ids(self, artifact_id: int) -> list[int]:
        """Execution ids that consume an artifact."""
        self._ops_lineage.value += 1
        return list(self.index.consumers_of.get(artifact_id, ()))

    def get_producer_execution_ids(self, artifact_id: int) -> list[int]:
        """Execution ids that produced an artifact."""
        self._ops_lineage.value += 1
        return list(self.index.producers_of.get(artifact_id, ()))

    # ----------------------------------------------------------- contexts

    def get_artifacts_by_context(self, context_id: int) -> list[Artifact]:
        """All artifacts attributed to a context."""
        self.get_context(context_id)
        index = self.index
        return [index.artifacts_by_id[i]
                for i in index.artifacts_in_context.get(context_id, ())]

    def get_executions_by_context(self, context_id: int) -> list[Execution]:
        """All executions associated with a context."""
        self.get_context(context_id)
        index = self.index
        return [index.executions_by_id[i]
                for i in index.executions_in_context.get(context_id, ())]

    def get_contexts_by_execution(self, execution_id: int) -> list[Context]:
        """Contexts an execution belongs to."""
        index = self.index
        return [index.contexts_by_id[i]
                for i in index.contexts_of_execution.get(execution_id, ())]

    def get_contexts_by_artifact(self, artifact_id: int) -> list[Context]:
        """Contexts an artifact belongs to."""
        index = self.index
        return [index.contexts_by_id[i]
                for i in index.contexts_of_artifact.get(artifact_id, ())]

    def get_attributions(self) -> list[tuple[int, int]]:
        """All (context_id, artifact_id) pairs, grouped by context."""
        return [(context_id, artifact_id)
                for context_id, members in
                self.index.artifacts_in_context.items()
                for artifact_id in members]

    def get_associations(self) -> list[tuple[int, int]]:
        """All (context_id, execution_id) pairs, grouped by context."""
        return [(context_id, execution_id)
                for context_id, members in
                self.index.executions_in_context.items()
                for execution_id in members]

    # ------------------------------------------------------------- counts

    @property
    def num_artifacts(self) -> int:
        """Total artifacts in the store."""
        return len(self.index.artifacts_by_id)

    @property
    def num_executions(self) -> int:
        """Total executions in the store."""
        return len(self.index.executions_by_id)

    @property
    def num_events(self) -> int:
        """Total events (trace edges) in the store."""
        return len(self.index.events)

    @property
    def num_telemetry(self) -> int:
        """Total telemetry records in the store."""
        return len(self.index.telemetry_by_id)


class MetadataStore(MetadataReader):
    """An in-memory MLMD-compatible metadata store.

    Example:
        >>> store = MetadataStore()
        >>> span = Artifact(type_name="DataSpan", name="span-1")
        >>> span_id = store.put_artifact(span)
        >>> run = Execution(type_name="Trainer")
        >>> run_id = store.put_execution(run)
        >>> store.put_event(Event(span_id, run_id, EventType.INPUT))
        >>> [a.name for a in store.get_input_artifacts(run_id)]
        ['span-1']
    """

    def __init__(self) -> None:
        # The maps below are the provenance index: the query layer and
        # graphlet segmentation read them directly, so they are public.
        # They are read-only outside this class; write through put_* (a
        # loaded database goes in through _insert_batch).
        #: Write counter, bumped by every successful ``put_*``.
        self.version = 0
        self.artifacts_by_id: dict[int, Artifact] = {}
        self.executions_by_id: dict[int, Execution] = {}
        self.contexts_by_id: dict[int, Context] = {}
        self.events: list[Event] = []
        self._next_artifact_id = 1
        self._next_execution_id = 1
        self._next_context_id = 1
        # Adjacency indexes over events.
        self.inputs_of: dict[int, list[int]] = defaultdict(list)
        self.outputs_of: dict[int, list[int]] = defaultdict(list)
        self.consumers_of: dict[int, list[int]] = defaultdict(list)
        self.producers_of: dict[int, list[int]] = defaultdict(list)
        # Context membership.
        self.artifacts_in_context: dict[int, list[int]] = defaultdict(list)
        self.executions_in_context: dict[int, list[int]] = defaultdict(list)
        self.contexts_of_artifact: dict[int, list[int]] = defaultdict(list)
        self.contexts_of_execution: dict[int, list[int]] = defaultdict(list)
        # Telemetry rows, indexed by the node they describe so spans
        # and costs are joinable to executions/contexts in O(degree).
        self.telemetry_by_id: dict[int, TelemetryRecord] = {}
        self._next_telemetry_id = 1
        self.telemetry_of_execution: dict[int, list[int]] = defaultdict(list)
        self.telemetry_of_context: dict[int, list[int]] = defaultdict(list)
        # Optional provenance-aware sink (set by obs.provenance); the
        # runtime emits into it when present.
        self.telemetry_sink = None
        # Name uniqueness per (kind, type_name, name).
        self.named_nodes: dict[tuple[str, str, str], int] = {}
        # Op counters, bound once so the hot path pays one attribute add
        # per operation. Swap the global registry before constructing
        # stores you want measured separately.
        registry = get_registry()
        self._ops_put_artifact = registry.counter("mlmd.ops",
                                                  op="put_artifact")
        self._ops_put_execution = registry.counter("mlmd.ops",
                                                   op="put_execution")
        self._ops_put_context = registry.counter("mlmd.ops",
                                                 op="put_context")
        self._ops_put_event = registry.counter("mlmd.ops", op="put_event")
        self._ops_put_attribution = registry.counter("mlmd.ops",
                                                     op="put_attribution")
        self._ops_put_association = registry.counter("mlmd.ops",
                                                     op="put_association")
        self._ops_get_node = registry.counter("mlmd.ops", op="get_node")
        self._ops_lineage = registry.counter("mlmd.ops", op="lineage")
        self._ops_put_telemetry = registry.counter("mlmd.ops",
                                                   op="put_telemetry")

    @property
    def index(self) -> MetadataStore:
        """The store itself: its maps answer its own reads."""
        return self

    # ------------------------------------------------------------------ put

    def put_artifact(self, artifact: Artifact) -> int:
        """Insert or update an artifact; returns its id."""
        self._ops_put_artifact.value += 1
        validate_properties(artifact.properties)
        created = artifact.id == -1
        if created:
            artifact.id = self._next_artifact_id
            self._next_artifact_id += 1
            self._register_name("artifact", artifact.type_name, artifact.name,
                                artifact.id)
        elif artifact.id not in self.artifacts_by_id:
            raise NotFoundError(f"artifact id {artifact.id} not found")
        self.artifacts_by_id[artifact.id] = artifact
        self.version += 1
        return artifact.id

    def put_execution(self, execution: Execution) -> int:
        """Insert or update an execution; returns its id."""
        self._ops_put_execution.value += 1
        validate_properties(execution.properties)
        created = execution.id == -1
        if created:
            execution.id = self._next_execution_id
            self._next_execution_id += 1
            self._register_name("execution", execution.type_name,
                                execution.name, execution.id)
        elif execution.id not in self.executions_by_id:
            raise NotFoundError(f"execution id {execution.id} not found")
        self.executions_by_id[execution.id] = execution
        self.version += 1
        return execution.id

    def put_context(self, context: Context) -> int:
        """Insert or update a context; returns its id."""
        self._ops_put_context.value += 1
        validate_properties(context.properties)
        created = context.id == -1
        if created:
            context.id = self._next_context_id
            self._next_context_id += 1
            self._register_name("context", context.type_name, context.name,
                                context.id)
        elif context.id not in self.contexts_by_id:
            raise NotFoundError(f"context id {context.id} not found")
        self.contexts_by_id[context.id] = context
        self.version += 1
        return context.id

    def put_event(self, event: Event) -> None:
        """Record an input/output edge between existing nodes."""
        self._ops_put_event.value += 1
        if event.artifact_id not in self.artifacts_by_id:
            raise NotFoundError(f"artifact id {event.artifact_id} not found")
        if event.execution_id not in self.executions_by_id:
            raise NotFoundError(f"execution id {event.execution_id} not found")
        self.events.append(event)
        if event.type is EventType.INPUT:
            self.inputs_of[event.execution_id].append(event.artifact_id)
            self.consumers_of[event.artifact_id].append(event.execution_id)
        else:
            self.outputs_of[event.execution_id].append(event.artifact_id)
            self.producers_of[event.artifact_id].append(event.execution_id)
        self.version += 1

    def put_attribution(self, context_id: int, artifact_id: int) -> None:
        """Associate an artifact with a context."""
        self._ops_put_attribution.value += 1
        self.get_context(context_id)
        if artifact_id not in self.artifacts_by_id:
            raise NotFoundError(f"artifact id {artifact_id} not found")
        self.artifacts_in_context[context_id].append(artifact_id)
        self.contexts_of_artifact[artifact_id].append(context_id)
        self.version += 1

    def put_association(self, context_id: int, execution_id: int) -> None:
        """Associate an execution with a context."""
        self._ops_put_association.value += 1
        self.get_context(context_id)
        if execution_id not in self.executions_by_id:
            raise NotFoundError(f"execution id {execution_id} not found")
        self.executions_in_context[context_id].append(execution_id)
        self.contexts_of_execution[execution_id].append(context_id)
        self.version += 1

    def put_telemetry(self, record: TelemetryRecord) -> int:
        """Insert a telemetry record; returns its id.

        ``execution_id`` / ``context_id``, when set, must refer to
        existing nodes — that referential integrity is what keeps
        telemetry joinable to the provenance graph.
        """
        self._ops_put_telemetry.value += 1
        validate_properties(record.properties)
        if record.execution_id is not None \
                and record.execution_id not in self.executions_by_id:
            raise NotFoundError(
                f"execution id {record.execution_id} not found")
        if record.context_id is not None \
                and record.context_id not in self.contexts_by_id:
            raise NotFoundError(f"context id {record.context_id} not found")
        fresh = record.id == -1
        if fresh:
            record.id = self._next_telemetry_id
            self._next_telemetry_id += 1
        elif record.id not in self.telemetry_by_id:
            raise NotFoundError(f"telemetry id {record.id} not found")
        self.telemetry_by_id[record.id] = record
        if fresh:
            if record.execution_id is not None:
                self.telemetry_of_execution[record.execution_id].append(
                    record.id)
            if record.context_id is not None:
                self.telemetry_of_context[record.context_id].append(
                    record.id)
        self.version += 1
        return record.id

    def _insert_batch(self, artifacts: Sequence[Artifact],
                      executions: Sequence[Execution],
                      contexts: Sequence[Context],
                      events: Sequence[Event],
                      attributions: Sequence[tuple[int, int]],
                      associations: Sequence[tuple[int, int]],
                      telemetry: Sequence[TelemetryRecord]) -> None:
        """Append one loaded database's rows: the bulk twin of ``put_*``.

        The caller (:func:`repro.mlmd.sqlite_store.append_store`) has
        made every check ``put_*`` makes: nodes and telemetry rows carry
        ids that continue this store's sequences, names are unique,
        properties are valid and every reference resolves. Edges are
        appended in the given order. The op counters and ``version``
        advance as if each row had been put.
        """
        named = self.named_nodes
        for kind, nodes, by_id in (
                ("artifact", artifacts, self.artifacts_by_id),
                ("execution", executions, self.executions_by_id),
                ("context", contexts, self.contexts_by_id)):
            by_id.update({node.id: node for node in nodes})
            named.update({(kind, node.type_name, node.name): node.id
                          for node in nodes if node.name})
        self._next_artifact_id += len(artifacts)
        self._next_execution_id += len(executions)
        self._next_context_id += len(contexts)
        self.events.extend(events)
        inputs_of, consumers_of = self.inputs_of, self.consumers_of
        outputs_of, producers_of = self.outputs_of, self.producers_of
        input_type = EventType.INPUT
        for event in events:
            if event.type is input_type:
                inputs_of[event.execution_id].append(event.artifact_id)
                consumers_of[event.artifact_id].append(event.execution_id)
            else:
                outputs_of[event.execution_id].append(event.artifact_id)
                producers_of[event.artifact_id].append(event.execution_id)
        for members, memberships, pairs in (
                (self.artifacts_in_context, self.contexts_of_artifact,
                 attributions),
                (self.executions_in_context, self.contexts_of_execution,
                 associations)):
            for context_id, node_id in pairs:
                members[context_id].append(node_id)
                memberships[node_id].append(context_id)
        self.telemetry_by_id.update({r.id: r for r in telemetry})
        self._next_telemetry_id += len(telemetry)
        for record in telemetry:
            if record.execution_id is not None:
                self.telemetry_of_execution[record.execution_id].append(
                    record.id)
            if record.context_id is not None:
                self.telemetry_of_context[record.context_id].append(
                    record.id)
        for counter, rows in ((self._ops_put_artifact, artifacts),
                              (self._ops_put_execution, executions),
                              (self._ops_put_context, contexts),
                              (self._ops_put_event, events),
                              (self._ops_put_attribution, attributions),
                              (self._ops_put_association, associations),
                              (self._ops_put_telemetry, telemetry)):
            counter.value += len(rows)
            self.version += len(rows)

    # ------------------------------------------------------------ helpers

    def _register_name(self, kind: str, type_name: str, name: str,
                       node_id: int) -> None:
        if not name:
            return
        key = (kind, type_name, name)
        if key in self.named_nodes:
            raise AlreadyExistsError(f"{kind} {type_name}/{name} exists")
        self.named_nodes[key] = node_id
