"""The MetadataClient facade: one indexed read path for every analysis.

Every analysis in the paper — graphlet segmentation, lineage walks,
pipeline-level statistics, diagnosis, waste features — is a read over
the metadata store. :class:`MetadataClient` is the versioned query API
those layers consume: it builds an :class:`~repro.query.indexes.IndexSet`
over any :class:`~repro.mlmd.abstract.AbstractStore` backend (in-memory
or sqlite), subscribes to the store's mutation notifications so the
indexes stay current incrementally, and exposes

* the full store *read* protocol (``get_artifact`` … ``num_telemetry``)
  so a client can be passed anywhere a store is read from — including
  ``Graphlet.store`` — with every lookup served from the indexes;
* typed filtered reads (:meth:`artifacts` / :meth:`executions` /
  :meth:`contexts`) replacing the deprecated store-side type scans;
* batched :meth:`get_many` / :meth:`neighbors_many` calls;
* an LRU-cached graphlet segmenter (:meth:`segment_pipeline`) keyed on
  ``(context_id, index version)`` so repeated segmentation of an
  unchanged pipeline is a dictionary hit;
* a span-digest memo (:meth:`span_digest`): each DataSpan artifact's
  similarity digest is decoded once per index version, however many
  graphlet windows contain it.

Use :func:`as_client` at API boundaries: it passes clients through
untouched and lazily attaches (and caches) a client on a raw store, so
call sites accept either.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..mlmd.abstract import AbstractStore
from ..mlmd.errors import InvalidQueryError, NotFoundError
from ..mlmd.types import (
    Artifact,
    Context,
    Event,
    Execution,
    TelemetryRecord,
)
from .indexes import IndexSet

if TYPE_CHECKING:
    from ..graphlets.graphlet import Graphlet
    from ..similarity.feature_metric import SpanDigest

#: Attribute under which :func:`as_client` caches the default client on
#: a raw store instance.
_CLIENT_ATTR = "_repro_default_client"

#: Valid ``kind`` arguments of :meth:`MetadataClient.get_many`.
NODE_KINDS = ("artifact", "execution", "context")

#: Valid ``relation`` arguments of :meth:`MetadataClient.neighbors_many`.
RELATIONS = ("inputs", "outputs", "consumers", "producers")


class MetadataClient:
    """Indexed, read-only query facade over one metadata store.

    Reads never touch the backend after the initial index build (the
    sqlite backend is scanned exactly once); writes keep flowing through
    the store's ``put_*`` API and reach the client via its mutation
    subscription.
    """

    #: Version of the query API surface. Bumped on breaking changes;
    #: tools/api_snapshot.py guards the surface itself.
    API_VERSION = 1

    def __init__(self, store: AbstractStore, *,
                 segment_cache_size: int = 64) -> None:
        self.store = store
        self.indexes = IndexSet()
        self._segment_cache: OrderedDict[tuple[int, int], tuple] = \
            OrderedDict()
        self._segment_cache_size = segment_cache_size
        self.segment_cache_hits = 0
        self.segment_cache_misses = 0
        self._digests: dict[int, SpanDigest] = {}
        self._digests_version = -1
        store.subscribe(self.indexes.apply)
        self.indexes.build(store)

    def close(self) -> None:
        """Detach from the store (stop receiving mutations)."""
        self.store.unsubscribe(self.indexes.apply)

    @property
    def version(self) -> int:
        """Current index version (monotonic; bumps on every mutation)."""
        return self.indexes.version

    # ------------------------------------------------- store read protocol

    def get_artifact(self, artifact_id: int) -> Artifact:
        """Indexed point lookup of one artifact."""
        return self.indexes.artifact(artifact_id)

    def get_execution(self, execution_id: int) -> Execution:
        """Indexed point lookup of one execution."""
        return self.indexes.execution(execution_id)

    def get_context(self, context_id: int) -> Context:
        """Indexed point lookup of one context."""
        return self.indexes.context(context_id)

    def get_artifacts(self, type_name: str | None = None) -> list[Artifact]:
        """All artifacts, optionally filtered by type — indexed."""
        return self.artifacts(type_name=type_name)

    def get_executions(self,
                       type_name: str | None = None) -> list[Execution]:
        """All executions, optionally filtered by type — indexed."""
        return self.executions(type_name=type_name)

    def get_contexts(self, type_name: str | None = None) -> list[Context]:
        """All contexts, optionally filtered by type — indexed."""
        return self.contexts(type_name=type_name)

    def get_artifact_by_name(self, type_name: str, name: str) -> Artifact:
        """Indexed lookup by the unique (type, name) pair."""
        artifact_id = self.indexes.named.get(("artifact", type_name, name))
        if artifact_id is None:
            raise NotFoundError(f"artifact {type_name}/{name} not found")
        return self.indexes.artifacts[artifact_id]

    def get_events(self) -> list[Event]:
        """All events (the raw trace edges) in insertion order."""
        return list(self.indexes.events)

    def get_input_artifact_ids(self, execution_id: int) -> list[int]:
        """Artifact ids consumed by an execution (event order)."""
        return list(self.indexes.inputs_of.get(execution_id, ()))

    def get_output_artifact_ids(self, execution_id: int) -> list[int]:
        """Artifact ids produced by an execution (event order)."""
        return list(self.indexes.outputs_of.get(execution_id, ()))

    def get_input_artifacts(self, execution_id: int) -> list[Artifact]:
        """Artifacts consumed by an execution."""
        return [self.indexes.artifacts[i]
                for i in self.indexes.inputs_of.get(execution_id, ())]

    def get_output_artifacts(self, execution_id: int) -> list[Artifact]:
        """Artifacts produced by an execution."""
        return [self.indexes.artifacts[i]
                for i in self.indexes.outputs_of.get(execution_id, ())]

    def get_consumer_execution_ids(self, artifact_id: int) -> list[int]:
        """Execution ids that consume an artifact."""
        return list(self.indexes.consumers_of.get(artifact_id, ()))

    def get_producer_execution_ids(self, artifact_id: int) -> list[int]:
        """Execution ids that produced an artifact."""
        return list(self.indexes.producers_of.get(artifact_id, ()))

    def get_artifacts_by_id(self,
                            artifact_ids: Sequence[int]) -> list[Artifact]:
        """Batched artifact lookup."""
        return self.get_many("artifact", artifact_ids)

    def get_executions_by_id(self, execution_ids: Sequence[int]
                             ) -> list[Execution]:
        """Batched execution lookup."""
        return self.get_many("execution", execution_ids)

    def get_artifacts_by_context(self, context_id: int) -> list[Artifact]:
        """All artifacts attributed to a context — indexed."""
        self.indexes.context(context_id)
        return [self.indexes.artifacts[i]
                for i in self.indexes.artifacts_in_context.get(
                    context_id, ())]

    def get_executions_by_context(self,
                                  context_id: int) -> list[Execution]:
        """All executions associated with a context — indexed."""
        self.indexes.context(context_id)
        return [self.indexes.executions[i]
                for i in self.indexes.executions_in_context.get(
                    context_id, ())]

    def get_contexts_by_execution(self,
                                  execution_id: int) -> list[Context]:
        """Contexts an execution belongs to."""
        return [self.indexes.contexts[i]
                for i in self.indexes.contexts_of_execution.get(
                    execution_id, ())]

    def get_contexts_by_artifact(self, artifact_id: int) -> list[Context]:
        """Contexts an artifact belongs to."""
        return [self.indexes.contexts[i]
                for i in self.indexes.contexts_of_artifact.get(
                    artifact_id, ())]

    def get_attributions(self) -> list[tuple[int, int]]:
        """All (context_id, artifact_id) membership pairs."""
        return [(context_id, artifact_id)
                for context_id, members in
                self.indexes.artifacts_in_context.items()
                for artifact_id in members]

    def get_associations(self) -> list[tuple[int, int]]:
        """All (context_id, execution_id) membership pairs."""
        return [(context_id, execution_id)
                for context_id, members in
                self.indexes.executions_in_context.items()
                for execution_id in members]

    def get_telemetry(self, kind: str | None = None,
                      name: str | None = None) -> list[TelemetryRecord]:
        """All telemetry records, optionally filtered by kind and name."""
        rows = self.indexes.telemetry.values()
        if kind is not None:
            rows = (r for r in rows if r.kind == kind)
        if name is not None:
            rows = (r for r in rows if r.name == name)
        return list(rows)

    def get_telemetry_by_execution(self, execution_id: int
                                   ) -> list[TelemetryRecord]:
        """Telemetry rows describing one execution — indexed."""
        return [self.indexes.telemetry[i]
                for i in self.indexes.telemetry_of_execution.get(
                    execution_id, ())]

    def get_telemetry_by_context(self, context_id: int
                                 ) -> list[TelemetryRecord]:
        """Telemetry rows attached to one context — indexed."""
        return [self.indexes.telemetry[i]
                for i in self.indexes.telemetry_of_context.get(
                    context_id, ())]

    @property
    def num_artifacts(self) -> int:
        """Total artifacts."""
        return len(self.indexes.artifacts)

    @property
    def num_executions(self) -> int:
        """Total executions."""
        return len(self.indexes.executions)

    @property
    def num_events(self) -> int:
        """Total events."""
        return len(self.indexes.events)

    @property
    def num_telemetry(self) -> int:
        """Total telemetry records."""
        return len(self.indexes.telemetry)

    # ------------------------------------------------- typed filtered reads

    def artifacts(self, type_name: str | None = None,
                  state: str | None = None) -> list[Artifact]:
        """Artifacts filtered by type and/or state via secondary indexes."""
        ids = self._filtered_ids(self.indexes.artifacts,
                                 self.indexes.artifacts_by_type,
                                 self.indexes.artifacts_by_state,
                                 type_name, state)
        return [self.indexes.artifacts[i] for i in ids]

    def executions(self, type_name: str | None = None,
                   state: str | None = None) -> list[Execution]:
        """Executions filtered by type and/or state via secondary indexes."""
        ids = self._filtered_ids(self.indexes.executions,
                                 self.indexes.executions_by_type,
                                 self.indexes.executions_by_state,
                                 type_name, state)
        return [self.indexes.executions[i] for i in ids]

    def contexts(self, type_name: str | None = None) -> list[Context]:
        """Contexts filtered by type via the type index."""
        if type_name is None:
            return list(self.indexes.contexts.values())
        return [self.indexes.contexts[i]
                for i in self.indexes.contexts_by_type.get(type_name, ())]

    @staticmethod
    def _filtered_ids(all_nodes, by_type, by_state, type_name, state):
        if type_name is None and state is None:
            return list(all_nodes)
        if type_name is not None and state is not None:
            state_ids = by_state.get(state, ())
            return [i for i in by_type.get(type_name, ()) if i in state_ids]
        if type_name is not None:
            return list(by_type.get(type_name, ()))
        return list(by_state.get(state, ()))

    # ------------------------------------------------------- batched reads

    def get_many(self, kind: str, ids: Sequence[int]) -> list:
        """Batched point lookup of one node kind.

        ``kind`` is one of ``artifact`` / ``execution`` / ``context``;
        anything else raises :class:`InvalidQueryError`. Missing ids
        raise :class:`NotFoundError`, like the point lookups.
        """
        if kind == "artifact":
            lookup = self.indexes.artifact
        elif kind == "execution":
            lookup = self.indexes.execution
        elif kind == "context":
            lookup = self.indexes.context
        else:
            raise InvalidQueryError(
                f"unknown node kind {kind!r}; expected one of {NODE_KINDS}")
        return [lookup(i) for i in ids]

    def neighbors_many(self, relation: str,
                       ids: Sequence[int]) -> dict[int, list[int]]:
        """Batched adjacency: ``relation`` neighbors of every id.

        ``inputs`` / ``outputs`` take execution ids and return artifact
        ids; ``consumers`` / ``producers`` take artifact ids and return
        execution ids. Unknown relations raise
        :class:`InvalidQueryError`; unknown ids map to empty lists
        (a node with no edges is indistinguishable from one with none).
        """
        if relation == "inputs":
            adjacency = self.indexes.inputs_of
        elif relation == "outputs":
            adjacency = self.indexes.outputs_of
        elif relation == "consumers":
            adjacency = self.indexes.consumers_of
        elif relation == "producers":
            adjacency = self.indexes.producers_of
        else:
            raise InvalidQueryError(
                f"unknown relation {relation!r}; expected one of "
                f"{RELATIONS}")
        return {i: list(adjacency.get(i, ())) for i in ids}

    # ------------------------------------------------- cached segmentation

    def segment_pipeline(self, context_id: int) -> list[Graphlet]:
        """Graphlets of one pipeline, LRU-cached on (context, version).

        The cache key includes the current index version, so any store
        mutation invalidates by staleness: re-segmenting an unchanged
        pipeline is a dictionary hit, segmenting after a write recomputes.
        Returned graphlets read through this client, so their feature
        reads (waste extraction, diagnosis) hit the indexes too.
        """
        from ..graphlets.segmentation import segment_pipeline
        key = (context_id, self.indexes.version)
        cached = self._segment_cache.get(key)
        if cached is not None:
            self.segment_cache_hits += 1
            self._segment_cache.move_to_end(key)
            return list(cached)
        self.segment_cache_misses += 1
        graphlets = segment_pipeline(self, context_id)
        self._segment_cache[key] = tuple(graphlets)
        while len(self._segment_cache) > self._segment_cache_size:
            self._segment_cache.popitem(last=False)
        return graphlets

    def segment_corpus(self) -> dict[int, list[Graphlet]]:
        """Graphlets of every Pipeline context, via the cached segmenter."""
        return {context.id: self.segment_pipeline(context.id)
                for context in self.contexts("Pipeline")}

    # ------------------------------------------------- span digests

    def span_digest(self, artifact_id: int) -> SpanDigest:
        """The similarity digest of one DataSpan artifact, decoded once.

        The memo is dropped whenever the index version moves, like the
        segmentation cache, so a digest never outlives a store write.
        """
        if self._digests_version != self.indexes.version:
            self._digests.clear()
            self._digests_version = self.indexes.version
        digest = self._digests.get(artifact_id)
        if digest is None:
            from ..similarity.feature_metric import SpanDigest
            digest = SpanDigest.from_properties(
                self.get_artifact(artifact_id).properties)
            self._digests[artifact_id] = digest
        return digest


def as_client(store_or_client) -> MetadataClient:
    """Normalize a store-or-client argument to a :class:`MetadataClient`.

    Clients pass through untouched. A raw store gets a client built
    (one full scan) and cached on the store instance, so repeated calls
    — every analysis entry point funnels through here — share one
    incrementally-maintained index set.
    """
    if isinstance(store_or_client, MetadataClient):
        return store_or_client
    client = getattr(store_or_client, _CLIENT_ATTR, None)
    if client is None:
        client = MetadataClient(store_or_client)
        setattr(store_or_client, _CLIENT_ATTR, client)
    return client
