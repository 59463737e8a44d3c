"""The MetadataClient facade: one read path for every analysis.

Every analysis in the paper — graphlet segmentation, lineage walks,
pipeline-level statistics, diagnosis, waste features — is a read over
the metadata store. :class:`MetadataClient` is the versioned query API
those layers consume. It keeps no index of its own: over the in-memory
:class:`~repro.mlmd.store.MetadataStore` it reads that store's
adjacency, membership and telemetry maps directly, and over a
:class:`~repro.mlmd.sqlite_store.SqliteStore` handle on a saved
database it reads one in-memory copy, loaded when the client is built.
The MLMD reads (``get_artifact`` … ``num_telemetry``) are the store's
own, inherited from :class:`~repro.mlmd.store.MetadataReader`, so a
client can be passed anywhere a store is read from — including
``Graphlet.store`` — with every lookup a dictionary hit. On top of
them the client adds

* filtered reads (:meth:`artifacts` / :meth:`executions` /
  :meth:`contexts`), the one spelling of a type or state filter;
* an LRU-cached graphlet segmenter (:meth:`segment_pipeline`) keyed on
  ``(context_id, store version)`` so repeated segmentation of an
  unchanged pipeline is a dictionary hit;
* the derived read-side facts, each built once per store version and
  dropped when the version moves: the span-digest memo
  (:meth:`span_digest`), one span-pair similarity memo shared by every
  analysis (:attr:`span_pairs`), per-execution facts
  (:meth:`execution_facts`) and the data-analysis consumers of each
  artifact (:meth:`analysis_consumers`), which segmentation's rule (b)
  reads.

:func:`as_client` builds (and caches) the one client of a store for
callers that use these additions; it passes clients through untouched.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Collection
from typing import TYPE_CHECKING, NamedTuple

from ..mlmd.sqlite_store import SqliteStore, load_store
from ..mlmd.store import MetadataReader, MetadataStore
from ..mlmd.types import Artifact, Context, Execution

if TYPE_CHECKING:
    from ..graphlets.graphlet import Graphlet
    from ..similarity.feature_metric import SpanDigest
    from ..similarity.span_metric import SpanPairCache

#: Attribute under which :func:`as_client` caches the default client on
#: a raw store instance.
_CLIENT_ATTR = "_repro_default_client"

#: Pipelines whose graphlet lists one client's segmentation cache keeps.
SEGMENT_CACHE_SIZE = 64


class ExecutionFacts(NamedTuple):
    """What the graphlet analyses read of one execution."""

    type_name: str
    #: Feature-extraction stage of the execution's operator group.
    stage: str
    #: Input and output artifact counts.
    n_in: int
    n_out: int
    #: Operator group (``"custom"`` when unrecorded).
    group: str
    cpu_hours: float


class MetadataClient(MetadataReader):
    """Read-only query facade over one metadata store.

    It inherits the store's read protocol
    (:class:`~repro.mlmd.store.MetadataReader`) over :attr:`index`, an
    in-memory :class:`~repro.mlmd.store.MetadataStore`, and its reads
    count into that store's ``mlmd.ops`` counters. Over a
    ``MetadataStore`` the index is the store itself: the client reads
    its maps and holds no copy of them. Over a
    :class:`~repro.mlmd.sqlite_store.SqliteStore` handle it is one
    :func:`~repro.mlmd.sqlite_store.load_store` copy of the database,
    taken here; it keeps the database's ids, and since nothing writes
    through the handle it never goes stale.
    """

    #: Version of the query API surface. Bumped on breaking changes;
    #: tools/api_snapshot.py guards the surface itself.
    API_VERSION = 6

    def __init__(self, store: MetadataStore | SqliteStore) -> None:
        self.store = store
        self.index = store if isinstance(store, MetadataStore) \
            else load_store(store.path)
        self._ops_get_node = self.index._ops_get_node
        self._ops_lineage = self.index._ops_lineage
        self._segment_cache: OrderedDict[tuple[int, int], tuple] = \
            OrderedDict()
        self.segment_cache_hits = 0
        self.segment_cache_misses = 0
        self._memo_version = -1
        self._fresh()

    @property
    def version(self) -> int:
        """The index's write counter; cache keys include it."""
        return self.index.version

    # ------------------------------------------------- typed filtered reads

    def artifacts(self, type_name: str | None = None,
                  state: str | None = None) -> list[Artifact]:
        """Artifacts of one type and/or state, in id order (a scan)."""
        return _matching(self.index.artifacts_by_id, type_name, state)

    def executions(self, type_name: str | None = None,
                   state: str | None = None) -> list[Execution]:
        """Executions of one type and/or state, in id order (a scan)."""
        return _matching(self.index.executions_by_id, type_name, state)

    def contexts(self, type_name: str | None = None) -> list[Context]:
        """Contexts of one type, in id order (a scan)."""
        return _matching(self.index.contexts_by_id, type_name, None)

    # ------------------------------------------------- cached segmentation

    def segment_pipeline(self, context_id: int) -> list[Graphlet]:
        """Graphlets of one pipeline, LRU-cached on (context, version).

        The cache key includes the store's current version, so any
        store write invalidates by staleness: re-segmenting an unchanged
        pipeline is a dictionary hit, segmenting after a write
        recomputes. Returned graphlets read through this client.
        """
        from ..graphlets.segmentation import segment_pipeline
        key = (context_id, self.version)
        cached = self._segment_cache.get(key)
        if cached is not None:
            self.segment_cache_hits += 1
            self._segment_cache.move_to_end(key)
            return list(cached)
        self.segment_cache_misses += 1
        graphlets = segment_pipeline(self, context_id)
        self._segment_cache[key] = tuple(graphlets)
        while len(self._segment_cache) > SEGMENT_CACHE_SIZE:
            self._segment_cache.popitem(last=False)
        return graphlets

    def segment_corpus(self) -> dict[int, list[Graphlet]]:
        """Graphlets of every Pipeline context, via the cached segmenter."""
        return {context.id: self.segment_pipeline(context.id)
                for context in self.contexts("Pipeline")}

    # ------------------------------------------------- derived facts

    def _fresh(self) -> None:
        """Drop every derived memo if the store's version has moved, so
        no memo outlives a write."""
        version = self.version
        if self._memo_version == version:
            return
        self._memo_version = version
        self._digests: dict[int, SpanDigest] = {}
        self._span_pairs: SpanPairCache | None = None
        self._facts: dict[int, ExecutionFacts] = {}
        self._analysis_consumers: dict[int, list[int]] | None = None

    def span_digest(self, artifact_id: int) -> SpanDigest:
        """The similarity digest of one DataSpan artifact, decoded once."""
        self._fresh()
        digest = self._digests.get(artifact_id)
        if digest is None:
            from ..similarity.feature_metric import SpanDigest
            digest = SpanDigest.from_properties(
                self.get_artifact(artifact_id).properties)
            self._digests[artifact_id] = digest
        return digest

    @property
    def span_pairs(self) -> SpanPairCache:
        """The span-pair similarity memo (default weights) that Table 1,
        Table 2 and the waste features share, so each distinct span pair
        is scored once per store version."""
        self._fresh()
        if self._span_pairs is None:
            from ..similarity.span_metric import SpanPairCache
            self._span_pairs = SpanPairCache()
        return self._span_pairs

    def execution_facts(self, execution_ids: Collection[int]
                        ) -> list[ExecutionFacts]:
        """The :class:`ExecutionFacts` of each execution, in the given
        order, each read off the store once. Missing ids raise
        :class:`~repro.mlmd.errors.NotFoundError`."""
        self._fresh()
        facts = self._facts
        try:
            return [facts[i] for i in execution_ids]
        except KeyError:
            pass
        from ..graphlets.features import stage_of_group
        index = self.index
        for i in execution_ids:
            if i not in facts:
                execution = self.get_execution(i)
                group = str(execution.get("group", "custom"))
                facts[i] = ExecutionFacts(
                    execution.type_name, stage_of_group(group),
                    len(index.inputs_of.get(i, ())),
                    len(index.outputs_of.get(i, ())), group,
                    float(execution.get("cpu_hours", 0.0)))
        return [facts[i] for i in execution_ids]

    def analysis_consumers(self) -> dict[int, list[int]]:
        """Each artifact's data-analysis/validation consumers (the
        executions segmentation's rule (b) adds), in consumer order;
        artifacts without any are absent."""
        self._fresh()
        if self._analysis_consumers is None:
            from ..graphlets.graphlet import DATA_ANALYSIS_TYPES
            index = self.index
            analysis = {i for i, execution in index.executions_by_id.items()
                        if execution.type_name in DATA_ANALYSIS_TYPES}
            consumers = {}
            for artifact_id, executions in index.consumers_of.items():
                found = [i for i in executions if i in analysis]
                if found:
                    consumers[artifact_id] = found
            self._analysis_consumers = consumers
        return self._analysis_consumers


def _matching(nodes: dict, type_name: str | None,
              state: str | None) -> list:
    """The nodes of ``nodes`` with that type and state, in id order."""
    return [node for node in nodes.values()
            if (type_name is None or node.type_name == type_name)
            and (state is None or node.state.value == state)]


def as_client(store_or_client) -> MetadataClient:
    """Normalize a store-or-client argument to a :class:`MetadataClient`.

    Clients pass through untouched. A raw store gets a client built
    and cached on the store instance, so repeated calls — every
    analysis entry point funnels through here — share one segmentation
    cache and one set of derived-fact memos.
    """
    if isinstance(store_or_client, MetadataClient):
        return store_or_client
    client = getattr(store_or_client, _CLIENT_ATTR, None)
    if client is None:
        client = MetadataClient(store_or_client)
        setattr(store_or_client, _CLIENT_ATTR, client)
    return client
