"""Lineage traversal over a metadata store.

These queries are the building blocks of the paper's trace analysis: the
graphlet segmentation (Section 4.1) is defined in terms of ancestor and
descendant executions of a Trainer execution, and the pipeline-level
analysis (Section 3) needs node counts and lifespans.

The trace is a bipartite DAG: artifact and execution nodes, with events as
edges. We expose traversals in terms of *execution* frontiers (as the
paper's rules do) while carrying the artifacts along.

Every function accepts anything that speaks the MLMD read protocol
(:class:`~repro.mlmd.store.MetadataReader`): a
:class:`~repro.mlmd.store.MetadataStore` or a
:class:`~repro.query.MetadataClient`. The ancestor and descendant walks
read the adjacency maps of its in-memory store (``store.index``)
directly.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .store import MetadataReader


def upstream_executions(
    store: MetadataReader,
    execution_id: int,
    stop: Callable[[int], bool] | None = None,
) -> set[int]:
    """All ancestor execution ids of ``execution_id`` (exclusive).

    An execution ``p`` is an ancestor of ``n`` if an output artifact of
    ``p`` is an input (possibly transitively) of ``n``. ``stop(eid)`` may
    prune traversal *through* an execution: the execution itself is still
    reported, but its ancestors are not explored.
    """
    index = store.index
    inputs_of, producers_of = index.inputs_of, index.producers_of
    seen: set[int] = set()
    frontier = deque([execution_id])
    while frontier:
        current = frontier.popleft()
        for artifact_id in inputs_of.get(current, ()):
            for producer in producers_of.get(artifact_id, ()):
                if producer in seen or producer == execution_id:
                    continue
                seen.add(producer)
                if stop is not None and stop(producer):
                    continue
                frontier.append(producer)
    return seen


def downstream_executions(
    store: MetadataReader,
    execution_id: int,
    stop: Callable[[int], bool] | None = None,
) -> set[int]:
    """All descendant execution ids of ``execution_id`` (exclusive).

    Mirror image of :func:`upstream_executions`. ``stop`` prunes traversal
    through (but not reporting of) an execution.
    """
    index = store.index
    outputs_of, consumers_of = index.outputs_of, index.consumers_of
    seen: set[int] = set()
    frontier = deque([execution_id])
    while frontier:
        current = frontier.popleft()
        for artifact_id in outputs_of.get(current, ()):
            for consumer in consumers_of.get(artifact_id, ()):
                if consumer in seen or consumer == execution_id:
                    continue
                seen.add(consumer)
                if stop is not None and stop(consumer):
                    continue
                frontier.append(consumer)
    return seen


def trace_node_count(store: MetadataReader,
                     context_id: int) -> int:
    """Total artifact + execution nodes attributed to a context.

    This is the per-pipeline "trace size" statistic reported in
    Sections 2.2 and 3.1 (max 6953 nodes in the paper's corpus).
    """
    artifacts = store.get_artifacts_by_context(context_id)
    executions = store.get_executions_by_context(context_id)
    return len(artifacts) + len(executions)


def trace_lifespan_days(store: MetadataReader,
                        context_id: int) -> float:
    """Lifespan of a pipeline trace in days (Section 3.1 definition).

    The count of days between the timestamps of the newest and oldest
    nodes in the trace. Artifact timestamps are creation times; execution
    timestamps are start/end times.
    """
    times: list[float] = []
    for artifact in store.get_artifacts_by_context(context_id):
        times.append(artifact.create_time)
    for execution in store.get_executions_by_context(context_id):
        times.append(execution.start_time)
        if execution.end_time:
            times.append(execution.end_time)
    if not times:
        return 0.0
    return (max(times) - min(times)) / 24.0
