"""Graphlet segmentation of pipeline traces (Section 4.1, Appendix A).

Given a Trainer execution ``n``, its graphlet comprises:

  (a) all ancestor executions of ``n`` (and their input/output artifacts),
      where ancestor traversal *cuts* at other Trainer executions — a
      warm-start or model-chaining edge is a boundary between graphlets
      (the paper's Figure 8 cut);
  (b) all data-analysis/-validation executions performed on data spans
      (or artifacts) already collected by rule (a), plus their
      input/output artifacts — these validators gate training without
      being data ancestors of the Trainer;
  (c) all descendant executions of ``n`` that are not on paths to other
      Trainer executions — implemented per Appendix A with the stop
      predicate ``sc`` = {Trainer, Transform} executions.

The imperative implementation here is the production path;
:mod:`repro.graphlets.datalog_rules` runs the same queries on the
Datalog engine and the test-suite checks equivalence.

Entry points accept a raw store or a :class:`~repro.query.MetadataClient`.
Raw stores are routed through :func:`repro.query.as_client`, so
:func:`segment_pipeline` / :func:`segment_corpus` hit the client's LRU
segmentation cache (keyed on context id + store version) on repeated
calls. The walks themselves read the adjacency maps of the client's
in-memory store (:attr:`~repro.query.MetadataClient.index`) directly.
"""

from __future__ import annotations

from collections import deque

from ..mlmd import MetadataStore
from ..mlmd.errors import InvalidQueryError
from ..obs.metrics import get_registry
from ..obs.tracing import span
from ..query import MetadataClient, as_client
from .graphlet import STOP_TYPES, Graphlet


def _ancestor_executions(index: MetadataStore, trainer_id: int
                         ) -> set[int]:
    """Rule (a) executions: ancestors, cutting at other Trainers."""
    inputs_of, producers_of = index.inputs_of, index.producers_of
    executions = index.executions_by_id
    seen: set[int] = set()
    frontier = deque([trainer_id])
    while frontier:
        current = frontier.popleft()
        for artifact_id in inputs_of.get(current, ()):
            for producer in producers_of.get(artifact_id, ()):
                if producer in seen or producer == trainer_id:
                    continue
                if executions[producer].type_name == "Trainer":
                    continue  # Warm-start / chaining cut.
                seen.add(producer)
                frontier.append(producer)
    return seen


def _descendant_executions(index: MetadataStore, trainer_id: int
                           ) -> set[int]:
    """Rule (c) executions: descendants, stopping at sc nodes."""
    outputs_of, consumers_of = index.outputs_of, index.consumers_of
    executions = index.executions_by_id
    seen: set[int] = set()
    frontier = deque([trainer_id])
    while frontier:
        current = frontier.popleft()
        for artifact_id in outputs_of.get(current, ()):
            for consumer in consumers_of.get(artifact_id, ()):
                if consumer in seen or consumer == trainer_id:
                    continue
                if executions[consumer].type_name in STOP_TYPES:
                    continue
                seen.add(consumer)
                frontier.append(consumer)
    return seen


def _foreign_model(index: MetadataStore, artifact_id: int,
                   execution_ids: set[int]) -> bool:
    """A Model produced only outside ``execution_ids``: a cut warm-start
    input that belongs to the neighboring graphlet."""
    if index.artifacts_by_id[artifact_id].type_name \
            not in ("Model", "PushedModel"):
        return False
    producers = index.producers_of.get(artifact_id, ())
    return bool(producers) and execution_ids.isdisjoint(producers)


def _data_analysis_closure(index: MetadataStore,
                           analysis_consumers: dict[int, list[int]],
                           execution_ids: set[int]) -> None:
    """Rule (b): add data-analysis/validation executions that consume
    artifacts of ``execution_ids``, in place, to a fixpoint.
    ``analysis_consumers`` maps an artifact to its data-analysis
    consumers (:meth:`~repro.query.MetadataClient.analysis_consumers`),
    so a span's many Trainer and Transform consumers are never scanned.

    Each round expands only the executions the previous round added, so
    analysis chains (span → statistics → schema → validation) are
    captured whole without rescanning the graphlet. A foreign Model
    skipped in one round is seen again if its producer joins later,
    because it is then an output of an added execution.
    """
    inputs_of, outputs_of = index.inputs_of, index.outputs_of
    added = list(execution_ids)
    while added:
        frontier, added = added, []
        for execution_id in frontier:
            for artifact_id in (*inputs_of.get(execution_id, ()),
                                *outputs_of.get(execution_id, ())):
                for consumer in analysis_consumers.get(artifact_id, ()):
                    if consumer in execution_ids:
                        continue
                    if _foreign_model(index, artifact_id, execution_ids):
                        continue
                    execution_ids.add(consumer)
                    added.append(consumer)


def _io_artifacts(index: MetadataStore, execution_ids: set[int]
                  ) -> set[int]:
    """Input/output artifacts of the executions, without foreign
    Models (see :func:`_foreign_model`)."""
    artifact_ids: set[int] = set()
    for execution_id in execution_ids:
        artifact_ids.update(index.inputs_of.get(execution_id, ()))
        artifact_ids.update(index.outputs_of.get(execution_id, ()))
    return {artifact_id for artifact_id in artifact_ids
            if not _foreign_model(index, artifact_id, execution_ids)}


def segment_trainer(store: MetadataStore, trainer_id: int,
                    pipeline_context_id: int) -> Graphlet:
    """Extract the graphlet of one Trainer execution."""
    client = as_client(store)
    trainer = client.get_execution(trainer_id)
    if trainer.type_name != "Trainer":
        raise InvalidQueryError(
            f"execution {trainer_id} is a {trainer.type_name}, not a Trainer")
    index = client.index
    executions = {trainer_id}
    executions |= _ancestor_executions(index, trainer_id)
    executions |= _descendant_executions(index, trainer_id)
    _data_analysis_closure(index, client.analysis_consumers(), executions)
    return Graphlet(store=client, pipeline_context_id=pipeline_context_id,
                    trainer_execution_id=trainer_id,
                    execution_ids=executions,
                    artifact_ids=_io_artifacts(index, executions))


def segment_pipeline(store: MetadataStore,
                     pipeline_context_id: int) -> list[Graphlet]:
    """All graphlets of one pipeline, in chronological trainer order.

    Chronological order is what defines *consecutive graphlets*
    (Section 4.2) for the similarity and cadence analyses.

    Raw stores are routed through the client's LRU-cached segmenter;
    the computation below runs on cache misses (the client calls back
    in with itself as ``store``).
    """
    if not isinstance(store, MetadataClient):
        return as_client(store).segment_pipeline(pipeline_context_id)
    registry = get_registry()
    with span("graphlets.segment_pipeline",
              context_id=pipeline_context_id), \
            registry.timer("graphlets.segment_pipeline_seconds"):
        trainers = [
            e for e in store.get_executions_by_context(pipeline_context_id)
            if e.type_name == "Trainer"
        ]
        trainers.sort(key=lambda e: (e.start_time, e.id))
        graphlets = [segment_trainer(store, t.id, pipeline_context_id)
                     for t in trainers]
    registry.counter("graphlets.segmented").inc(len(graphlets))
    return graphlets


def segment_corpus(store: MetadataStore) -> dict[int, list[Graphlet]]:
    """Graphlets of every pipeline in the store, keyed by context id."""
    return as_client(store).segment_corpus()


def consecutive_pairs(graphlets: list[Graphlet]
                      ) -> list[tuple[Graphlet, Graphlet]]:
    """Adjacent-in-time graphlet pairs of one pipeline (Section 4.2)."""
    return list(zip(graphlets, graphlets[1:]))
