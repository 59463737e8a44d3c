"""Pipeline DSL: operators wired in a producer/consumer graph.

A :class:`PipelineDef` is the authored artifact of Section 2.1: a typed
DAG of operators. Wiring is validated at authoring time ("type-checked").
Each node additionally declares:

* ``stage`` — ``"ingest"`` nodes run on every trigger (per-span work:
  ExampleGen, StatisticsGen, ...); ``"train"`` nodes run only on training
  triggers (every k-th span), producing the per-model subgraph.
* ``window`` per input — how many of the source's most recent output
  artifacts to consume, implementing rolling windows over data spans and
  warm-starting (a node may reference its *own* previous outputs).
* ``gates`` — validation nodes whose failing check blocks this node
  without creating artifact edges, mirroring TFX orchestration (this is
  why graphlet rule (b) exists: gating validators are not data ancestors
  of the Trainer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .operators.base import Operator

INGEST_STAGE = "ingest"
TRAIN_STAGE = "train"


@dataclass(frozen=True)
class NodeInput:
    """One wired input: take the source's last ``window`` outputs.

    Attributes:
        source: Producing node id (may be the consuming node itself, in
            which case only *previous* runs' outputs are visible —
            warm-start wiring).
        key: Output key on the source operator.
        window: Number of most recent artifacts to consume.
        fresh: When True (default) the source must have produced output in
            the current run, otherwise this node is skipped; when False,
            historical artifacts suffice (warm-start, slowly-updated
            schemas).
    """

    source: str
    key: str
    window: int = 1
    fresh: bool = True

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass
class PipelineNode:
    """One operator instance in the pipeline graph."""

    node_id: str
    operator: Operator
    inputs: dict[str, NodeInput] = field(default_factory=dict)
    gates: list[str] = field(default_factory=list)
    stage: str = TRAIN_STAGE

    def __post_init__(self) -> None:
        if self.stage not in (INGEST_STAGE, TRAIN_STAGE):
            raise ValueError(f"unknown stage {self.stage!r}")


class PipelineValidationError(ValueError):
    """Raised when a pipeline definition is mis-wired."""


@dataclass
class PipelineDef:
    """A validated pipeline graph.

    Example:
        >>> from repro.tfx.operators import ExampleGen, Trainer, Pusher
        >>> pipeline = PipelineDef("demo", [
        ...     PipelineNode("gen", ExampleGen(), stage="ingest"),
        ...     PipelineNode("trainer", Trainer(), inputs={
        ...         "spans": NodeInput("gen", "span", window=2)}),
        ...     PipelineNode("pusher", Pusher(), inputs={
        ...         "model": NodeInput("trainer", "model")}),
        ... ])
        >>> [n.node_id for n in pipeline.topological_order()]
        ['gen', 'trainer', 'pusher']
    """

    name: str
    nodes: list[PipelineNode]

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------

    def node(self, node_id: str) -> PipelineNode:
        """Return the node with the given id."""
        for candidate in self.nodes:
            if candidate.node_id == node_id:
                return candidate
        raise KeyError(f"no node {node_id!r} in pipeline {self.name!r}")

    def validate(self) -> None:
        """Check ids, wiring types, gates, and acyclicity."""
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise PipelineValidationError("duplicate node ids")
        by_id = {n.node_id: n for n in self.nodes}
        for node in self.nodes:
            operator = node.operator
            for key, spec in node.inputs.items():
                if key not in operator.input_types:
                    raise PipelineValidationError(
                        f"{node.node_id}: operator {operator.name} has no "
                        f"input {key!r}")
                if spec.source not in by_id:
                    raise PipelineValidationError(
                        f"{node.node_id}: unknown source {spec.source!r}")
                source_op = by_id[spec.source].operator
                if spec.key not in source_op.output_types:
                    raise PipelineValidationError(
                        f"{node.node_id}: source {spec.source} has no "
                        f"output {spec.key!r}")
                expected = operator.input_types[key]
                produced = source_op.output_types[spec.key]
                if expected != produced:
                    raise PipelineValidationError(
                        f"{node.node_id}.{key} expects {expected} but "
                        f"{spec.source}.{spec.key} produces {produced}")
                if spec.source == node.node_id and spec.fresh:
                    raise PipelineValidationError(
                        f"{node.node_id}: self-referencing input {key!r} "
                        "must be fresh=False")
            missing_required = (
                set(operator.input_types)
                - set(node.inputs)
                - set(operator.optional_inputs))
            if missing_required:
                raise PipelineValidationError(
                    f"{node.node_id}: unwired required inputs "
                    f"{sorted(missing_required)}")
            for gate in node.gates:
                if gate not in by_id:
                    raise PipelineValidationError(
                        f"{node.node_id}: unknown gate {gate!r}")
        self.topological_order()  # Raises on cycles.

    def topological_order(self) -> list[PipelineNode]:
        """Nodes in dependency order (self-references excluded)."""
        by_id = {n.node_id: n for n in self.nodes}
        dependencies: dict[str, set[str]] = {n.node_id: set()
                                             for n in self.nodes}
        for node in self.nodes:
            for spec in node.inputs.values():
                if spec.source != node.node_id:
                    dependencies[node.node_id].add(spec.source)
            for gate in node.gates:
                if gate != node.node_id:
                    dependencies[node.node_id].add(gate)
        ordered: list[PipelineNode] = []
        satisfied: set[str] = set()
        remaining = dict(dependencies)
        while remaining:
            ready = sorted(node_id for node_id, deps in remaining.items()
                           if deps <= satisfied)
            if not ready:
                raise PipelineValidationError(
                    f"cycle detected among {sorted(remaining)}")
            for node_id in ready:
                ordered.append(by_id[node_id])
                satisfied.add(node_id)
                del remaining[node_id]
        return ordered

    def trainer_node_ids(self) -> list[str]:
        """Ids of all Trainer nodes (A/B pipelines have several)."""
        return [n.node_id for n in self.nodes
                if n.operator.name == "Trainer"]
