"""Trace querying and summarization.

Section 3.1: "Tools to efficiently query or summarize these complex
traces can become indispensable for humans to debug or manage these
pipelines." This module provides the summary technique the paper's
related work cites, **aggregation by provenance type** (Moreau, GaM
2015): collapse the trace to one node per (node kind, type) with edge
multiplicities — a bounded-size summary regardless of trace size.
Reachability questions ("which models did this span feed?") are
answered by :func:`repro.mlmd.lineage.downstream_executions`.

The entry point accepts a :class:`~repro.mlmd.store.MetadataStore` or
a :class:`~repro.query.MetadataClient`; both answer the same read
protocol over the store's own maps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .store import MetadataReader


@dataclass
class TypeSummary:
    """Type-level aggregation of a trace (bounded-size summary graph).

    Attributes:
        artifact_counts: Artifact type → node count.
        execution_counts: Execution type → node count.
        edge_counts: (source type, target type) → edge multiplicity,
            where execution→artifact edges are outputs and
            artifact→execution edges are inputs.
        cached_executions: Executions served from the execution cache
            (``ExecutionState.CACHED``) — the paper reports this
            fraction fleet-wide as the redundancy it motivates
            eliminating.
    """

    artifact_counts: dict[str, int] = field(default_factory=dict)
    execution_counts: dict[str, int] = field(default_factory=dict)
    edge_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    cached_executions: int = 0

    @property
    def node_count(self) -> int:
        """Total summary nodes (== number of distinct types)."""
        return len(self.artifact_counts) + len(self.execution_counts)

    @property
    def cached_fraction(self) -> float:
        """Cache-served share of all executions (0.0 on empty traces)."""
        total = sum(self.execution_counts.values())
        return self.cached_executions / total if total else 0.0

    def render(self) -> str:
        """Human-readable summary listing."""
        lines = ["artifacts:"]
        for name, count in sorted(self.artifact_counts.items()):
            lines.append(f"  {name} x{count}")
        lines.append("executions:")
        for name, count in sorted(self.execution_counts.items()):
            lines.append(f"  {name} x{count}")
        lines.append("edges:")
        for (src, dst), count in sorted(self.edge_counts.items()):
            lines.append(f"  {src} -> {dst} x{count}")
        if self.cached_executions:
            lines.append(f"cached executions: {self.cached_executions} "
                         f"({self.cached_fraction:.1%})")
        return "\n".join(lines)


def summarize_by_type(store: MetadataReader,
                      context_id: int | None = None) -> TypeSummary:
    """Aggregate a trace (or one pipeline's trace) by node type."""
    if context_id is None:
        artifacts = store.get_artifacts()
        executions = store.get_executions()
    else:
        artifacts = store.get_artifacts_by_context(context_id)
        executions = store.get_executions_by_context(context_id)
    artifact_types = {a.id: a.type_name for a in artifacts}
    execution_types = {e.id: e.type_name for e in executions}

    summary = TypeSummary(
        artifact_counts=dict(Counter(artifact_types.values())),
        execution_counts=dict(Counter(execution_types.values())),
        cached_executions=sum(1 for e in executions
                              if e.state.value == "cached"))
    edges: Counter = Counter()
    for execution in executions:
        execution_type = execution_types[execution.id]
        for artifact_id in store.get_input_artifact_ids(execution.id):
            artifact_type = artifact_types.get(artifact_id)
            if artifact_type is not None:
                edges[(artifact_type, execution_type)] += 1
        for artifact_id in store.get_output_artifact_ids(execution.id):
            artifact_type = artifact_types.get(artifact_id)
            if artifact_type is not None:
                edges[(execution_type, artifact_type)] += 1
    summary.edge_counts = dict(edges)
    return summary
