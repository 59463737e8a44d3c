"""Graphlet diagnosis over telemetry joined through the provenance graph.

Once :mod:`repro.obs.provenance` has persisted telemetry into the MLMD
store, every measurement is joinable to its execution, its artifacts,
and — after segmentation — its model graphlet. This module is the query
layer over that joined view, mirroring how the paper reads provenance
traces to explain where pipelines spend and waste compute:

* :func:`critical_path` — the longest dependency chain through a
  graphlet's execution DAG, weighted by simulated wall time.
* :func:`top_cost_sinks` — the executions dominating compute cost.
* :func:`pipeline_cost_split` — wasted-vs-useful attribution of every
  CPU-hour a pipeline recorded, reusing the waste package's labels
  (pushed graphlets are useful; unpushed compute is wasted unless the
  pipeline warm-starts, in which case skipping it is unsafe and the
  compute is *protected*). The split reconciles exactly with the
  pipeline's total recorded cost.
* :func:`operator_stats` / :func:`find_regressions` — fleet-level
  per-operator-type distributions from persisted ``node`` telemetry,
  and p95 drift detection between two corpus runs.
* :func:`resource_attribution` — per-operator wall vs CPU
  decomposition from the ``cpu_seconds`` property the runtime persists
  (see :mod:`repro.obs.resources`), labelling each operator cpu-bound,
  mixed, or idle.
* :func:`diagnose_pipeline` — the one-call roll-up behind
  ``repro diagnose``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from ..graphlets.graphlet import Graphlet
from ..mlmd.store import MetadataStore
from ..mlmd.types import Execution
from ..query import as_client
from ..waste.dataset import pipeline_uses_warmstart
from .provenance import NODE_KIND

__all__ = [
    "CostSplit",
    "CriticalPath",
    "FailureRecord",
    "OperatorStats",
    "PipelineDiagnosis",
    "RegressionFlag",
    "ResourceUsage",
    "collect_failures",
    "critical_path",
    "diagnose_pipeline",
    "execution_dag",
    "find_regressions",
    "operator_stats",
    "pipeline_cost_split",
    "resource_attribution",
    "top_cost_sinks",
]


# ------------------------------------------------------------------ DAG


def execution_dag(store: MetadataStore, execution_ids: set[int]
                  ) -> dict[int, list[int]]:
    """Producer → consumer edges among the given executions.

    An edge p → c exists when any artifact produced by p is consumed
    by c; both endpoints must be in ``execution_ids``.
    """
    store = as_client(store)
    successors: dict[int, list[int]] = {e: [] for e in execution_ids}
    for producer in execution_ids:
        seen: set[int] = set()
        for artifact_id in store.get_output_artifact_ids(producer):
            for consumer in store.get_consumer_execution_ids(artifact_id):
                if consumer in execution_ids and consumer != producer \
                        and consumer not in seen:
                    seen.add(consumer)
                    successors[producer].append(consumer)
    return successors


@dataclass
class CriticalPath:
    """The longest dependency chain through a graphlet.

    Attributes:
        execution_ids: Path nodes in dependency order.
        duration_hours: Sum of node durations along the path. Always
            ≤ the graphlet's end-to-end wall time: consecutive path
            nodes execute sequentially (a consumer starts no earlier
            than its producer finished).
        graphlet_duration_hours: The graphlet's end-to-end wall time,
            for the slack comparison.
    """

    execution_ids: list[int] = field(default_factory=list)
    duration_hours: float = 0.0
    graphlet_duration_hours: float = 0.0

    @property
    def slack_hours(self) -> float:
        """Wall time not explained by the critical path (queuing etc.)."""
        return max(self.graphlet_duration_hours - self.duration_hours, 0.0)


def critical_path(graphlet: Graphlet) -> CriticalPath:
    """Extract the duration-weighted critical path of one graphlet.

    Longest-path DP over the execution DAG in topological order; node
    weight is the execution's simulated duration (end − start hours).
    """
    store = graphlet.store
    nodes = set(graphlet.execution_ids)
    if not nodes:
        return CriticalPath()
    successors = execution_dag(store, nodes)
    indegree = {e: 0 for e in nodes}
    for targets in successors.values():
        for target in targets:
            indegree[target] += 1
    duration = {e: store.get_execution(e).duration for e in nodes}
    best = dict(duration)
    came_from: dict[int, int | None] = {e: None for e in nodes}
    frontier = deque(sorted(e for e in nodes if indegree[e] == 0))
    while frontier:
        current = frontier.popleft()
        for target in successors[current]:
            candidate = best[current] + duration[target]
            if candidate > best[target]:
                best[target] = candidate
                came_from[target] = current
            indegree[target] -= 1
            if indegree[target] == 0:
                frontier.append(target)
    # A provenance trace is a DAG by construction; any node left with a
    # positive indegree (malformed input) simply keeps its own weight.
    tail = max(best, key=lambda e: (best[e], -e))
    path: list[int] = []
    cursor: int | None = tail
    while cursor is not None:
        path.append(cursor)
        cursor = came_from[cursor]
    path.reverse()
    return CriticalPath(execution_ids=path, duration_hours=best[tail],
                        graphlet_duration_hours=graphlet.duration_hours)


# ----------------------------------------------------------- cost sinks


def top_cost_sinks(store: MetadataStore, execution_ids,
                   k: int = 5) -> list[tuple[Execution, float]]:
    """The k most expensive executions, by recorded cpu_hours."""
    executions = as_client(store).get_executions_by_id(list(execution_ids))
    rows = [(e, float(e.get("cpu_hours", 0.0))) for e in executions]
    rows.sort(key=lambda pair: (-pair[1], pair[0].id))
    return rows[:k]


# ----------------------------------------------------------- cost split


@dataclass
class CostSplit:
    """Wasted-vs-useful attribution of a pipeline's recorded compute.

    Every execution is attributed exactly once, so
    ``useful + wasted + protected + unattributed == total`` (the
    pipeline's total recorded cpu_hours) up to float addition.
    """

    useful: float = 0.0
    wasted: float = 0.0
    protected: float = 0.0
    unattributed: float = 0.0

    @property
    def total(self) -> float:
        """Total attributed cpu_hours."""
        return self.useful + self.wasted + self.protected \
            + self.unattributed


def pipeline_cost_split(store: MetadataStore, context_id: int,
                        graphlets: list[Graphlet]) -> CostSplit:
    """Split one pipeline's recorded compute into waste buckets.

    Labels follow :mod:`repro.waste`: compute in any pushed graphlet is
    useful; compute only in unpushed graphlets is wasted — unless the
    pipeline warm-starts (``pipeline_uses_warmstart``), where unpushed
    graphlets transitively feed later pushed models and skipping them
    is unsafe, so their compute is *protected* rather than wasted.
    Executions in no graphlet (e.g. ingest runs after the last trainer)
    are unattributed.
    """
    store = as_client(store)
    pushed_members: set[int] = set()
    unpushed_members: set[int] = set()
    for graphlet in graphlets:
        target = pushed_members if graphlet.pushed else unpushed_members
        target.update(graphlet.execution_ids)
    protected_pipeline = pipeline_uses_warmstart(graphlets)
    split = CostSplit()
    for execution in store.get_executions_by_context(context_id):
        cost = float(execution.get("cpu_hours", 0.0))
        if execution.id in pushed_members:
            split.useful += cost
        elif execution.id in unpushed_members:
            if protected_pipeline:
                split.protected += cost
            else:
                split.wasted += cost
        else:
            split.unattributed += cost
    return split


# ------------------------------------------------------- operator stats


@dataclass
class OperatorStats:
    """Distribution of one operator type's telemetry measurements."""

    name: str
    count: int
    total: float
    mean: float
    p50: float
    p95: float
    p99: float


def _node_values(store: MetadataStore, metric: str
                 ) -> dict[str, list[float]]:
    """Per-operator-type measurement lists from persisted telemetry.

    ``metric`` is ``"wall_seconds"`` (the record's value) or a numeric
    property name such as ``"cpu_hours"``.
    """
    store = as_client(store)
    out: dict[str, list[float]] = defaultdict(list)
    for record in store.get_telemetry(kind=NODE_KIND):
        if metric == "wall_seconds":
            out[record.name].append(float(record.value))
        else:
            out[record.name].append(float(record.get(metric, 0.0)))
    return out


def operator_stats(store: MetadataStore, metric: str = "wall_seconds"
                   ) -> dict[str, OperatorStats]:
    """Per-operator-type distributions from persisted node telemetry."""
    out: dict[str, OperatorStats] = {}
    for name, values in sorted(_node_values(store, metric).items()):
        arr = np.asarray(values)
        out[name] = OperatorStats(
            name=name, count=int(arr.size), total=float(arr.sum()),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)))
    return out


# ------------------------------------------- resource attribution

#: cpu/wall above this → the operator is compute-bound.
CPU_BOUND_FRACTION = 0.65
#: cpu/wall below this → the operator mostly waits.
IDLE_FRACTION = 0.25


@dataclass
class ResourceUsage:
    """One operator type's aggregated wall/CPU telemetry.

    ``cpu_seconds`` is ``None`` when no persisted row carried the
    property (telemetry from before the resource observatory).
    """

    operator: str
    count: int
    wall_seconds: float
    cpu_seconds: float | None = None

    @property
    def cpu_fraction(self) -> float | None:
        """CPU seconds per wall second (None when unmeasured)."""
        if self.cpu_seconds is None or self.wall_seconds <= 0:
            return None
        return self.cpu_seconds / self.wall_seconds

    @property
    def verdict(self) -> str:
        """``cpu-bound`` / ``mixed`` / ``idle`` (``unmeasured`` without
        CPU telemetry)."""
        fraction = self.cpu_fraction
        if fraction is None:
            return "unmeasured"
        if fraction >= CPU_BOUND_FRACTION:
            return "cpu-bound"
        if fraction <= IDLE_FRACTION:
            return "idle"
        return "mixed"


def _aggregate_resources(node_rows) -> list[ResourceUsage]:
    """Fold node telemetry rows into per-operator resource usage."""
    by_operator: dict[str, ResourceUsage] = {}
    for record in node_rows:
        usage = by_operator.get(record.name)
        if usage is None:
            usage = by_operator[record.name] = ResourceUsage(
                operator=record.name, count=0, wall_seconds=0.0)
        usage.count += 1
        usage.wall_seconds += float(record.value)
        cpu = record.get("cpu_seconds")
        if cpu is not None:
            usage.cpu_seconds = (usage.cpu_seconds or 0.0) + float(cpu)
    return sorted(by_operator.values(),
                  key=lambda u: (-u.wall_seconds, u.operator))


def resource_attribution(store: MetadataStore,
                         context_id: int | None = None
                         ) -> list[ResourceUsage]:
    """Per-operator wall/CPU usage from persisted telemetry.

    Scoped to one pipeline when ``context_id`` is given, fleet-wide
    otherwise; heaviest wall time first.
    """
    store = as_client(store)
    if context_id is not None:
        rows = [r for r in store.get_telemetry_by_context(context_id)
                if r.kind == NODE_KIND]
    else:
        rows = store.get_telemetry(kind=NODE_KIND)
    return _aggregate_resources(rows)


# ------------------------------------------------------- regressions


@dataclass
class RegressionFlag:
    """One operator type whose p95 drifted beyond the threshold."""

    operator: str
    metric: str
    baseline_p95: float
    current_p95: float

    @property
    def ratio(self) -> float:
        """current / baseline p95 (inf when the baseline was 0)."""
        if self.baseline_p95 <= 0:
            return float("inf") if self.current_p95 > 0 else 1.0
        return self.current_p95 / self.baseline_p95


def find_regressions(baseline: MetadataStore, current: MetadataStore,
                     threshold: float = 0.2, min_count: int = 5,
                     metric: str = "cpu_hours") -> list[RegressionFlag]:
    """Operator types whose p95 drifted > ``threshold`` between runs.

    Both stores must carry persisted node telemetry; operator types
    with fewer than ``min_count`` observations on either side are
    skipped (a p95 over three points flags noise, not regressions).
    """
    base_values = _node_values(baseline, metric)
    current_values = _node_values(current, metric)
    flags: list[RegressionFlag] = []
    for operator in sorted(current_values):
        base = base_values.get(operator, [])
        cur = current_values[operator]
        if len(base) < min_count or len(cur) < min_count:
            continue
        p95_base = float(np.percentile(np.asarray(base), 95))
        p95_cur = float(np.percentile(np.asarray(cur), 95))
        flag = RegressionFlag(operator=operator, metric=metric,
                              baseline_p95=p95_base, current_p95=p95_cur)
        if flag.ratio > 1.0 + threshold:
            flags.append(flag)
    flags.sort(key=lambda f: -f.ratio)
    return flags


# --------------------------------------------------------- diagnosis


@dataclass
class GraphletSummary:
    """One row of the per-graphlet table in a diagnosis."""

    index: int
    trainer_execution_id: int
    model_type: str
    pushed: bool
    trainer_failed: bool
    cpu_hours: float
    duration_hours: float
    n_executions: int


@dataclass
class FailureRecord:
    """One FAILED execution with its persisted failure provenance.

    The runtime (:mod:`repro.tfx.runtime`) records *why* an execution
    failed — failure kind, failing node/operator, error class and
    message, attempt number, and the attempt it retried — so a
    diagnosis can show the story, not just the state.
    """

    execution_id: int
    operator: str
    node: str
    kind: str
    error: str
    message: str
    attempt: int = 1
    retry_of: int | None = None
    cpu_hours: float = 0.0


def collect_failures(store: MetadataStore, context_id: int
                     ) -> list[FailureRecord]:
    """Every FAILED execution of a pipeline, with failure provenance."""
    store = as_client(store)
    out: list[FailureRecord] = []
    for execution in store.get_executions_by_context(context_id):
        if execution.state.value != "failed":
            continue
        retry_of = execution.get("retry_of")
        out.append(FailureRecord(
            execution_id=execution.id,
            operator=str(execution.get("failed_operator",
                                       execution.type_name)),
            node=str(execution.get("failed_node", "")),
            kind=str(execution.get("failure_kind", "unknown")),
            error=str(execution.get("error", "")),
            message=str(execution.get("error_message", "")),
            attempt=int(execution.get("attempt", 1)),
            retry_of=None if retry_of is None else int(retry_of),
            cpu_hours=float(execution.get("cpu_hours", 0.0))))
    return out


@dataclass
class PipelineDiagnosis:
    """Everything ``repro diagnose`` prints for one pipeline."""

    pipeline: str
    context_id: int
    n_executions: int
    total_cpu_hours: float
    graphlets: list[GraphletSummary]
    target_graphlet_index: int | None
    critical: CriticalPath | None
    sinks: list[tuple[Execution, float]]
    split: CostSplit
    n_pushes: int
    telemetry_rows: int
    n_cached: int = 0
    saved_cpu_hours: float = 0.0
    failures: list[FailureRecord] = field(default_factory=list)
    resources: list[ResourceUsage] = field(default_factory=list)

    @property
    def telemetry_coverage(self) -> float:
        """Fraction of executions with a persisted node telemetry row."""
        if not self.n_executions:
            return 0.0
        return min(self.telemetry_rows / self.n_executions, 1.0)


def diagnose_pipeline(store: MetadataStore, context_id: int,
                      graphlets: list[Graphlet] | None = None,
                      graphlet_index: int | None = None,
                      top_k: int = 5) -> PipelineDiagnosis:
    """Diagnose one pipeline: critical path, cost sinks, waste split.

    Args:
        store: The (telemetry-carrying) metadata store.
        context_id: The pipeline's Context id.
        graphlets: Pre-segmented graphlets; segmented here when omitted.
        graphlet_index: Graphlet to extract the critical path from
            (default: the most expensive one).
        top_k: Cost sinks to report.
    """
    store = as_client(store)
    if graphlets is None:
        graphlets = store.segment_pipeline(context_id)
    context = store.get_context(context_id)
    executions = store.get_executions_by_context(context_id)
    summaries = [
        GraphletSummary(
            index=i, trainer_execution_id=g.trainer_execution_id,
            model_type=g.model_type, pushed=g.pushed,
            trainer_failed=g.trainer_failed,
            cpu_hours=g.total_cpu_hours,
            duration_hours=g.duration_hours,
            n_executions=len(g.execution_ids))
        for i, g in enumerate(graphlets)
    ]
    target: int | None = None
    critical: CriticalPath | None = None
    if graphlets:
        if graphlet_index is not None:
            if not 0 <= graphlet_index < len(graphlets):
                raise IndexError(
                    f"graphlet {graphlet_index} out of range "
                    f"(pipeline has {len(graphlets)})")
            target = graphlet_index
        else:
            target = max(range(len(graphlets)),
                         key=lambda i: graphlets[i].total_cpu_hours)
        critical = critical_path(graphlets[target])
    node_rows = [r for r in store.get_telemetry_by_context(context_id)
                 if r.kind == NODE_KIND]
    return PipelineDiagnosis(
        pipeline=context.name,
        context_id=context_id,
        n_executions=len(executions),
        total_cpu_hours=sum(
            float(e.get("cpu_hours", 0.0)) for e in executions),
        graphlets=summaries,
        target_graphlet_index=target,
        critical=critical,
        sinks=top_cost_sinks(store, (e.id for e in executions), k=top_k),
        split=pipeline_cost_split(store, context_id, graphlets),
        n_pushes=sum(1 for g in graphlets if g.pushed),
        telemetry_rows=len(node_rows),
        n_cached=sum(1 for e in executions
                     if e.state.value == "cached"),
        saved_cpu_hours=sum(
            float(e.get("saved_cpu_hours", 0.0)) for e in executions
            if e.state.value == "cached"),
        failures=collect_failures(store, context_id),
        resources=_aggregate_resources(node_rows))
