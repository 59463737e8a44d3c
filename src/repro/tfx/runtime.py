"""Pipeline orchestration: executes pipeline runs against a metadata store.

The runner owns everything the operators must not: metadata writes,
cost sampling, the simulated clock, rolling-window resolution, gating,
and failure propagation. Every run appends executions/artifacts/events to
the trace, which grows over the pipeline's life exactly as the paper
describes (Section 2.1: "the trace will grow over time with every run").

Two run kinds exist: ``ingest`` runs execute only ingest-stage nodes
(one new span plus per-span analysis), ``train`` runs execute everything.
The corpus generator drives runners on a simulated clock; examples and
tests drive them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..mlmd import (
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    ExecutionState,
    MetadataStore,
)
from time import perf_counter, process_time

from ..faults.injector import CORRUPT_INPUT_FAULT, hint_fault
from ..obs.metrics import get_registry
from ..obs.tracing import get_tracer
from .cost import CostModel
from .operators.base import OperatorContext, OperatorResult
from .pipeline import INGEST_STAGE, PipelineDef, PipelineNode

if TYPE_CHECKING:  # imported lazily to avoid a tfx <-> fleet cycle
    from ..faults.injector import FaultInjector, InjectedFault
    from ..faults.retry import RetryPolicy
    from ..fleet.cache import ExecutionCache

#: Node statuses reported per run.
RAN = "ran"
FAILED = "failed"
BLOCKED = "blocked"
SKIPPED = "skipped"
NOT_IN_STAGE = "not_in_stage"
CACHED = "cached"


@dataclass
class RunReport:
    """What happened in one pipeline run."""

    run_index: int
    kind: str
    started_at: float
    finished_at: float = 0.0
    node_status: dict[str, str] = field(default_factory=dict)
    execution_ids: dict[str, int] = field(default_factory=dict)
    output_artifact_ids: dict[str, list[int]] = field(default_factory=dict)
    total_cpu_hours: float = 0.0
    pushed: bool = False


class PipelineRunner:
    """Drives one pipeline's runs against a store.

    Args:
        pipeline: The validated pipeline definition.
        store: Metadata store receiving the trace.
        simulation: True on the corpus path (stats-only spans, hint-driven
            outcomes, payloads dropped after each run to bound memory).
        rng: Randomness source; runs are deterministic given it.
        cost_model: Compute-cost sampler.
        pipeline_cost_scale: Pipeline-level size factor multiplying every
            sampled cost (big-data pipelines cost more across the board).
        execution_cache: Optional content-addressed cache
            (:class:`repro.fleet.cache.ExecutionCache`). When set,
            cache-safe operators whose resolved inputs fingerprint to a
            previously completed execution are *replayed*: the run
            records a ``CACHED`` execution with reused output artifacts
            and zero cpu_hours, and the cost the operator would have
            incurred is credited to the cache as ``saved_cpu_hours``.
            The would-be cost is still drawn from ``rng``, so cached and
            uncached runs of the same seed consume identical random
            streams (their traces differ only where the cache hit).
        fault_injector: Optional per-pipeline
            :class:`repro.faults.FaultInjector`. Injected faults flow
            through the same code path as the legacy ``fail_nodes``
            hints, but draw from the fault plan's own random stream —
            the simulation rng is never consulted to decide a fault.
        retry_policy: Optional :class:`repro.faults.RetryPolicy`. A
            failed attempt is re-run (after deterministic backoff)
            while the policy allows it; every attempt persists as its
            own execution, retries carrying ``retry_of`` / ``attempt``
            properties so waste analyses can price retry amplification.
    """

    def __init__(self, pipeline: PipelineDef, store: MetadataStore,
                 rng: np.random.Generator,
                 simulation: bool = False,
                 cost_model: CostModel | None = None,
                 pipeline_cost_scale: float = 1.0,
                 parallelism: float = 8.0,
                 execution_cache: "ExecutionCache | None" = None,
                 fault_injector: "FaultInjector | None" = None,
                 retry_policy: "RetryPolicy | None" = None) -> None:
        self.pipeline = pipeline
        self.store = store
        self.rng = rng
        self.simulation = simulation
        self.cost_model = cost_model or CostModel()
        self.pipeline_cost_scale = pipeline_cost_scale
        self.parallelism = parallelism
        self.execution_cache = execution_cache
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        # Backoff jitter draws from the fault stream when a plan is
        # live, else from a fixed per-runner stream — never from the
        # simulation rng, which must stay aligned across fault configs.
        self._retry_rng = (fault_injector.rng
                          if fault_injector is not None
                          else np.random.default_rng(0x5EED))
        self.payloads: dict[int, Any] = {}
        self.pipeline_state: dict[str, Any] = {}
        self._history: dict[tuple[str, str], list[int]] = {}
        self._last_result: dict[str, str] = {}
        self._run_index = 0
        self.context_id = store.put_context(
            Context(type_name="Pipeline", name=pipeline.name))
        self._topo = pipeline.topological_order()
        # Instruments bound once per runner; the per-node hot path pays
        # one dict lookup plus an attribute add.
        registry = get_registry()
        self._m_run_cpu_hours = registry.histogram("runtime.run_cpu_hours")
        self._m_run_counts = {
            kind: registry.counter("runtime.runs", kind=kind)
            for kind in ("train", "retrain", INGEST_STAGE)
        }
        self._m_pushes = registry.counter("runtime.pushes")
        self._m_retries = registry.counter("runtime.retry_attempts")
        self._m_node_status = {
            status: registry.counter("runtime.node_status", status=status)
            for status in (RAN, FAILED, BLOCKED, SKIPPED, NOT_IN_STAGE,
                           CACHED)
        }
        self._m_node_cpu_hours = {
            node.node_id: registry.histogram(
                "runtime.node_cpu_hours", group=node.operator.group.value)
            for node in self._topo
        }

    # ------------------------------------------------------------------

    def run(self, now: float, kind: str = "train",
            hints: dict[str, Any] | None = None) -> RunReport:
        """Execute one pipeline run at simulated time ``now``.

        Args:
            now: Simulation clock (hours) at trigger time.
            kind: ``"train"`` (full pipeline) or ``"ingest"`` (ingest-stage
                nodes only).
            hints: Outcome hints for the simulation path (new span,
                validation outcomes, throttling, failures).
        """
        if kind not in ("train", "retrain", INGEST_STAGE):
            raise ValueError(f"unknown run kind {kind!r}")
        hints = hints or {}
        report = RunReport(run_index=self._run_index, kind=kind,
                           started_at=now)
        cursor = now
        fresh_outputs: dict[str, bool] = {}
        if kind == "retrain":
            # A retrain re-runs the training subgraph on the existing
            # window (a pipeline author iterating on the same data); the
            # ingest-stage outputs of previous runs count as fresh.
            for node in self._topo:
                if node.stage == INGEST_STAGE:
                    fresh_outputs[node.node_id] = (
                        self._last_result.get(node.node_id)
                        in ("ok", "blocking"))
        tracer = get_tracer()
        # Provenance-aware telemetry: when the store carries a sink,
        # every node/run measurement is also persisted as telemetry
        # rows keyed by execution id (see repro.obs.provenance).
        sink = self.store.telemetry_sink
        run_wall_start = perf_counter() if sink is not None else 0.0
        with tracer.span("runtime.run", pipeline=self.pipeline.name,
                         kind=kind, run_index=self._run_index) as run_span:
            tracing = tracer.enabled
            measuring = tracing or sink is not None
            # CPU attribution (wall vs cpu decomposes "slow" into
            # compute-bound vs idle) is captured whenever telemetry
            # persists or the tracer asked for resources — two clock
            # reads per node, noise next to the store writes.
            cpu_measuring = sink is not None or (tracing
                                                 and tracer.resources)
            for node in self._topo:
                if kind == INGEST_STAGE and node.stage != INGEST_STAGE:
                    report.node_status[node.node_id] = NOT_IN_STAGE
                    continue
                if kind == "retrain" and node.stage == INGEST_STAGE:
                    report.node_status[node.node_id] = NOT_IN_STAGE
                    continue
                # Per-node spans use the direct record API: the
                # context-manager path costs several µs per span, which
                # at corpus scale breaks the ≤5% overhead budget.
                if measuring:
                    wall_start = perf_counter()
                    cpu_start = process_time() if cpu_measuring else 0.0
                    status, duration = self._run_node(
                        node, cursor, hints, report, fresh_outputs)
                    cpu_seconds = (process_time() - cpu_start
                                   if cpu_measuring else None)
                    wall_end = perf_counter()
                    if tracing:
                        span_attrs = {"node": node.node_id,
                                      "status": status}
                        if tracer.resources and cpu_seconds is not None:
                            span_attrs["cpu_ms"] = round(
                                cpu_seconds * 1e3, 3)
                        tracer.record_span(
                            "runtime.node", wall_start, wall_end,
                            parent_id=run_span.span_id, **span_attrs)
                    if sink is not None:
                        execution_id = report.execution_ids.get(
                            node.node_id)
                        if execution_id is not None:
                            sink.record_node(
                                execution_id,
                                operator=node.operator.name,
                                wall_seconds=wall_end - wall_start,
                                status=status,
                                context_id=self.context_id,
                                run_index=self._run_index,
                                run_kind=kind,
                                cpu_seconds=cpu_seconds)
                else:
                    status, duration = self._run_node(
                        node, cursor, hints, report, fresh_outputs)
                self._m_node_status[status].value += 1
                report.node_status[node.node_id] = status
                cursor += duration
            run_span.set_attr("cpu_hours", report.total_cpu_hours)
            run_span.set_attr("pushed", report.pushed)
        report.finished_at = cursor
        if sink is not None:
            sink.record_run(
                self.context_id, kind=kind, run_index=self._run_index,
                wall_seconds=perf_counter() - run_wall_start,
                cpu_hours=report.total_cpu_hours, pushed=report.pushed,
                started_at=report.started_at, finished_at=cursor,
                node_statuses=report.node_status)
        self._run_index += 1
        self._m_run_counts[kind].value += 1
        self._m_run_cpu_hours.record(report.total_cpu_hours)
        if report.pushed:
            self._m_pushes.value += 1
        if self.simulation:
            self.payloads.clear()
        return report

    # ------------------------------------------------------------------

    def _run_node(self, node: PipelineNode, now: float, hints: dict,
                  report: RunReport,
                  fresh_outputs: dict[str, bool]) -> tuple[str, float]:
        # Gate check: any gating validator currently blocking? A gate
        # that FAILED or was BLOCKED this run and has *never* produced
        # a verdict blocks its dependents — there is no blessing to
        # consume, stale or otherwise. Once a gate has ruled at least
        # once, a round where it could not run falls back to its most
        # recent verdict, mirroring TFX consuming the latest blessing
        # artifact.
        for gate in node.gates:
            if (gate not in self._last_result
                    and report.node_status.get(gate) in (FAILED, BLOCKED)):
                return BLOCKED, 0.0
            if self._last_result.get(gate) in ("blocking", FAILED,
                                               SKIPPED, BLOCKED):
                return BLOCKED, 0.0
        # Failure propagation: a producer that FAILED (or was itself
        # BLOCKED) this run blocks every required consumer. Without
        # this, a consumer with a rolling input window would happily
        # RUN on stale spans while its upstream lies dead — descendants
        # of a failure must read BLOCKED, never RAN.
        for key, spec in node.inputs.items():
            if key in node.operator.optional_inputs:
                continue
            if report.node_status.get(spec.source) in (FAILED, BLOCKED):
                return BLOCKED, 0.0
        # Resolve inputs from history.
        inputs: dict[str, list[Artifact]] = {}
        for key, spec in node.inputs.items():
            history = self._history.get((spec.source, spec.key), [])
            artifact_ids = history[-spec.window:]
            if spec.fresh and not fresh_outputs.get(spec.source, False):
                return SKIPPED, 0.0
            if not artifact_ids and key not in node.operator.optional_inputs:
                return SKIPPED, 0.0
            inputs[key] = [self.store.get_artifact(a) for a in artifact_ids]
        try:
            node.operator.validate_inputs(inputs)
        except (TypeError, ValueError):
            return SKIPPED, 0.0

        # Asynchronous orchestration: a run can be triggered while a
        # previous run's operators are still finishing. A node cannot
        # start before its inputs exist, so its start time is pushed to
        # the latest input's creation (queuing delay).
        start = now
        for artifacts in inputs.values():
            for artifact in artifacts:
                if artifact.create_time > start:
                    start = artifact.create_time

        effective_hints = hints
        node_overrides = hints.get("node_overrides")
        if node_overrides and node.node_id in node_overrides:
            effective_hints = {**hints, **node_overrides[node.node_id]}

        # One unified fault decision: plan-injected faults first, then
        # the legacy hints (same InjectedFault representation), then
        # corrupt-input poisoning. Corruption faults do not fail the
        # producing node, so a corrupt *input* still takes precedence.
        fault: InjectedFault | None = None
        if self.fault_injector is not None:
            fault = self.fault_injector.draw(node.operator.name,
                                             node.node_id)
        if fault is None:
            fault = hint_fault(hints, node.node_id)
        if fault is None or fault.corrupts:
            if any(artifact.get("corrupted")
                   for artifacts in inputs.values()
                   for artifact in artifacts):
                fault = CORRUPT_INPUT_FAULT

        # The cache is consulted only for fault-free executions: a
        # CACHED replay must never mask an injected failure, and a
        # corrupting execution must not poison the cache.
        cache = self.execution_cache
        cache_key = None
        if cache is not None and fault is None:
            cache_key = cache.key(node.operator, inputs)
            if cache_key is not None:
                entry = cache.lookup(cache_key)
                if entry is not None:
                    return self._replay_cached(node, entry, inputs, start,
                                               now, report, fresh_outputs)

        # Attempt loop: each attempt is its own execution; the retry
        # policy decides whether a failure earns another attempt and
        # how long the (jittered, deterministic) backoff lasts.
        policy = self.retry_policy
        attempt = 1
        attempt_start = start
        retry_of: int | None = None
        while True:
            failed, execution, result = self._attempt_node(
                node, inputs, attempt_start, now, effective_hints, fault,
                attempt, retry_of, report)
            if not failed:
                break
            self._last_result[node.node_id] = FAILED
            report.total_cpu_hours += float(
                execution.properties["cpu_hours"])
            elapsed = execution.end_time - start
            if policy is None or not policy.allows(
                    attempt + 1, elapsed, node.operator.name):
                return FAILED, execution.end_time - now
            self._m_retries.value += 1
            attempt_start = execution.end_time + policy.backoff_hours(
                attempt, self._retry_rng)
            retry_of = execution.id
            attempt += 1

        execution_id = execution.id
        cpu_hours = float(execution.properties["cpu_hours"])
        if cache_key is not None:
            cache.store(cache_key, result)
        corrupting = fault is not None and fault.corrupts
        produced_any = False
        for key, output_list in result.outputs.items():
            ids: list[int] = []
            for output in output_list:
                artifact = Artifact(type_name=output.type_name,
                                    create_time=execution.end_time,
                                    properties=output.properties)
                if corrupting:
                    artifact.properties["corrupted"] = True
                artifact_id = self.store.put_artifact(artifact)
                self.store.put_attribution(self.context_id, artifact_id)
                self.store.put_event(Event(artifact_id, execution_id,
                                           EventType.OUTPUT,
                                           time=execution.end_time))
                if output.payload is not None:
                    self.payloads[artifact_id] = output.payload
                ids.append(artifact_id)
                produced_any = True
            self._history.setdefault((node.node_id, key), []).extend(ids)
            report.output_artifact_ids.setdefault(node.node_id, []).extend(ids)
        fresh_outputs[node.node_id] = produced_any
        if node.operator.name == "Pusher" and produced_any:
            report.pushed = True
            candidate = self.pipeline_state.get("candidate_auc")
            if candidate is not None:
                self.pipeline_state["last_blessed_auc"] = float(candidate)
        self._last_result[node.node_id] = (
            "blocking" if result.blocking else "ok")
        report.total_cpu_hours += cpu_hours
        return RAN, execution.end_time - now

    # ------------------------------------------------------------------

    def _attempt_node(self, node: PipelineNode, inputs: dict,
                      start: float, now: float, effective_hints: dict,
                      fault: "InjectedFault | None", attempt: int,
                      retry_of: int | None, report: RunReport
                      ) -> tuple[bool, Execution, OperatorResult | None]:
        """Execute one attempt of one node as its own MLMD execution.

        Failed attempts persist full provenance: ``failure_kind``,
        ``failed_node``/``failed_operator``, the exception class and
        message when an operator raised, and — on retries —
        ``attempt`` and ``retry_of`` (the previous attempt's execution
        id), forming a per-node retry chain in the trace.
        """
        execution = Execution(type_name=node.operator.name,
                              start_time=start,
                              state=ExecutionState.RUNNING)
        execution_id = self.store.put_execution(execution)
        self.store.put_association(self.context_id, execution_id)
        for artifacts in inputs.values():
            for artifact in artifacts:
                self.store.put_event(Event(artifact.id, execution_id,
                                           EventType.INPUT, time=start))
        report.execution_ids[node.node_id] = execution_id

        ctx = OperatorContext(
            now=now, rng=self.rng, simulation=self.simulation,
            payloads=self.payloads, hints=effective_hints,
            pipeline_state=self.pipeline_state, attempt=attempt)
        fault_fires = fault is not None and fault.fails(attempt)
        error: Exception | None = None
        result: OperatorResult | None = None
        if not fault_fires:
            try:
                result = node.operator.run(ctx, inputs)
            except Exception as exc:  # Operator bugs become FAILED runs.
                error = exc
        failed = fault_fires or error is not None or (
            result is not None and not result.ok)

        cost_scale = (result.cost_scale if result is not None else 1.0)
        cpu_hours = self.cost_model.sample(
            node.operator.group, self.rng,
            scale=cost_scale * self.pipeline_cost_scale)
        duration = self.cost_model.wall_clock_hours(cpu_hours,
                                                    self.parallelism)
        self._m_node_cpu_hours[node.node_id].record(cpu_hours)
        execution.end_time = start + duration
        execution.properties["cpu_hours"] = float(cpu_hours)
        execution.properties["group"] = node.operator.group.value
        if node.operator.name == "Trainer":
            code_version = effective_hints.get(
                "code_version", getattr(node.operator, "code_version", ""))
            execution.properties["code_version"] = str(code_version)
        if attempt > 1:
            execution.properties["attempt"] = attempt
            execution.properties["retry_of"] = int(retry_of)
        if error is not None:
            execution.properties["error"] = type(error).__name__
            execution.properties["error_message"] = str(error)[:500]
        if failed:
            if fault_fires:
                kind = fault.failure_kind
            elif error is not None:
                kind = "operator_error"
            else:
                kind = "operator_reported"
            execution.properties["failure_kind"] = kind
            execution.properties["failed_node"] = node.node_id
            execution.properties["failed_operator"] = node.operator.name
            execution.state = ExecutionState.FAILED
        else:
            execution.state = ExecutionState.COMPLETE
        self.store.put_execution(execution)
        return failed, execution, result

    # ------------------------------------------------------------------

    def _replay_cached(self, node: PipelineNode, entry, inputs: dict,
                       start: float, now: float, report: RunReport,
                       fresh_outputs: dict[str, bool]) -> tuple[str, float]:
        """Serve one node from the execution cache.

        The cost the operator *would* have incurred is still sampled
        from the run's rng — that keeps the random stream aligned with
        an uncached run of the same seed, and the drawn value is exactly
        the compute the cache avoided, so::

            uncached_total == cached_total + saved_cpu_hours

        holds per pipeline. The cached execution records zero cpu_hours
        (nothing actually ran) and zero duration (a metadata lookup),
        so downstream consumers start as soon as their inputs exist.
        """
        saved = self.cost_model.sample(
            node.operator.group, self.rng,
            scale=entry.cost_scale * self.pipeline_cost_scale)
        self.execution_cache.credit_saved(saved)
        execution = Execution(type_name=node.operator.name,
                              start_time=start, end_time=start,
                              state=ExecutionState.CACHED)
        execution.properties["cpu_hours"] = 0.0
        execution.properties["saved_cpu_hours"] = float(saved)
        execution.properties["group"] = node.operator.group.value
        execution_id = self.store.put_execution(execution)
        self.store.put_association(self.context_id, execution_id)
        for artifacts in inputs.values():
            for artifact in artifacts:
                self.store.put_event(Event(artifact.id, execution_id,
                                           EventType.INPUT, time=start))
        report.execution_ids[node.node_id] = execution_id
        self._m_node_cpu_hours[node.node_id].record(0.0)

        produced_any = False
        for cached_output in entry.outputs:
            properties = cached_output.materialize()
            properties["reused"] = True
            artifact = Artifact(type_name=cached_output.type_name,
                                create_time=start, properties=properties)
            artifact_id = self.store.put_artifact(artifact)
            self.store.put_attribution(self.context_id, artifact_id)
            self.store.put_event(Event(artifact_id, execution_id,
                                       EventType.OUTPUT, time=start))
            self._history.setdefault(
                (node.node_id, cached_output.key), []).append(artifact_id)
            report.output_artifact_ids.setdefault(
                node.node_id, []).append(artifact_id)
            produced_any = True
        fresh_outputs[node.node_id] = produced_any
        self._last_result[node.node_id] = (
            "blocking" if entry.blocking else "ok")
        # The replay itself is instantaneous; only the queuing delay
        # (inputs not ready before `start`) advances the clock.
        return CACHED, start - now
