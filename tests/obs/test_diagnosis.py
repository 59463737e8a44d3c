"""Diagnosis engine: critical paths, cost splits, fleet regressions."""

import pytest

from repro.graphlets import Graphlet
from repro.mlmd import (
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    MetadataStore,
    TelemetryRecord,
)
from repro.obs.diagnosis import (
    CriticalPath,
    RegressionFlag,
    ResourceUsage,
    critical_path,
    diagnose_pipeline,
    execution_dag,
    find_regressions,
    operator_stats,
    pipeline_cost_split,
    resource_attribution,
    top_cost_sinks,
)


def _execution(store, context_id, type_name, start, end, cpu):
    execution_id = store.put_execution(Execution(
        type_name=type_name, start_time=start, end_time=end,
        properties={"cpu_hours": cpu}))
    store.put_association(context_id, execution_id)
    return execution_id


def _link(store, producer, consumer, artifact_type="DataSpan",
          properties=None, create_time=0.0):
    artifact_id = store.put_artifact(Artifact(
        type_name=artifact_type, create_time=create_time,
        properties=properties or {}))
    store.put_event(Event(artifact_id, producer, EventType.OUTPUT))
    if consumer is not None:
        store.put_event(Event(artifact_id, consumer, EventType.INPUT))
    return artifact_id


@pytest.fixture()
def diamond():
    """A --> B --> D and A --> C --> D; the A-C-D chain dominates."""
    store = MetadataStore()
    context_id = store.put_context(Context(type_name="Pipeline", name="p"))
    a = _execution(store, context_id, "ExampleGen", 0.0, 1.0, 1.0)
    b = _execution(store, context_id, "StatisticsGen", 1.0, 3.0, 2.0)
    c = _execution(store, context_id, "Trainer", 1.0, 6.0, 10.0)
    d = _execution(store, context_id, "Pusher", 6.0, 7.0, 0.5)
    _link(store, a, b, create_time=1.0)
    art = _link(store, a, c, create_time=1.0)
    store.put_event(Event(art, b, EventType.INPUT))  # shared input
    _link(store, b, d, create_time=3.0)
    model = _link(store, c, d, artifact_type="Model", create_time=6.0,
                  properties={"model_type": "dnn"})
    pushed = _link(store, d, None, artifact_type="PushedModel",
                   create_time=7.0)
    graphlet = Graphlet(store, context_id, trainer_execution_id=c,
                        execution_ids={a, b, c, d},
                        artifact_ids={art, model, pushed})
    return store, context_id, (a, b, c, d), graphlet


class TestCriticalPath:
    def test_diamond_takes_longest_chain(self, diamond):
        store, _, (a, b, c, d), graphlet = diamond
        path = critical_path(graphlet)
        assert path.execution_ids == [a, c, d]
        assert path.duration_hours == pytest.approx(1.0 + 5.0 + 1.0)

    def test_path_is_connected_in_the_dag(self, diamond):
        store, _, _, graphlet = diamond
        path = critical_path(graphlet)
        dag = execution_dag(store, set(graphlet.execution_ids))
        for producer, consumer in zip(path.execution_ids,
                                      path.execution_ids[1:]):
            assert consumer in dag[producer]

    def test_duration_bounded_by_graphlet_wall_time(self, diamond):
        _, _, _, graphlet = diamond
        path = critical_path(graphlet)
        assert path.duration_hours <= graphlet.duration_hours + 1e-9
        assert path.slack_hours == pytest.approx(
            graphlet.duration_hours - path.duration_hours)

    def test_empty_graphlet(self):
        store = MetadataStore()
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="p"))
        graphlet = Graphlet(store, context_id, trainer_execution_id=-1)
        assert critical_path(graphlet) == CriticalPath()

    def test_single_node(self):
        store = MetadataStore()
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="p"))
        only = _execution(store, context_id, "Trainer", 0.0, 2.5, 1.0)
        graphlet = Graphlet(store, context_id, trainer_execution_id=only,
                            execution_ids={only})
        path = critical_path(graphlet)
        assert path.execution_ids == [only]
        assert path.duration_hours == pytest.approx(2.5)

    def test_dag_edges_are_deduplicated(self, diamond):
        store, _, (a, b, _, _), _ = diamond
        # a feeds b through two artifacts; the edge must appear once.
        assert execution_dag(store, {a, b})[a] == [b]


class TestCostSplit:
    def _two_graphlet_store(self, warm_started):
        store = MetadataStore()
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="p"))
        t1 = _execution(store, context_id, "Trainer", 0.0, 1.0, 2.0)
        p1 = _execution(store, context_id, "Pusher", 1.0, 2.0, 3.0)
        t2 = _execution(store, context_id, "Trainer", 2.0, 3.0, 5.0)
        stray = _execution(store, context_id, "ExampleGen", 3.0, 4.0, 1.0)
        m1 = _link(store, t1, p1, artifact_type="Model")
        deployed = _link(store, p1, None, artifact_type="PushedModel")
        m2 = _link(store, t2, None, artifact_type="Model",
                   properties={"warm_started": warm_started})
        graphlets = [
            Graphlet(store, context_id, trainer_execution_id=t1,
                     execution_ids={t1, p1}, artifact_ids={m1, deployed}),
            Graphlet(store, context_id, trainer_execution_id=t2,
                     execution_ids={t2}, artifact_ids={m2}),
        ]
        return store, context_id, graphlets, stray

    def test_buckets_without_warmstart(self):
        store, context_id, graphlets, _ = self._two_graphlet_store(False)
        split = pipeline_cost_split(store, context_id, graphlets)
        assert split.useful == pytest.approx(5.0)
        assert split.wasted == pytest.approx(5.0)
        assert split.protected == 0.0
        assert split.unattributed == pytest.approx(1.0)

    def test_warmstart_protects_unpushed_compute(self):
        store, context_id, graphlets, _ = self._two_graphlet_store(True)
        split = pipeline_cost_split(store, context_id, graphlets)
        assert split.wasted == 0.0
        assert split.protected == pytest.approx(5.0)

    def test_split_reconciles_with_total_recorded_cost(self):
        store, context_id, graphlets, _ = self._two_graphlet_store(False)
        split = pipeline_cost_split(store, context_id, graphlets)
        recorded = sum(float(e.get("cpu_hours", 0.0))
                       for e in store.get_executions_by_context(context_id))
        assert split.total == pytest.approx(recorded, rel=0.01)


class TestOperatorStats:
    def _store_with_nodes(self, values_by_operator):
        store = MetadataStore()
        for operator, values in values_by_operator.items():
            for value in values:
                store.put_telemetry(TelemetryRecord(
                    "node", operator, value=value,
                    properties={"cpu_hours": value * 2.0}))
        return store

    def test_wall_seconds_distributions(self):
        store = self._store_with_nodes({"Trainer": [1.0, 2.0, 3.0]})
        stats = operator_stats(store)["Trainer"]
        assert stats.count == 3
        assert stats.total == pytest.approx(6.0)
        assert stats.p50 == pytest.approx(2.0)

    def test_property_metric(self):
        store = self._store_with_nodes({"Trainer": [1.0]})
        stats = operator_stats(store, metric="cpu_hours")["Trainer"]
        assert stats.total == pytest.approx(2.0)

    def test_regression_flags_past_threshold(self):
        baseline = self._store_with_nodes({
            "Trainer": [1.0] * 6, "Pusher": [1.0] * 6,
            "Rare": [1.0] * 2})
        current = self._store_with_nodes({
            "Trainer": [2.0] * 6,       # 2x: flagged
            "Pusher": [1.05] * 6,       # 5%: under threshold
            "Rare": [9.0] * 2})         # under min_count: skipped
        flags = find_regressions(baseline, current, threshold=0.2,
                                 min_count=5, metric="wall_seconds")
        assert [f.operator for f in flags] == ["Trainer"]
        assert flags[0].ratio == pytest.approx(2.0)

    def test_zero_baseline_ratio(self):
        flag = RegressionFlag("Trainer", "cpu_hours", 0.0, 1.0)
        assert flag.ratio == float("inf")
        assert RegressionFlag("Trainer", "cpu_hours", 0.0, 0.0).ratio == 1.0


class TestResourceAttribution:
    """Verdicts on each side of ``CPU_BOUND_FRACTION`` (0.65) and
    ``IDLE_FRACTION`` (0.25), from synthetic node rows."""

    @pytest.mark.parametrize("cpu_seconds, verdict", [
        (3.0, "cpu-bound"),
        (2.6, "cpu-bound"),     # exactly 0.65 of wall
        (2.56, "mixed"),        # 0.64
        (1.04, "mixed"),        # 0.26
        (1.0, "idle"),          # exactly 0.25
        (0.0, "idle"),
        (None, "unmeasured"),
    ])
    def test_verdict(self, cpu_seconds, verdict):
        usage = ResourceUsage("Trainer", count=1, wall_seconds=4.0,
                              cpu_seconds=cpu_seconds)
        assert usage.verdict == verdict

    def test_zero_wall_is_unmeasured(self):
        usage = ResourceUsage("Trainer", count=1, wall_seconds=0.0,
                              cpu_seconds=1.0)
        assert usage.cpu_fraction is None
        assert usage.verdict == "unmeasured"

    def test_folds_node_rows_per_operator(self):
        store = MetadataStore()
        context_id = store.put_context(Context(type_name="Pipeline",
                                               name="p"))
        rows = [("Trainer", 2.0, 1.3), ("Trainer", 2.0, 1.3),
                ("Pusher", 2.0, 0.5), ("Transform", 1.0, 0.64),
                ("ExampleGen", 0.5, 0.13), ("Evaluator", 0.25, None)]
        for operator, wall, cpu in rows:
            properties = {} if cpu is None else {"cpu_seconds": cpu}
            store.put_telemetry(TelemetryRecord(
                "node", operator, context_id=context_id, value=wall,
                properties=properties))
        # Only node rows count.
        store.put_telemetry(TelemetryRecord(
            "run", "Trainer", context_id=context_id, value=100.0))
        usage = resource_attribution(store)
        assert [(u.operator, u.count, u.wall_seconds, u.verdict)
                for u in usage] == [
            ("Trainer", 2, 4.0, "cpu-bound"),
            ("Pusher", 1, 2.0, "idle"),
            ("Transform", 1, 1.0, "mixed"),
            ("ExampleGen", 1, 0.5, "mixed"),
            ("Evaluator", 1, 0.25, "unmeasured"),
        ]
        assert usage[0].cpu_seconds == pytest.approx(2.6)
        assert usage[-1].cpu_seconds is None

    def test_scoped_to_one_pipeline(self):
        store = MetadataStore()
        ours, other = (store.put_context(Context(type_name="Pipeline",
                                                 name=name))
                       for name in ("p", "q"))
        store.put_telemetry(TelemetryRecord(
            "node", "Trainer", context_id=ours, value=1.0,
            properties={"cpu_seconds": 0.1}))
        store.put_telemetry(TelemetryRecord(
            "node", "Trainer", context_id=other, value=1.0,
            properties={"cpu_seconds": 0.9}))
        [usage] = resource_attribution(store, context_id=ours)
        assert (usage.count, usage.verdict) == (1, "idle")
        [usage] = resource_attribution(store)
        assert (usage.count, usage.verdict) == (2, "mixed")


class TestDiagnosePipeline:
    def test_rollup(self, diamond):
        store, context_id, (a, b, c, d), graphlet = diamond
        for execution_id in (a, b, c, d):
            store.put_telemetry(TelemetryRecord(
                "node", "x", execution_id=execution_id,
                context_id=context_id, value=0.01))
        diagnosis = diagnose_pipeline(store, context_id,
                                      graphlets=[graphlet], top_k=2)
        assert diagnosis.pipeline == "p"
        assert diagnosis.n_executions == 4
        assert diagnosis.total_cpu_hours == pytest.approx(13.5)
        assert diagnosis.target_graphlet_index == 0
        assert diagnosis.critical.execution_ids == [a, c, d]
        assert [e.id for e, _ in diagnosis.sinks] == [c, b]
        assert diagnosis.split.total == pytest.approx(13.5, rel=0.01)
        assert diagnosis.n_pushes == 1
        assert diagnosis.telemetry_coverage == pytest.approx(1.0)

    def test_graphlet_index_out_of_range(self, diamond):
        store, context_id, _, graphlet = diamond
        with pytest.raises(IndexError):
            diagnose_pipeline(store, context_id, graphlets=[graphlet],
                              graphlet_index=3)

    def test_top_cost_sinks_order(self, diamond):
        store, _, (a, b, c, d), _ = diamond
        sinks = top_cost_sinks(store, [a, b, c, d], k=3)
        assert [round(cost, 1) for _, cost in sinks] == [10.0, 2.0, 1.0]
