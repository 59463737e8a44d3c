"""Graphlet segmentation tests: rules a/b/c and the Datalog equivalence."""

import pytest

from repro.data import random_schema, synthetic_span
from repro.graphlets import (
    DATA_ANALYSIS_TYPES,
    consecutive_pairs,
    datalog_graphlet_executions,
    graphlet_shape,
    segment_pipeline,
    segment_trainer,
)
from repro.mlmd import InvalidQueryError, MetadataStore
from repro.tfx import (
    ExampleGen,
    ExampleValidator,
    Evaluator,
    ModelValidator,
    NodeInput,
    PipelineDef,
    PipelineNode,
    PipelineRunner,
    Pusher,
    SchemaGen,
    StatisticsGen,
    Trainer,
)


def _pipeline(warm_start=False):
    trainer_inputs = {"spans": NodeInput("gen", "span", window=3)}
    if warm_start:
        trainer_inputs["base_model"] = NodeInput("trainer", "model",
                                                 fresh=False)
    return PipelineDef("p", [
        PipelineNode("gen", ExampleGen(), stage="ingest"),
        PipelineNode("stats", StatisticsGen(),
                     inputs={"spans": NodeInput("gen", "span")},
                     stage="ingest"),
        PipelineNode("schema", SchemaGen(),
                     inputs={"statistics": NodeInput("stats",
                                                     "statistics")},
                     stage="ingest"),
        PipelineNode("validator", ExampleValidator(),
                     inputs={"statistics": NodeInput("stats",
                                                     "statistics"),
                             "schema": NodeInput("schema", "schema")},
                     stage="ingest"),
        PipelineNode("trainer", Trainer(warm_start=warm_start),
                     inputs=trainer_inputs, gates=["validator"]),
        PipelineNode("evaluator", Evaluator(),
                     inputs={"model": NodeInput("trainer", "model"),
                             "spans": NodeInput("gen", "span")}),
        PipelineNode("mvalidator", ModelValidator(),
                     inputs={"evaluation": NodeInput("evaluator",
                                                     "evaluation"),
                             "model": NodeInput("trainer", "model")}),
        PipelineNode("pusher", Pusher(),
                     inputs={"model": NodeInput("trainer", "model"),
                             "blessing": NodeInput("mvalidator",
                                                   "blessing")},
                     gates=["mvalidator"]),
    ])


def _run_pipeline(rng, n_spans=9, warm_start=False, blessed=lambda i: True):
    store = MetadataStore()
    runner = PipelineRunner(_pipeline(warm_start), store, rng,
                            simulation=True)
    schema = random_schema(rng, n_features=6)
    for i in range(n_spans):
        hints = {
            "new_span": synthetic_span(schema, i, 1000, rng,
                                       ingest_time=i * 24.0),
            "data_validation_ok": True,
            "model_quality": 0.8,
            "model_blessed": blessed(i),
            "push_throttled": False,
        }
        kind = "train" if i % 3 == 2 else "ingest"
        runner.run(i * 24.0, kind=kind, hints=hints)
    return store, runner


class TestSegmentation:
    def test_one_graphlet_per_trainer_run(self, rng):
        store, runner = _run_pipeline(rng, n_spans=9)
        graphlets = segment_pipeline(store, runner.context_id)
        assert len(graphlets) == 3

    def test_graphlets_in_chronological_order(self, rng):
        store, runner = _run_pipeline(rng, n_spans=9)
        graphlets = segment_pipeline(store, runner.context_id)
        times = [g.trainer.start_time for g in graphlets]
        assert times == sorted(times)

    def test_rule_a_collects_span_ancestors(self, rng):
        store, runner = _run_pipeline(rng)
        graphlet = segment_pipeline(store, runner.context_id)[1]
        shape = graphlet_shape(graphlet)
        assert shape.by_operator["ExampleGen"].count == 3  # window=3

    def test_rule_b_collects_per_span_analysis(self, rng):
        store, runner = _run_pipeline(rng)
        graphlet = segment_pipeline(store, runner.context_id)[1]
        shape = graphlet_shape(graphlet)
        # Every window span's analysis chain is present.
        assert shape.by_operator["StatisticsGen"].count == 3
        assert shape.by_operator["SchemaGen"].count == 3
        assert shape.by_operator["ExampleValidator"].count == 3

    def test_rule_c_collects_post_trainer_ops(self, rng):
        store, runner = _run_pipeline(rng)
        graphlet = segment_pipeline(store, runner.context_id)[0]
        shape = graphlet_shape(graphlet)
        assert shape.by_operator["Evaluator"].count == 1
        assert shape.by_operator["ModelValidator"].count == 1
        assert shape.by_operator["Pusher"].count == 1

    def test_warm_start_cut_bounds_graphlets(self, rng):
        store, runner = _run_pipeline(rng, n_spans=18, warm_start=True)
        graphlets = segment_pipeline(store, runner.context_id)
        sizes = [len(g.execution_ids) for g in graphlets]
        # Later graphlets must not accumulate earlier graphlets' nodes.
        assert max(sizes) - min(sizes) <= 2

    def test_graphlets_trainer_disjoint(self, rng):
        store, runner = _run_pipeline(rng, n_spans=18, warm_start=True)
        graphlets = segment_pipeline(store, runner.context_id)
        trainer_ids = [g.trainer_execution_id for g in graphlets]
        assert len(set(trainer_ids)) == len(trainer_ids)
        for graphlet in graphlets:
            others = set(trainer_ids) - {graphlet.trainer_execution_id}
            assert not (graphlet.execution_ids & others)

    def test_segment_requires_trainer(self, rng):
        store, runner = _run_pipeline(rng)
        gen = next(e for e in store.get_executions()
                   if e.type_name == "ExampleGen")
        with pytest.raises(InvalidQueryError):
            segment_trainer(store, gen.id, runner.context_id)

    def test_pushed_flag(self, rng):
        store, runner = _run_pipeline(
            rng, n_spans=9, blessed=lambda i: i == 2)
        graphlets = segment_pipeline(store, runner.context_id)
        assert [g.pushed for g in graphlets] == [True, False, False]

    def test_consecutive_pairs(self, rng):
        store, runner = _run_pipeline(rng, n_spans=9)
        graphlets = segment_pipeline(store, runner.context_id)
        pairs = consecutive_pairs(graphlets)
        assert len(pairs) == 2
        assert pairs[0][1] is pairs[1][0]


class TestGraphletProperties:
    def test_duration_spans_window(self, rng):
        store, runner = _run_pipeline(rng)
        graphlet = segment_pipeline(store, runner.context_id)[1]
        # Window of 3 daily spans: at least two days of span ingestion.
        assert graphlet.duration_hours >= 48.0

    def test_costs_positive(self, rng):
        store, runner = _run_pipeline(rng)
        graphlet = segment_pipeline(store, runner.context_id)[0]
        assert graphlet.total_cpu_hours > 0
        assert 0 < graphlet.training_cpu_hours < graphlet.total_cpu_hours

    def test_cost_by_group(self, rng):
        store, runner = _run_pipeline(rng)
        graphlet = segment_pipeline(store, runner.context_id)[0]
        groups = {facts.group for facts in
                  graphlet._execution_facts(graphlet.execution_ids)}
        assert {"training", "data_ingestion"} <= groups

    def test_span_sequence_ordered(self, rng):
        store, runner = _run_pipeline(rng)
        graphlet = segment_pipeline(store, runner.context_id)[1]
        sequence = graphlet.span_sequence_with_ids()[1]
        assert len(sequence) == 3

    def test_model_metadata(self, rng):
        store, runner = _run_pipeline(rng)
        graphlet = segment_pipeline(store, runner.context_id)[0]
        assert graphlet.model_type == "dnn"
        assert graphlet.code_version == "v1"
        assert not graphlet.trainer_failed

    def test_failed_trainer_graphlet(self, rng):
        store = MetadataStore()
        runner = PipelineRunner(_pipeline(), store, rng, simulation=True)
        schema = random_schema(rng, n_features=4)
        hints = {"new_span": synthetic_span(schema, 0, 100, rng),
                 "data_validation_ok": True, "model_blessed": True,
                 "fail_nodes": {"trainer"}}
        runner.run(0.0, kind="train", hints=hints)
        graphlets = segment_pipeline(store, runner.context_id)
        assert len(graphlets) == 1
        assert graphlets[0].trainer_failed
        assert graphlets[0].model_artifact_id is None
        assert graphlets[0].model_type == "unknown"
        assert not graphlets[0].pushed


class TestDatalogEquivalence:
    def test_imperative_matches_datalog(self, rng):
        store, runner = _run_pipeline(rng, n_spans=9)
        graphlets = segment_pipeline(store, runner.context_id)
        for graphlet in graphlets:
            datalog_execs = datalog_graphlet_executions(
                store, runner.context_id, graphlet.trainer_execution_id)
            # Rule-b additions are a post-processing step in both
            # implementations; compare the core (rules a + c) node sets.
            core = {
                e for e in graphlet.execution_ids
                if e in datalog_execs
                or store.get_execution(e).type_name
                not in DATA_ANALYSIS_TYPES
            }
            assert datalog_execs == core

    def test_datalog_with_warmstart_cut(self, rng):
        store, runner = _run_pipeline(rng, n_spans=9, warm_start=True)
        graphlets = segment_pipeline(store, runner.context_id)
        trainer_ids = {g.trainer_execution_id for g in graphlets}
        for graphlet in graphlets:
            datalog_execs = datalog_graphlet_executions(
                store, runner.context_id, graphlet.trainer_execution_id)
            assert not (datalog_execs
                        & (trainer_ids - {graphlet.trainer_execution_id}))
