"""Operator-level tests on the real-execution path."""

import numpy as np
import pytest

from repro.data import (
    AnalyzerKind,
    materialize_span,
    random_schema,
)
from repro.tfx import (
    CostModel,
    CustomOperator,
    ExampleGen,
    ExampleValidator,
    Evaluator,
    ModelType,
    ModelValidator,
    NodeInput,
    OperatorGroup,
    PipelineDef,
    PipelineNode,
    PipelineRunner,
    Pusher,
    RAN,
    SchemaGen,
    StatisticsGen,
    Trainer,
    Transform,
)
from repro.mlmd import MetadataStore


def _real_pipeline(model_type=ModelType.TREES):
    return PipelineDef("real", [
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
        PipelineNode("transform", Transform(analyzer_counts={
            AnalyzerKind.VOCABULARY: 1, AnalyzerKind.MEAN: 2}),
            inputs={"spans": NodeInput("gen", "span", window=2),
                    "schema": NodeInput("schema", "schema")},
            gates=["validator"]),
        PipelineNode("trainer", Trainer(model_type=model_type),
                     inputs={"spans": NodeInput("gen", "span", window=2),
                             "transform_graph":
                                 NodeInput("transform",
                                           "transform_graph")}),
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


@pytest.fixture()
def real_run(rng):
    """Run the real pipeline twice; return (store, runner, reports)."""
    store = MetadataStore()
    runner = PipelineRunner(_real_pipeline(), store, rng,
                            simulation=False)
    schema = random_schema(rng, n_features=8, categorical_fraction=0.4)
    reports = []
    for i in range(2):
        span = materialize_span(schema, i, 400, rng, ingest_time=i * 24.0)
        reports.append(runner.run(i * 24.0, kind="train",
                                  hints={"new_span": span}))
    return store, runner, reports


class TestRealExecution:
    def test_pipeline_trains_real_model(self, real_run):
        store, runner, reports = real_run
        assert reports[0].node_status["trainer"] == RAN
        model_id = reports[0].output_artifact_ids["trainer"][0]
        model = runner.payloads[model_id]
        assert hasattr(model, "predict")
        assert store.get_artifact(model_id).get("train_accuracy") > 0.5

    def test_real_evaluation_produces_auc(self, real_run):
        store, runner, reports = real_run
        eval_id = reports[0].output_artifact_ids["evaluator"][0]
        auc = store.get_artifact(eval_id).get("auc")
        assert 0.0 <= auc <= 1.0

    def test_first_model_blessed_and_pushed(self, real_run):
        _, _, reports = real_run
        assert reports[0].pushed

    def test_transform_runs_real_analyzers(self, real_run):
        store, runner, reports = real_run
        tg_id = reports[0].output_artifact_ids["transform"][0]
        payload = runner.payloads[tg_id]
        kinds = {key[0] for key in payload}
        assert "vocabulary" in kinds
        assert "mean" in kinds

    def test_real_data_validation_passes_on_stable_data(self, real_run):
        store, _, reports = real_run
        validation_id = reports[1].output_artifact_ids["validator"][0]
        assert store.get_artifact(validation_id).get("ok")


class TestExampleValidatorReal:
    def test_flags_schema_escape(self, rng):
        from repro.data.schema import (FeatureSpec, FeatureType,
                                       NumericDomain, Schema)
        store = MetadataStore()
        pipeline = PipelineDef("p", [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("stats", StatisticsGen(),
                         inputs={"spans": NodeInput("gen", "span")},
                         stage="ingest"),
            PipelineNode("schema", SchemaGen(),
                         inputs={"statistics": NodeInput(
                             "stats", "statistics")}, stage="ingest"),
            PipelineNode("validator", ExampleValidator(),
                         inputs={"statistics": NodeInput(
                             "stats", "statistics"),
                             "schema": NodeInput("schema", "schema")},
                         stage="ingest"),
        ])
        runner = PipelineRunner(pipeline, store, rng, simulation=False)
        stable = Schema(features=[FeatureSpec(
            name="f", type=FeatureType.NUMERIC,
            numeric=NumericDomain(mean=0.0, stddev=1.0))])
        shifted = Schema(features=[FeatureSpec(
            name="f", type=FeatureType.NUMERIC,
            numeric=NumericDomain(mean=100.0, stddev=1.0))])
        runner.run(0.0, kind="ingest", hints={
            "new_span": materialize_span(stable, 0, 300, rng)})
        report = runner.run(24.0, kind="ingest", hints={
            "new_span": materialize_span(shifted, 1, 300, rng)})
        validation_id = report.output_artifact_ids["validator"][0]
        assert not store.get_artifact(validation_id).get("ok")


class TestTrainerModels:
    @pytest.mark.parametrize("model_type", [
        ModelType.DNN, ModelType.LINEAR, ModelType.TREES,
        ModelType.ENSEMBLE,
    ])
    def test_each_model_family_trains(self, rng, model_type):
        store = MetadataStore()
        pipeline = PipelineDef("p", [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("trainer", Trainer(model_type=model_type),
                         inputs={"spans": NodeInput("gen", "span")}),
        ])
        runner = PipelineRunner(pipeline, store, rng, simulation=False)
        schema = random_schema(rng, n_features=5,
                               categorical_fraction=0.0)
        span = materialize_span(schema, 0, 300, rng)
        report = runner.run(0.0, kind="train", hints={"new_span": span})
        assert report.node_status["trainer"] == RAN
        model_id = report.output_artifact_ids["trainer"][0]
        assert store.get_artifact(model_id).get("model_type") == \
            model_type.value


class TestCustomOperator:
    def test_custom_runs_fn_on_real_path(self, rng):
        store = MetadataStore()
        pipeline = PipelineDef("p", [
            PipelineNode("custom",
                         CustomOperator(label="biz",
                                        fn=lambda ctx, inputs: 42),
                         stage="ingest"),
        ])
        runner = PipelineRunner(pipeline, store, rng, simulation=False)
        report = runner.run(0.0, kind="ingest", hints={})
        artifact_id = report.output_artifact_ids["custom"][0]
        assert runner.payloads[artifact_id] == 42
        assert store.get_artifact(artifact_id).get("label") == "biz"


class TestCostModel:
    def test_costs_positive_and_scale(self, rng):
        model = CostModel()
        small = np.mean([model.sample(OperatorGroup.TRAINING, rng, 0.1)
                         for _ in range(200)])
        big = np.mean([model.sample(OperatorGroup.TRAINING, rng, 10.0)
                       for _ in range(200)])
        assert 0 < small < big

    def test_wall_clock_conversion(self):
        model = CostModel()
        assert model.wall_clock_hours(16.0, parallelism=8.0) == \
            pytest.approx(2.0)
        assert model.wall_clock_hours(0.0) > 0  # floor
