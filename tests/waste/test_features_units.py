"""Fine-grained feature-extraction tests against hand-built traces."""

import pytest

from repro.data import random_schema, synthetic_span
from repro.mlmd import MetadataStore
from repro.graphlets import segment_pipeline
from repro.tfx import (
    ExampleGen,
    Evaluator,
    ModelValidator,
    NodeInput,
    PipelineDef,
    PipelineNode,
    PipelineRunner,
    Pusher,
    Trainer,
)
from repro.waste import extract_features
from repro.waste.features import (
    FAMILY_CODE,
    FAMILY_INPUT,
    FAMILY_SHAPE_POST,
    FAMILY_SHAPE_PRE,
    FAMILY_SHAPE_TRAINER,
)


@pytest.fixture()
def traced(rng):
    """Three graphlets with controlled outcomes on a 2-span window."""
    store = MetadataStore()
    pipeline = PipelineDef("p", [
        PipelineNode("gen", ExampleGen(), stage="ingest"),
        PipelineNode("trainer", Trainer(),
                     inputs={"spans": NodeInput("gen", "span", window=2)}),
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
    runner = PipelineRunner(pipeline, store, rng, simulation=True)
    schema = random_schema(rng, n_features=5)
    blessed = [True, False, True]
    for i in range(3):
        hints = {"new_span": synthetic_span(schema, i, 500, rng,
                                            ingest_time=i * 24.0),
                 "model_quality": 0.8, "model_blessed": blessed[i],
                 "code_version": f"v{1 if i < 2 else 2}",
                 "push_throttled": False}
        runner.run(i * 24.0, kind="train", hints=hints)
    return store, segment_pipeline(store, runner.context_id)


class TestShapeFamilies:
    def test_pre_shape_counts_window(self, traced):
        _, graphlets = traced
        features = extract_features(graphlets[1], graphlets[:1])
        pre = features.by_family[FAMILY_SHAPE_PRE]
        assert pre["ExampleGen_count"] == 2.0  # window=2

    def test_trainer_shape_io(self, traced):
        _, graphlets = traced
        features = extract_features(graphlets[1], graphlets[:1])
        trainer = features.by_family[FAMILY_SHAPE_TRAINER]
        assert trainer["Trainer_count"] == 1.0
        assert trainer["Trainer_avg_in"] == 2.0
        assert trainer["Trainer_avg_out"] == 1.0

    def test_post_shape_sees_blessing_outcome(self, traced):
        _, graphlets = traced
        blessed = extract_features(graphlets[0], [])
        unblessed = extract_features(graphlets[1], graphlets[:1])
        post_blessed = blessed.by_family[FAMILY_SHAPE_POST]
        post_unblessed = unblessed.by_family[FAMILY_SHAPE_POST]
        # Blessed graphlet: validator emitted a blessing and the pusher
        # ran; unblessed: no blessing artifact, pusher blocked.
        assert post_blessed["ModelValidator_avg_out"] == 1.0
        assert post_unblessed["ModelValidator_avg_out"] == 0.0
        assert post_blessed.get("Pusher_count", 0.0) == 1.0
        assert post_unblessed.get("Pusher_count", 0.0) == 0.0


class TestHistoryFamilies:
    def test_jaccard_of_rolling_window(self, traced):
        _, graphlets = traced
        # Graphlet windows grow {0}, {0,1}, {1,2}.
        second = extract_features(graphlets[1], graphlets[:1])
        assert second.by_family[FAMILY_INPUT]["jaccard_1"] == \
            pytest.approx(1 / 2)
        third = extract_features(graphlets[2], graphlets[:2])
        assert third.by_family[FAMILY_INPUT]["jaccard_1"] == \
            pytest.approx(1 / 3)

    def test_time_gap_measured_in_hours(self, traced):
        _, graphlets = traced
        features = extract_features(graphlets[2], graphlets[:2])
        inputs = features.by_family[FAMILY_INPUT]
        assert inputs["time_gap_1"] == pytest.approx(24.0, abs=6.0)
        assert inputs["time_gap_2"] == pytest.approx(48.0, abs=8.0)

    def test_code_change_detected(self, traced):
        _, graphlets = traced
        features = extract_features(graphlets[2], graphlets[:2])
        code = features.by_family[FAMILY_CODE]
        assert code["code_change_1"] == 1.0  # v1 -> v2
        assert code["code_change_2"] == 1.0
