"""Unit tests for individual operators via direct run() calls."""

import pytest

from repro.data import materialize_span, random_schema, synthetic_span
from repro.mlmd import Artifact
from repro.tfx import (
    Evaluator,
    InfraValidator,
    ModelValidator,
    OperatorContext,
    Pusher,
    Trainer,
    Tuner,
)
from repro.tfx import artifacts as A
from repro.tfx.operators import ExampleGen, anonymized_digest


def _ctx(rng, simulation=True, hints=None, state=None):
    return OperatorContext(now=0.0, rng=rng, simulation=simulation,
                           hints=hints or {},
                           pipeline_state=state if state is not None
                           else {})


class TestExampleGen:
    def test_requires_span_hint(self, rng):
        with pytest.raises(ValueError):
            ExampleGen().run(_ctx(rng), {})

    def test_digest_names_are_anonymized_per_span(self, rng):
        schema = random_schema(rng, n_features=4)
        a = synthetic_span(schema, 1, 100, rng)
        b = synthetic_span(schema, 2, 100, rng)
        digest_a = anonymized_digest(a)
        digest_b = anonymized_digest(b)
        names_a = set(digest_a.names)
        names_b = set(digest_b.names)
        assert names_a.isdisjoint(names_b)

    def test_digest_truncated_for_huge_schemas(self, rng):
        schema = random_schema(rng, n_features=300)
        span = synthetic_span(schema, 1, 100, rng)
        assert anonymized_digest(span).feature_count == 256

    def test_cost_scales_with_examples(self, rng):
        schema = random_schema(rng, n_features=3)
        small = ExampleGen().run(_ctx(rng, hints={
            "new_span": synthetic_span(schema, 1, 1_000, rng)}), {})
        large = ExampleGen().run(_ctx(rng, hints={
            "new_span": synthetic_span(schema, 2, 1_000_000, rng)}), {})
        assert large.cost_scale > small.cost_scale


class TestTuner:
    def test_emits_hyperparams(self, rng):
        tg = Artifact(type_name=A.TRANSFORM_GRAPH, id=1)
        result = Tuner(num_trials=4).run(_ctx(rng),
                                         {"transform_graph": [tg]})
        payload = result.outputs["hyperparams"][0]
        assert 0 < payload.properties["learning_rate"] < 1
        assert payload.properties["num_trials"] == 4

    def test_validates_trials(self):
        with pytest.raises(ValueError):
            Tuner(num_trials=0)


class TestEvaluatorSim:
    def test_quality_from_hints(self, rng):
        model = Artifact(type_name=A.MODEL, id=1)
        span = Artifact(type_name=A.DATA_SPAN, id=2)
        result = Evaluator().run(
            _ctx(rng, hints={"model_quality": 0.83}),
            {"model": [model], "spans": [span]})
        assert result.outputs["evaluation"][0].properties["auc"] == 0.83


class TestModelValidatorSim:
    def test_blessed_emits_blessing(self, rng):
        evaluation = Artifact(type_name=A.MODEL_EVALUATION, id=1,
                              properties={"auc": 0.9})
        model = Artifact(type_name=A.MODEL, id=2)
        result = ModelValidator().run(
            _ctx(rng, hints={"model_blessed": True}),
            {"evaluation": [evaluation], "model": [model]})
        assert not result.blocking
        assert result.outputs["blessing"][0].properties["blessed"]

    def test_unblessed_emits_nothing_and_blocks(self, rng):
        evaluation = Artifact(type_name=A.MODEL_EVALUATION, id=1,
                              properties={"auc": 0.9})
        model = Artifact(type_name=A.MODEL, id=2)
        result = ModelValidator().run(
            _ctx(rng, hints={"model_blessed": False}),
            {"evaluation": [evaluation], "model": [model]})
        assert result.blocking
        assert not result.outputs

    def test_blessed_stashes_candidate_auc(self, rng):
        evaluation = Artifact(type_name=A.MODEL_EVALUATION, id=1,
                              properties={"auc": 0.77})
        model = Artifact(type_name=A.MODEL, id=2)
        state = {}
        ModelValidator().run(
            _ctx(rng, hints={"model_blessed": True}, state=state),
            {"evaluation": [evaluation], "model": [model]})
        assert state["candidate_auc"] == 0.77

    def test_real_path_compares_against_baseline(self, rng):
        evaluation = Artifact(type_name=A.MODEL_EVALUATION, id=1,
                              properties={"auc": 0.6})
        model = Artifact(type_name=A.MODEL, id=2)
        state = {"last_blessed_auc": 0.7}
        result = ModelValidator().run(
            _ctx(rng, simulation=False, state=state),
            {"evaluation": [evaluation], "model": [model]})
        assert result.blocking  # 0.6 < 0.7 baseline.


class TestInfraValidator:
    def test_sim_failure_blocks(self, rng):
        model = Artifact(type_name=A.MODEL, id=1)
        result = InfraValidator().run(_ctx(rng, hints={"infra_ok": False}),
                                      {"model": [model]})
        assert result.blocking

    def test_real_path_checks_payload(self, rng):
        model = Artifact(type_name=A.MODEL, id=1)
        ctx = _ctx(rng, simulation=False)
        ctx.payloads[1] = object()  # No predict() method.
        result = InfraValidator().run(ctx, {"model": [model]})
        assert result.blocking


class TestPusher:
    def test_throttled_pushes_nothing(self, rng):
        model = Artifact(type_name=A.MODEL, id=1)
        blessing = Artifact(type_name=A.MODEL_BLESSING, id=2,
                            properties={"blessed": True})
        result = Pusher().run(
            _ctx(rng, hints={"push_throttled": True}),
            {"model": [model], "blessing": [blessing]})
        assert not result.outputs

    def test_unblessed_blessing_pushes_nothing(self, rng):
        model = Artifact(type_name=A.MODEL, id=1)
        blessing = Artifact(type_name=A.MODEL_BLESSING, id=2,
                            properties={"blessed": False})
        result = Pusher().run(_ctx(rng),
                              {"model": [model], "blessing": [blessing]})
        assert not result.outputs

    def test_push_records_model_reference(self, rng):
        model = Artifact(type_name=A.MODEL, id=7)
        result = Pusher(destination="serving/x").run(
            _ctx(rng), {"model": [model], "blessing": []})
        pushed = result.outputs["pushed_model"][0]
        assert pushed.properties["model_artifact"] == 7
        assert pushed.properties["destination"] == "serving/x"


class TestTrainerSim:
    def test_injected_failure(self, rng):
        result = Trainer().run(_ctx(rng, hints={"trainer_fails": True}),
                               {"spans": []})
        assert not result.ok
        assert not result.outputs

    def test_model_type_cost_ordering(self, rng):
        from repro.tfx import ModelType
        dnn = Trainer(model_type=ModelType.DNN)
        linear = Trainer(model_type=ModelType.LINEAR)
        assert dnn._cost_scale() > linear._cost_scale()

    def test_code_version_hint_overrides(self, rng):
        span = Artifact(type_name=A.DATA_SPAN, id=1)
        result = Trainer(code_version="v1").run(
            _ctx(rng, hints={"code_version": "v9"}), {"spans": [span]})
        assert result.outputs["model"][0].properties["code_version"] == \
            "v9"

    def test_real_label_feature_must_be_numeric(self, rng):
        schema = random_schema(rng, n_features=4,
                               categorical_fraction=0.5)
        categorical = next(f.name for f in schema if f.is_categorical)
        span = materialize_span(schema, 0, 50, rng)
        trainer = Trainer(label_feature=categorical)
        ctx = _ctx(rng, simulation=False)
        ctx.payloads[1] = span
        span_artifact = Artifact(type_name=A.DATA_SPAN, id=1)
        with pytest.raises(ValueError):
            trainer._train_real(ctx, {"spans": [span_artifact]})
