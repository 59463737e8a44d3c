"""Pipeline DSL validation tests."""

import pytest

from repro.tfx import (
    ExampleGen,
    NodeInput,
    PipelineDef,
    PipelineNode,
    PipelineValidationError,
    Pusher,
    Trainer,
)


def _simple_nodes():
    return [
        PipelineNode("gen", ExampleGen(), stage="ingest"),
        PipelineNode("trainer", Trainer(),
                     inputs={"spans": NodeInput("gen", "span", window=2)}),
        PipelineNode("pusher", Pusher(),
                     inputs={"model": NodeInput("trainer", "model")}),
    ]


class TestValidation:
    def test_valid_pipeline_builds(self):
        pipeline = PipelineDef("p", _simple_nodes())
        assert {n.operator.name for n in pipeline.nodes} == {
            "ExampleGen", "Trainer", "Pusher"}

    def test_duplicate_node_ids_rejected(self):
        nodes = _simple_nodes()
        nodes[1] = PipelineNode("gen", Trainer(),
                                inputs={"spans": NodeInput("gen", "span")})
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_unknown_source_rejected(self):
        nodes = [PipelineNode("trainer", Trainer(),
                              inputs={"spans": NodeInput("ghost", "span")})]
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_unknown_output_key_rejected(self):
        nodes = [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("trainer", Trainer(),
                         inputs={"spans": NodeInput("gen", "nope")}),
        ]
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_type_mismatch_rejected(self):
        nodes = [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("trainer", Trainer(),
                         inputs={"spans": NodeInput("gen", "span")}),
            # Pusher's "model" expects a Model but gets a DataSpan.
            PipelineNode("pusher", Pusher(),
                         inputs={"model": NodeInput("gen", "span")}),
        ]
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_unwired_required_input_rejected(self):
        nodes = [PipelineNode("pusher", Pusher(), inputs={})]
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_unknown_operator_input_key_rejected(self):
        nodes = [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("trainer", Trainer(),
                         inputs={"spans": NodeInput("gen", "span"),
                                 "bogus": NodeInput("gen", "span")}),
        ]
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_self_reference_must_not_be_fresh(self):
        nodes = [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("trainer", Trainer(), inputs={
                "spans": NodeInput("gen", "span"),
                "base_model": NodeInput("trainer", "model"),  # fresh=True
            }),
        ]
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_self_reference_with_history_allowed(self):
        nodes = [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("trainer", Trainer(), inputs={
                "spans": NodeInput("gen", "span"),
                "base_model": NodeInput("trainer", "model", fresh=False),
            }),
        ]
        PipelineDef("p", nodes)  # Must not raise.

    def test_cycle_rejected(self):
        from repro.tfx import Evaluator
        nodes = [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("a", Evaluator(), inputs={
                "model": NodeInput("b", "model"),
                "spans": NodeInput("gen", "span")}),
        ]
        # Create an actual 2-cycle through gates.
        nodes.append(PipelineNode("b", Trainer(), inputs={
            "spans": NodeInput("gen", "span")}, gates=["a"]))
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_unknown_gate_rejected(self):
        nodes = _simple_nodes()
        nodes[2].gates.append("ghost")
        with pytest.raises(PipelineValidationError):
            PipelineDef("p", nodes)

    def test_bad_stage_rejected(self):
        with pytest.raises(ValueError):
            PipelineNode("x", ExampleGen(), stage="weird")

    def test_window_validated(self):
        with pytest.raises(ValueError):
            NodeInput("gen", "span", window=0)


class TestTopology:
    def test_topological_order_respects_dependencies(self):
        pipeline = PipelineDef("p", _simple_nodes())
        order = [n.node_id for n in pipeline.topological_order()]
        assert order.index("gen") < order.index("trainer")
        assert order.index("trainer") < order.index("pusher")

    def test_trainer_node_ids(self):
        pipeline = PipelineDef("p", _simple_nodes())
        assert pipeline.trainer_node_ids() == ["trainer"]

    def test_node_lookup(self):
        pipeline = PipelineDef("p", _simple_nodes())
        assert pipeline.node("gen").operator.name == "ExampleGen"
        with pytest.raises(KeyError):
            pipeline.node("nope")
