"""Property-based invariants of generated traces and their graphlets.

These are the structural guarantees every downstream analysis relies on;
they are checked over randomly-seeded miniature corpora.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import segment_production_pipelines
from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.mlmd import ExecutionState


@st.composite
def mini_corpora(draw):
    seed = draw(st.integers(0, 10_000))
    config = CorpusConfig(n_pipelines=2, seed=seed,
                          max_graphlets_per_pipeline=8,
                          max_window_spans=6)
    corpus, _ = generate_corpus_fleet(config)
    return corpus


class TestTraceInvariants:
    @given(mini_corpora())
    @settings(max_examples=12, deadline=None)
    def test_trace_is_acyclic_and_timestamped(self, corpus):
        store = corpus.store
        for execution in store.get_executions():
            assert execution.end_time >= execution.start_time
            for artifact in store.get_input_artifacts(execution.id):
                # Inputs existed before the execution finished.
                assert artifact.create_time <= execution.end_time + 1e-9
            for artifact in store.get_output_artifacts(execution.id):
                assert artifact.create_time >= execution.start_time - 1e-9

    @given(mini_corpora())
    @settings(max_examples=12, deadline=None)
    def test_failed_executions_have_no_outputs(self, corpus):
        store = corpus.store
        for execution in store.get_executions():
            if execution.state is ExecutionState.FAILED:
                assert not store.get_output_artifact_ids(execution.id)

    @given(mini_corpora())
    @settings(max_examples=12, deadline=None)
    def test_costs_recorded_on_every_execution(self, corpus):
        for execution in corpus.store.get_executions():
            assert execution.get("cpu_hours", 0.0) > 0.0
            assert execution.get("group") is not None

    @given(mini_corpora())
    @settings(max_examples=10, deadline=None)
    def test_graphlet_partition_of_trainers(self, corpus):
        """Every trainer belongs to exactly one graphlet (its own)."""
        graphlets_by_pipeline = segment_production_pipelines(corpus)
        for graphlets in graphlets_by_pipeline.values():
            trainer_ids = [g.trainer_execution_id for g in graphlets]
            assert len(set(trainer_ids)) == len(trainer_ids)
            for graphlet in graphlets:
                foreign = set(trainer_ids) - {graphlet.trainer_execution_id}
                assert not (graphlet.execution_ids & foreign)

    @given(mini_corpora())
    @settings(max_examples=10, deadline=None)
    def test_pushed_graphlets_contain_pusher(self, corpus):
        graphlets_by_pipeline = segment_production_pipelines(corpus)
        for graphlets in graphlets_by_pipeline.values():
            for graphlet in graphlets:
                if graphlet.pushed:
                    types = {graphlet.store.get_execution(e).type_name
                             for e in graphlet.execution_ids}
                    assert "Pusher" in types

    @given(mini_corpora())
    @settings(max_examples=10, deadline=None)
    def test_record_tallies_match_trace(self, corpus):
        store = corpus.store
        for record in corpus.records:
            models = [a for a in store.get_artifacts_by_context(
                record.context_id) if a.type_name == "Model"]
            pushes = [a for a in store.get_artifacts_by_context(
                record.context_id) if a.type_name == "PushedModel"]
            assert len(models) == record.n_models
            assert len(pushes) == record.n_pushes
