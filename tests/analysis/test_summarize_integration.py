"""Cross-module checks: trace queries against analysis expectations."""

import pytest

from repro.mlmd import downstream_executions


def _executions_fed_by(store, artifact_id):
    """Executions downstream of an artifact: its consumers and theirs."""
    consumers = store.get_consumer_execution_ids(artifact_id)
    reached = set(consumers)
    for consumer in consumers:
        reached |= downstream_executions(store, consumer)
    return reached


class TestCorpusTraceQueries:
    def test_pushed_models_trace_back_to_spans(self, small_corpus):
        """Every pushed model must be reachable from at least one span —
        the chain quickstart prints, asserted corpus-wide."""
        store = small_corpus.store
        pushed = [a for a in store.get_artifacts()
                  if a.type_name == "PushedModel"][:20]
        for artifact in pushed:
            # Walk backwards: pusher → model → trainer → spans.
            pusher = store.get_execution(
                store.get_producer_execution_ids(artifact.id)[0])
            model = next(a for a in store.get_input_artifacts(pusher.id)
                         if a.type_name == "Model")
            trainer = store.get_execution(
                store.get_producer_execution_ids(model.id)[0])
            spans = [a for a in store.get_input_artifacts(trainer.id)
                     if a.type_name == "DataSpan"]
            assert spans
            # Forward again: span → trainer → model → pusher → pushed.
            reached = _executions_fed_by(store, spans[0].id)
            assert trainer.id in reached
            assert pusher.id in downstream_executions(store, trainer.id)
            assert pusher.id in reached

    def test_impact_set_contains_graphlet_outputs(self, small_corpus,
                                                  small_graphlets):
        store = small_corpus.store
        graphlets = next(g for g in small_graphlets.values() if g)
        graphlet = graphlets[0]
        span_id = graphlet.input_span_artifact_ids()[0]
        reached = _executions_fed_by(store, span_id)
        if graphlet.model_artifact_id is not None:
            producers = store.get_producer_execution_ids(
                graphlet.model_artifact_id)
            assert set(producers) <= reached

    def test_spans_do_not_reach_unrelated_pipelines(self, small_corpus):
        store = small_corpus.store
        contexts = small_corpus.production_context_ids
        if len(contexts) < 2:
            pytest.skip("need two pipelines")
        spans_a = [a for a in store.get_artifacts_by_context(contexts[0])
                   if a.type_name == "DataSpan"]
        models_b = [a for a in store.get_artifacts_by_context(contexts[1])
                    if a.type_name == "Model"]
        if not spans_a or not models_b:
            pytest.skip("sparse corpus draw")
        reached = _executions_fed_by(store, spans_a[0].id)
        producers = store.get_producer_execution_ids(models_b[0].id)
        assert reached.isdisjoint(producers)
