"""Golden digest: graphlet segmentation is pinned id for id.

The corpus below mixes every shape the segmenter has to cut: warm-start
pipelines (a Trainer consumes the previous Trainer's Model), Trainer
attempts that failed under a seeded transient fault plan, and their
retries. Every graphlet's (context id, trainer id, sorted execution
ids, sorted artifact ids) is hashed in ``segment_corpus`` order. The
digest was computed before the query layer's second index copy was
removed; a change to segmentation that moves any id fails here. A
legitimate change of results re-computes it and says why.
"""

import hashlib

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan, RetryPolicy
from repro.fleet import generate_corpus_fleet
from repro.graphlets import segment_corpus
from repro.mlmd.types import ExecutionState
from repro.tfx import artifacts as A

GOLDEN = "5630165eda764cedd5c1c2ab8743bfbf9f94ab257ba028bca51e97f543754fd0"


@pytest.fixture(scope="module")
def corpus():
    config = CorpusConfig(n_pipelines=10, seed=17,
                          max_graphlets_per_pipeline=8,
                          max_window_spans=6, warmstart_fraction=0.5)
    plan = FaultPlan.parse("transient:Trainer:0.3;transient:*:0.05",
                           seed=5)
    corpus, _ = generate_corpus_fleet(
        config, fault_plan=plan, retry_policy=RetryPolicy(max_attempts=3))
    return corpus


def _graphlet_rows(graphlets_by_context):
    for context_id, graphlets in graphlets_by_context.items():
        for graphlet in graphlets:
            yield (context_id, graphlet.trainer_execution_id,
                   sorted(graphlet.execution_ids),
                   sorted(graphlet.artifact_ids))


def test_corpus_has_every_cut(corpus):
    """The digest covers warm-start cuts, failed trainers and retries."""
    store = corpus.store
    trainers = [e for e in store.get_executions()
                if e.type_name == "Trainer"]
    assert any(e.state is ExecutionState.FAILED for e in trainers)
    assert any(e.properties.get("retry_of") is not None for e in trainers)
    warm_started = [
        t for t in trainers
        if any(store.get_execution(p).type_name == "Trainer"
               for a in store.get_input_artifact_ids(t.id)
               for p in store.get_producer_execution_ids(a))]
    assert warm_started


def test_segmentation_digest(corpus):
    h = hashlib.sha256()
    count = 0
    for row in _graphlet_rows(segment_corpus(corpus.store)):
        h.update(repr(row).encode())
        h.update(b"\n")
        count += 1
    assert count > 50
    assert h.hexdigest() == GOLDEN


def test_pushed_matches_its_definition(corpus):
    """The cached push flag equals the definition read off the store."""
    store = corpus.store
    graphlets = [g for graphlets in segment_corpus(store).values()
                 for g in graphlets]
    for graphlet in graphlets:
        expected = any(store.get_artifact(a).type_name == A.PUSHED_MODEL
                       for a in graphlet.artifact_ids)
        assert graphlet.pushed is expected
        assert graphlet.pushed is expected  # the second read is cached
    flags = {g.pushed for g in graphlets}
    assert flags == {True, False}
