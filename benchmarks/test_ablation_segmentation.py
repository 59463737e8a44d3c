"""Ablations on graphlet segmentation (DESIGN.md Section 5).

1. Warm-start cut (rule c's Figure-8 cut): with the cut, graphlet size is
   bounded; without it, graphlets in warm-start pipelines accumulate
   their entire ancestry.
2. Imperative BFS vs the declarative Datalog fixpoint: identical results,
   very different speed.
"""

import time
from collections import deque

import numpy as np

from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.graphlets import (
    datalog_graphlet_executions,
    segment_pipeline,
    segment_trainer,
)
from repro.reporting import format_table

from conftest import emit, once


def _warmstart_corpus():
    config = CorpusConfig(n_pipelines=8, seed=3,
                          max_graphlets_per_pipeline=30,
                          warmstart_fraction=1.0)
    corpus, _ = generate_corpus_fleet(config)
    return corpus


def _ancestors_without_cut(store, trainer_id):
    """Rule (a) without the warm-start cut (the ablated variant)."""
    seen = set()
    frontier = deque([trainer_id])
    while frontier:
        current = frontier.popleft()
        for artifact_id in store.get_input_artifact_ids(current):
            for producer in store.get_producer_execution_ids(artifact_id):
                if producer not in seen and producer != trainer_id:
                    seen.add(producer)
                    frontier.append(producer)
    return seen


def test_warmstart_cut_bounds_graphlet_size(benchmark):
    from repro.graphlets.segmentation import _ancestor_executions

    corpus = once(benchmark, _warmstart_corpus)
    store = corpus.store
    rows = []
    for record in corpus.production_records[:4]:
        graphlets = segment_pipeline(store, record.context_id)
        if len(graphlets) < 5:
            continue
        # Like-for-like: ancestor-set size with the Figure-8 cut vs the
        # ablated traversal that follows warm-start edges.
        with_cut = [
            len(_ancestor_executions(store, g.trainer_execution_id)) + 1
            for g in graphlets
        ]
        without_cut = [
            len(_ancestors_without_cut(store, g.trainer_execution_id)) + 1
            for g in graphlets
        ]
        rows.append((record.archetype.name, with_cut[-1], without_cut[-1],
                     float(np.polyfit(range(len(without_cut)),
                                      without_cut, 1)[0])))
    emit("== Ablation: rule-c warm-start cut (ancestor-set sizes) ==\n"
         + format_table(("pipeline", "last graphlet (cut)",
                         "last graphlet (no cut)",
                         "growth/graphlet (no cut)"), rows))
    # Without the cut, each graphlet swallows its predecessors' entire
    # ancestry: by the end of the chain the ablated sets are strictly
    # larger and grow with graphlet index.
    for _, with_cut_last, without_cut_last, growth in rows:
        assert without_cut_last > with_cut_last
        assert growth > 0


def test_imperative_vs_datalog_speed(benchmark):
    config = CorpusConfig(n_pipelines=6, seed=5,
                          max_graphlets_per_pipeline=8,
                          max_window_spans=6)
    corpus, _ = generate_corpus_fleet(config)
    store = corpus.store
    # Any pipeline with a couple of trained models serves the
    # equivalence/speed comparison (production filter not required).
    record = next(r for r in corpus.records if r.n_models >= 2)
    trainers = [e for e in store.get_executions_by_context(
        record.context_id) if e.type_name == "Trainer"]

    def _imperative():
        return [segment_trainer(store, t.id, record.context_id)
                for t in trainers]

    graphlets = once(benchmark, _imperative)

    start = time.perf_counter()
    _imperative()
    imperative_seconds = time.perf_counter() - start
    start = time.perf_counter()
    datalog_sets = [
        datalog_graphlet_executions(store, record.context_id, t.id)
        for t in trainers
    ]
    datalog_seconds = time.perf_counter() - start
    emit("== Ablation: imperative BFS vs Datalog fixpoint ==\n"
         f"imperative: {imperative_seconds * 1e3:.1f} ms, "
         f"datalog: {datalog_seconds * 1e3:.1f} ms "
         f"({datalog_seconds / max(imperative_seconds, 1e-9):.0f}x)")
    # Same core node sets (rule b aside), wildly different cost.
    for graphlet, datalog_set in zip(graphlets, datalog_sets):
        assert datalog_set <= graphlet.execution_ids
        assert graphlet.trainer_execution_id in datalog_set
