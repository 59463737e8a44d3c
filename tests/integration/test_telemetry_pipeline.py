"""End-to-end: corpus with a sink attached → persisted, joinable telemetry.

The acceptance criteria of the provenance-telemetry tentpole: every
execution the generator records gains a node telemetry row, the
diagnosis critical path stays within the graphlet's wall time, and the
waste split reconciles (±1%) with the pipeline's total recorded cost —
all of it surviving a SQLite round trip.
"""

from __future__ import annotations

import pytest

from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.graphlets.segmentation import segment_pipeline
from repro.mlmd import load_store, save_store
from repro.obs.diagnosis import critical_path, diagnose_pipeline
from repro.obs.provenance import METRIC_KIND, NODE_KIND, RUN_KIND


@pytest.fixture(scope="module")
def telemetry_corpus():
    config = CorpusConfig(n_pipelines=8, seed=11,
                          max_graphlets_per_pipeline=12,
                          max_window_spans=12)
    corpus, _ = generate_corpus_fleet(config, telemetry=True)
    return corpus


class TestCoverage:
    def test_every_execution_has_a_node_row(self, telemetry_corpus):
        store = telemetry_corpus.store
        covered = {r.execution_id
                   for r in store.get_telemetry(kind=NODE_KIND)}
        all_ids = {e.id for e in store.get_executions()}
        assert all_ids  # the corpus actually ran something
        assert covered == all_ids

    def test_every_run_has_a_run_row(self, telemetry_corpus):
        store = telemetry_corpus.store
        n_runs = sum(r.n_runs for r in telemetry_corpus.records)
        assert len(store.get_telemetry(kind=RUN_KIND)) == n_runs

    def test_registry_snapshot_is_persisted(self, telemetry_corpus):
        rows = telemetry_corpus.store.get_telemetry(kind=METRIC_KIND)
        names = {r.name for r in rows}
        assert "corpus.pipelines_generated" in names

    def test_node_rows_mirror_execution_cost(self, telemetry_corpus):
        store = telemetry_corpus.store
        for record in store.get_telemetry(kind=NODE_KIND)[:50]:
            execution = store.get_execution(record.execution_id)
            assert record.get("cpu_hours") == pytest.approx(
                float(execution.get("cpu_hours", 0.0)))


class TestDiagnosis:
    def test_critical_path_within_run_wall_time(self, telemetry_corpus):
        store = telemetry_corpus.store
        checked = 0
        for context_id in telemetry_corpus.production_context_ids:
            for graphlet in segment_pipeline(store, context_id):
                path = critical_path(graphlet)
                assert path.duration_hours <= \
                    graphlet.duration_hours + 1e-9
                checked += 1
        assert checked > 0

    def test_split_reconciles_with_recorded_cost(self, telemetry_corpus):
        store = telemetry_corpus.store
        for context_id in telemetry_corpus.production_context_ids:
            diagnosis = diagnose_pipeline(store, context_id)
            assert diagnosis.split.total == pytest.approx(
                diagnosis.total_cpu_hours, rel=0.01)
            assert diagnosis.telemetry_coverage == pytest.approx(1.0)


class TestPersistence:
    def test_telemetry_survives_sqlite_round_trip(self, telemetry_corpus,
                                                  tmp_path):
        store = telemetry_corpus.store
        path = tmp_path / "corpus.db"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.num_telemetry == store.num_telemetry
        # Joins are remapped, not just copied: pick one node row and
        # confirm it still lands on a real execution.
        record = loaded.get_telemetry(kind=NODE_KIND)[0]
        execution = loaded.get_execution(record.execution_id)
        assert record.name == execution.type_name
        # Diagnosis runs identically on the reloaded store.
        context_id = telemetry_corpus.production_context_ids[0]
        before = diagnose_pipeline(store, context_id)
        after = diagnose_pipeline(loaded, context_id)
        assert after.total_cpu_hours == pytest.approx(
            before.total_cpu_hours)
        assert after.telemetry_rows == before.telemetry_rows
