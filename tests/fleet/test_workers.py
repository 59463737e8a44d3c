"""Fleet generation tests: shard planning, determinism, aggregation."""

import tempfile

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan, journal_dir_for
from repro.faults.journal import shard_db_path
from repro.fleet import (
    generate_corpus_fleet,
    pipeline_rng,
    plan_shards,
    run_shard,
)
from repro.fleet import workers as fleet_workers
from repro.graphlets import segment_pipeline
from repro.mlmd import load_store
from repro.obs.metrics import get_registry


def _tiny_config(seed=11):
    return CorpusConfig(n_pipelines=6, seed=seed,
                        max_graphlets_per_pipeline=8,
                        max_window_spans=6)


class TestPlanShards:
    def test_even_split(self):
        shards = plan_shards(8, 4)
        assert [s.n_pipelines for s in shards] == [2, 2, 2, 2]

    def test_remainder_goes_to_leading_shards(self):
        shards = plan_shards(10, 4)
        assert [s.n_pipelines for s in shards] == [3, 3, 2, 2]

    def test_contiguous_cover(self):
        shards = plan_shards(10, 3)
        indices = [i for s in shards for i in range(s.start, s.stop)]
        assert indices == list(range(10))

    def test_workers_clamped_to_pipelines(self):
        shards = plan_shards(3, 8)
        assert len(shards) == 3
        assert all(s.n_pipelines == 1 for s in shards)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(0, 2)
        with pytest.raises(ValueError):
            plan_shards(4, 0)


class TestPipelineRng:
    def test_same_index_same_stream(self):
        assert pipeline_rng(7, 3).random() == pipeline_rng(7, 3).random()

    def test_streams_independent_of_each_other(self):
        draws = {pipeline_rng(7, i).random() for i in range(20)}
        assert len(draws) == 20

    def test_seed_changes_stream(self):
        assert pipeline_rng(7, 0).random() != pipeline_rng(8, 0).random()


@pytest.fixture(scope="module")
def sequential_fleet():
    return generate_corpus_fleet(_tiny_config(), workers=1)


@pytest.fixture(scope="module")
def parallel_fleet():
    # in_process keeps the test fast and sandbox-proof; a true
    # process-pool run is exercised separately below.
    return generate_corpus_fleet(_tiny_config(), workers=4,
                                 in_process=True)


def _execution_rows(store):
    return [(e.type_name, e.state.value, e.start_time, e.end_time,
             float(e.get("cpu_hours", 0.0)))
            for e in store.get_executions()]


class TestShardCountDeterminism:
    """Satellite (a): workers=1 and workers=4 produce the same corpus."""

    def test_store_sizes_match(self, sequential_fleet, parallel_fleet):
        seq, par = sequential_fleet[0].store, parallel_fleet[0].store
        assert seq.num_artifacts == par.num_artifacts
        assert seq.num_executions == par.num_executions
        assert len(seq.get_events()) == len(par.get_events())

    def test_execution_rows_identical(self, sequential_fleet,
                                      parallel_fleet):
        assert _execution_rows(sequential_fleet[0].store) == \
            _execution_rows(parallel_fleet[0].store)

    def test_pipeline_records_identical(self, sequential_fleet,
                                        parallel_fleet):
        seq_records = sequential_fleet[0].records
        par_records = parallel_fleet[0].records
        assert [(r.context_id, r.archetype.model_type, r.n_runs,
                 r.n_models, r.n_pushes) for r in seq_records] == \
            [(r.context_id, r.archetype.model_type, r.n_runs,
              r.n_models, r.n_pushes) for r in par_records]

    def test_graphlet_aggregates_identical(self, sequential_fleet,
                                           parallel_fleet):
        seq, par = sequential_fleet[0], parallel_fleet[0]
        assert seq.production_context_ids == par.production_context_ids
        for cid in seq.production_context_ids:
            seq_graphlets = segment_pipeline(seq.store, cid)
            par_graphlets = segment_pipeline(par.store, cid)
            assert [(g.pushed, g.total_cpu_hours)
                    for g in seq_graphlets] == \
                [(g.pushed, g.total_cpu_hours) for g in par_graphlets]

    def test_report_shapes(self, parallel_fleet):
        _, report = parallel_fleet
        assert report.workers == 4
        assert report.pipelines == 6
        assert len(report.shard_seconds) == 4
        assert not report.used_processes  # in_process run


class TestProcessPool:
    def test_real_processes_match_sequential(self, sequential_fleet):
        corpus, report = generate_corpus_fleet(_tiny_config(), workers=2)
        assert _execution_rows(corpus.store) == \
            _execution_rows(sequential_fleet[0].store)
        # If the sandbox denies fork the run falls back in-process and
        # still must match; when the pool works, say so.
        assert report.workers == 2


class TestCounterAggregation:
    """Satellite (c): per-shard counts fold into the parent registry."""

    def test_pipelines_generated_counts_all_shards(self):
        counter = get_registry().counter("corpus.pipelines_generated")
        before = counter.value
        generate_corpus_fleet(_tiny_config(), workers=3, in_process=True)
        assert counter.value == before + 6

    def test_progress_reports_every_shard(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            fleet_workers, "print_progress",
            lambda done, total, store: seen.append((done, total)))
        generate_corpus_fleet(
            _tiny_config(), workers=3, in_process=True, progress=True)
        assert seen == [(2, 6), (4, 6), (6, 6)]


class TestRunShard:
    def test_shard_is_restartable(self, tmp_path):
        config = _tiny_config()
        spec = plan_shards(config.n_pipelines, 3)[1]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = run_shard(spec, config, journal_dir=tmp_path / "a")
        run_shard(spec, config, journal_dir=tmp_path / "b")
        assert len(first.records) == spec.n_pipelines
        first_store, second_store = (
            load_store(shard_db_path(tmp_path / name, spec.shard_index))
            for name in ("a", "b"))
        assert _all_rows(first_store) == _all_rows(second_store)

    def test_worker_registry_isolated(self):
        # run_shard counts into a private registry and restores the
        # caller's; the caller's instruments must not move.
        config = _tiny_config()
        counter = get_registry().counter("corpus.pipelines_generated")
        before = counter.value
        run_shard(plan_shards(config.n_pipelines, 2)[0], config)
        assert counter.value == before


class TestShardFailureDegradation:
    def test_crashed_worker_loses_only_its_shard(self):
        plan = FaultPlan.parse("worker_crash:0:1")
        corpus, report = generate_corpus_fleet(
            _tiny_config(), workers=3, in_process=True, fault_plan=plan,
            max_attempts=1)
        assert not report.complete
        assert [f.kind for f in report.failed_shards] == ["worker_crash"]
        assert report.failed_shards[0].shard_index == 0
        assert report.missing_pipelines == 2
        # The other two shards merged into a valid partial corpus.
        assert len(corpus.records) == 4
        assert corpus.store.num_executions > 0

    def test_failure_message_names_the_shard(self):
        plan = FaultPlan.parse("worker_crash:2:1")
        _, report = generate_corpus_fleet(
            _tiny_config(), workers=3, in_process=True, fault_plan=plan,
            max_attempts=1)
        failure = report.failed_shards[0]
        assert "shard 2" in failure.message

    def test_counters_fold_identically_on_resume(self, tmp_path):
        # A resumed run folds the journaled shards' counters, so the
        # total matches a fault-free run exactly — resumed pipelines
        # are not re-counted and not forgotten.
        counter = get_registry().counter("corpus.pipelines_generated")
        plan = FaultPlan.parse("worker_crash:1:1")
        journal_dir = journal_dir_for(tmp_path / "corpus.db")
        before = counter.value
        generate_corpus_fleet(_tiny_config(), workers=3, in_process=True,
                              fault_plan=plan, journal_dir=journal_dir,
                              max_attempts=1)
        assert counter.value == before + 4  # crashed shard lost its 2
        before = counter.value
        generate_corpus_fleet(_tiny_config(), workers=3, in_process=True,
                              fault_plan=plan, journal_dir=journal_dir,
                              resume=True)
        assert counter.value == before + 6  # 4 journaled + 2 re-run


class TestExecCache:
    def test_cache_reconciles_against_uncached(self):
        config = _tiny_config()
        plain, _ = generate_corpus_fleet(config, workers=2,
                                         in_process=True)
        cached, report = generate_corpus_fleet(config, workers=2,
                                               in_process=True,
                                               exec_cache=True)
        assert report.cache_hits > 0
        assert 0.0 < report.cache_hit_rate < 1.0
        plain_total = sum(float(e.get("cpu_hours", 0.0))
                          for e in plain.store.get_executions())
        cached_total = sum(float(e.get("cpu_hours", 0.0))
                           for e in cached.store.get_executions())
        assert plain_total == pytest.approx(
            cached_total + report.saved_cpu_hours, rel=1e-6)

    def test_cached_rows_in_trace(self):
        corpus, report = generate_corpus_fleet(_tiny_config(),
                                               workers=1,
                                               exec_cache=True)
        cached = [e for e in corpus.store.get_executions()
                  if e.state.value == "cached"]
        assert len(cached) == report.cache_hits
        assert all(e.get("cpu_hours") == 0.0 for e in cached)
        assert sum(float(e.get("saved_cpu_hours", 0.0))
                   for e in cached) == pytest.approx(
            report.saved_cpu_hours, rel=1e-9)

    def test_cache_invariant_to_shard_count(self):
        config = _tiny_config()
        _, one = generate_corpus_fleet(config, workers=1,
                                       exec_cache=True)
        _, four = generate_corpus_fleet(config, workers=4,
                                        in_process=True, exec_cache=True)
        assert one.cache_hits == four.cache_hits
        assert one.saved_cpu_hours == pytest.approx(
            four.saved_cpu_hours, rel=1e-12)


def _all_rows(store):
    """Every stored row, ids included (repr compares NaN equal)."""
    return [[repr(row) for row in rows] for rows in (
        store.get_contexts(), store.get_executions(),
        store.get_artifacts(), store.get_events())]


def _refuse_merging(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("single-shard run merged a shard file")

    monkeypatch.setattr("repro.fleet.workers.append_store", refuse)


class TestSingleShardDirect:
    """One shard, nothing resumed: simulated straight into the
    destination store, never merged from a shard file."""

    def test_workers_1_never_merges(self, monkeypatch, parallel_fleet):
        _refuse_merging(monkeypatch)
        corpus, report = generate_corpus_fleet(_tiny_config(), workers=1)
        assert report.complete
        assert report.merge_rows == 0
        assert len(corpus.records) == 6
        assert _all_rows(corpus.store) == _all_rows(parallel_fleet[0].store)

    def test_journal_payload_written_and_resumable(self, monkeypatch,
                                                   tmp_path):
        journal_dir = journal_dir_for(tmp_path / "corpus.db")
        _refuse_merging(monkeypatch)
        corpus, report = generate_corpus_fleet(
            _tiny_config(), workers=1, journal_dir=journal_dir)
        assert report.merge_rows == 0
        assert (journal_dir / "shard-0000.db").exists()
        assert (journal_dir / "shard-0000.tallies.json").exists()
        # Resuming the finished journal merges its payload back.
        monkeypatch.undo()
        resumed, report = generate_corpus_fleet(
            _tiny_config(), workers=1, journal_dir=journal_dir,
            resume=True)
        assert report.resumed_shards == 1
        assert report.merge_rows > 0
        assert resumed.records == corpus.records
        assert _all_rows(resumed.store) == _all_rows(corpus.store)

    def test_lost_shard_leaves_no_partial_rows(self):
        plan = FaultPlan.parse("worker_crash:0:2")
        corpus, report = generate_corpus_fleet(_tiny_config(), workers=1,
                                               fault_plan=plan)
        assert [f.kind for f in report.failed_shards] == ["worker_crash"]
        assert corpus.records == []
        assert corpus.store.num_executions == 0


class TestOneLoader:
    """Every merged shard — fresh or resumed — goes through the one
    loader, and an unjournaled run leaves no journal behind."""

    def _count_loads(self, monkeypatch):
        from repro.mlmd.sqlite_store import append_store

        loaded = []

        def counting(path, store):
            loaded.append(path.name)
            return append_store(path, store)

        monkeypatch.setattr("repro.fleet.workers.append_store", counting)
        return loaded

    def test_fresh_and_resumed_shards_share_the_loader(self, monkeypatch,
                                                       tmp_path):
        loaded = self._count_loads(monkeypatch)
        journal_dir = journal_dir_for(tmp_path / "corpus.db")
        plan = FaultPlan.parse("worker_crash:1:1")
        _, report = generate_corpus_fleet(
            _tiny_config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir, max_attempts=1)
        assert not report.complete
        assert loaded == ["shard-0000.db", "shard-0002.db"]
        loaded.clear()
        resumed, report = generate_corpus_fleet(
            _tiny_config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir, resume=True)
        assert report.resumed_shards == 2
        assert loaded == ["shard-0000.db", "shard-0001.db", "shard-0002.db"]
        # Shard 1 does not exist in the one-shard layout: the control.
        control, _ = generate_corpus_fleet(_tiny_config(), workers=1,
                                           fault_plan=plan)
        assert _all_rows(resumed.store) == _all_rows(control.store)

    @pytest.mark.parametrize("fault", [None, "worker_crash:1:1"])
    def test_unjournaled_run_removes_its_journal(self, monkeypatch,
                                                 tmp_path, fault):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        plan = FaultPlan.parse(fault) if fault else None
        during = []
        monkeypatch.setattr(
            fleet_workers, "print_progress",
            lambda done, total, store:
                during.append(len(list(tmp_path.iterdir()))))
        _, report = generate_corpus_fleet(
            _tiny_config(), workers=3, in_process=True, fault_plan=plan,
            max_attempts=1, progress=True)
        assert during and all(during)  # the run journaled under tmp_path
        assert report.complete is (fault is None)
        assert report.merge_rows > 0
        assert report.journal_dir == ""
        assert list(tmp_path.iterdir()) == []
