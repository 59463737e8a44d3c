"""Crash-safe fleet runs: shard journal, partial stores, --resume.

The acceptance bar: a seeded fault plan that crashes a worker, in a run
that gives each shard one attempt (``max_attempts=1``), yields a
partial-but-valid store, and the resumed run converges on a store
row-identical to what the same plan produces at ``workers=1`` (where
the crash spec targets a shard that does not exist).
"""

import json
from dataclasses import asdict

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan, JournalError, ShardJournal
from repro.fleet import ShardSpec, generate_corpus_fleet
from repro.obs.fleetwatch import collect_fleet_status, render_fleet_status
from repro.obs.metrics import MetricsRegistry

# Shard 1 of 3 raises after finishing its first pipeline.
CRASH_PLAN = "transient:Trainer:0.4;worker_crash:1:1"


def _config(seed=11):
    return CorpusConfig(n_pipelines=6, seed=seed,
                        max_graphlets_per_pipeline=8,
                        max_window_spans=6)


def _rows(store):
    """Full row content, NaN-safe (repr makes nan compare equal)."""
    executions = [
        (e.type_name, e.state.value, e.start_time, e.end_time,
         repr(sorted(e.properties.items())))
        for e in store.get_executions()]
    artifacts = [
        (a.type_name, a.state.value, a.create_time,
         repr(sorted(a.properties.items())))
        for a in store.get_artifacts()]
    events = [(ev.artifact_id, ev.execution_id, ev.type.value, ev.time)
              for ev in store.get_events()]
    return executions, artifacts, events


@pytest.fixture()
def crashed_run(tmp_path):
    plan = FaultPlan.parse(CRASH_PLAN, seed=3)
    journal_dir = tmp_path / "corpus.db.shards"
    corpus, report = generate_corpus_fleet(
        _config(), workers=3, in_process=True, fault_plan=plan,
        journal_dir=journal_dir, max_attempts=1)
    return corpus, report, journal_dir, plan


class TestCrashDegradesToPartial:
    def test_failure_reported(self, crashed_run):
        _, report, _, _ = crashed_run
        assert not report.complete
        assert len(report.failed_shards) == 1
        failure = report.failed_shards[0]
        assert failure.shard_index == 1
        assert failure.kind == "worker_crash"
        assert failure.n_pipelines == 2
        assert report.missing_pipelines == 2

    def test_partial_store_is_valid(self, crashed_run):
        corpus, _, _, _ = crashed_run
        # Shards 0 and 2 merged: 4 of 6 pipelines present.
        assert len(corpus.records) == 4
        assert corpus.store.num_executions > 0
        # Every event references nodes that exist — valid, just partial.
        execution_ids = {e.id for e in corpus.store.get_executions()}
        artifact_ids = {a.id for a in corpus.store.get_artifacts()}
        for event in corpus.store.get_events():
            assert event.execution_id in execution_ids
            assert event.artifact_id in artifact_ids

    def test_journal_records_outcomes(self, crashed_run):
        _, _, journal_dir, _ = crashed_run
        manifest = json.loads((journal_dir / "manifest.json").read_text())
        assert manifest["fingerprint"]
        done = json.loads((journal_dir / "shard-0000.json").read_text())
        lost = json.loads((journal_dir / "shard-0001.json").read_text())
        assert done["status"] == "done"
        assert (journal_dir / "shard-0000.db").exists()
        assert (journal_dir / "shard-0000.tallies.json").exists()
        assert lost["status"] == "quarantined"
        assert lost["error_kind"] == "worker_crash"
        assert lost["crashes"] == 1
        # The crashed worker never reached its payload write.
        assert not (journal_dir / "shard-0001.db").exists()


class TestJsonTallies:
    def test_resume_rebuilds_records_and_instruments(self, tmp_path,
                                                     monkeypatch):
        """Every shard resumed from its ``.tallies.json`` gives the
        records (archetypes re-sampled) and the instrument states the
        run that wrote the journal held in memory."""
        folded = []
        fold = MetricsRegistry.fold

        def recording_fold(registry, records):
            folded.append(records)
            fold(registry, records)

        monkeypatch.setattr(MetricsRegistry, "fold", recording_fold)
        journal_dir = tmp_path / "corpus.db.shards"
        fresh, _ = generate_corpus_fleet(_config(), workers=3,
                                         in_process=True,
                                         journal_dir=journal_dir)
        fresh_folded = list(folded)
        folded.clear()
        resumed, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True,
            journal_dir=journal_dir, resume=True)
        assert report.resumed_shards == 3
        assert len(resumed.records) == 6
        assert resumed.records == fresh.records
        assert len(folded) == 3
        assert folded == fresh_folded


class TestResume:
    def test_resume_matches_fault_free_run(self, crashed_run):
        _, _, journal_dir, plan = crashed_run
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir, resume=True)
        assert report.complete
        assert report.resumed_shards == 2
        assert len(corpus.records) == 6
        # workers=1 lays out a single shard 0, so the crash spec never
        # fires — the same plan there IS the fault-free baseline.
        baseline, base_report = generate_corpus_fleet(
            _config(), workers=1, fault_plan=plan)
        assert base_report.complete
        assert _rows(corpus.store) == _rows(baseline.store)

    def test_resume_ignores_old_profile_files(self, crashed_run):
        # Journals written by the removed ``generate --profile-out``
        # hold a ``shard-NNNN.folded`` per finished shard. The profile
        # flag was never part of the fingerprint, so such a journal
        # still resumes and renders; the file is just never read.
        _, _, journal_dir, plan = crashed_run
        for shard in (0, 2):
            (journal_dir / f"shard-{shard:04d}.folded").write_text(
                f"# worker: shard-{shard:04d}\n# samples: 3\n"
                "fleet/workers.py:run_shard;"
                "corpus/generator.py:simulate_pipelines 3\n")
        status = collect_fleet_status(journal_dir)
        assert [s.state for s in status.shards] == [
            "done", "quarantined", "done"]
        assert "quarantined shard 1" in render_fleet_status(status)
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir, resume=True)
        assert report.complete
        assert report.resumed_shards == 2
        baseline, _ = generate_corpus_fleet(
            _config(), workers=1, fault_plan=plan)
        assert _rows(corpus.store) == _rows(baseline.store)
        status = collect_fleet_status(journal_dir)
        assert status.complete
        assert "shard   2" in render_fleet_status(status)

    def test_crash_fires_once_per_journal(self, crashed_run):
        # The journal counted the crash; the re-run shard is disarmed
        # and must complete rather than crash forever.
        _, _, journal_dir, plan = crashed_run
        _, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir, resume=True)
        assert report.complete
        entry = json.loads((journal_dir / "shard-0001.json").read_text())
        assert entry["status"] == "done"
        assert entry["crashes"] == 1  # not incremented again

    def test_fingerprint_mismatch_refused(self, crashed_run):
        _, _, journal_dir, plan = crashed_run
        with pytest.raises(JournalError, match="fingerprint"):
            generate_corpus_fleet(
                _config(seed=12), workers=3, in_process=True,
                fault_plan=plan, journal_dir=journal_dir, resume=True)
        # Dropping the fault plan changes the fingerprint too.
        with pytest.raises(JournalError, match="fingerprint"):
            generate_corpus_fleet(
                _config(), workers=3, in_process=True,
                journal_dir=journal_dir, resume=True)

    def test_resume_requires_journal_dir(self):
        with pytest.raises(ValueError, match="journal_dir"):
            generate_corpus_fleet(_config(), workers=2, in_process=True,
                                  resume=True)

    def test_resume_without_journal_refused(self, tmp_path):
        with pytest.raises(JournalError, match="nothing to resume"):
            generate_corpus_fleet(
                _config(), workers=2, in_process=True,
                journal_dir=tmp_path / "never-written.shards",
                resume=True)


class TestJournalLifecycle:
    def test_fresh_open_wipes_stale_journal(self, crashed_run, tmp_path):
        _, _, journal_dir, plan = crashed_run
        # A non-resume run at the same path starts a fresh journal.
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True,
            journal_dir=journal_dir)
        assert report.complete
        assert report.resumed_shards == 0
        assert len(corpus.records) == 6

    def test_cleanup_removes_directory(self, crashed_run):
        _, _, journal_dir, _ = crashed_run
        ShardJournal(journal_dir, fingerprint="").cleanup()
        assert not journal_dir.exists()

    def test_entry_bytes_are_those_of_asdict(self, tmp_path):
        """An entry is written shallowly, as ``asdict`` would write it."""
        journal = ShardJournal(tmp_path / "j", fingerprint="f")
        journal.open([ShardSpec(shard_index=0, start=0, stop=3)])
        entry = journal.entry(0)
        for attempt in (1, 2, 3):
            journal.record_failure(0, "worker_crash", f"crash {attempt}",
                                   crashed=True, attempt=attempt,
                                   rescheduled_from=attempt - 1)
            assert journal._entry_path(0).read_bytes() == json.dumps(
                asdict(entry), indent=2).encode()
        journal.record_done(0, attempt=4, rescheduled_from=3)
        assert len(entry.history) == 3
        assert journal._entry_path(0).read_bytes() == json.dumps(
            asdict(entry), indent=2).encode()


class TestFaultDeterminism:
    def test_operator_faults_invariant_to_worker_count(self):
        # Same plan, different sharding: the injected failures (and the
        # retries around them) land on identical rows.
        plan = FaultPlan.parse("transient:Trainer:0.5;permanent:Pusher:0.2",
                               seed=7)
        one, _ = generate_corpus_fleet(_config(), workers=1,
                                       fault_plan=plan)
        three, _ = generate_corpus_fleet(_config(), workers=3,
                                         in_process=True, fault_plan=plan)
        failed = [e for e in one.store.get_executions()
                  if e.state.value == "failed"]
        assert failed  # the plan actually bit
        assert _rows(one.store) == _rows(three.store)
