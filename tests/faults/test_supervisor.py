"""Self-healing fleet runs: reschedule, quarantine, budget.

Every multi-shard run is supervised. The acceptance bar: a default run
that survives one crash and one hang completes without degradation, and its merged store is
row-identical to the fault-free run; a shard that fails past
``max_attempts`` is quarantined behind a DegradationReport whose
pipeline counts exactly partition the plan.
"""

import json

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan
from repro.faults.journal import ShardJournal
from repro.fleet import generate_corpus_fleet
from repro.fleet.supervisor import (DegradationReport, QuarantinedShard,
                                    SupervisorPolicy, render_degradation)


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


def _assert_quarantine_journaled(journal_dir):
    """Shard 1 of a ``worker_crash:1:1:repeat`` run with two attempts.

    The shard's journal entry is the run's one record of its attempts;
    no separate event log is written.
    """
    entry = json.loads((journal_dir / "shard-0001.json").read_text())
    assert entry["status"] == "quarantined"
    assert entry["attempt"] == 2
    assert entry["crashes"] == 2
    assert entry["history"] == [
        {"attempt": attempt, "failure_kind": "worker_crash",
         "message": "injected worker crash in shard 1 after 1 pipeline(s)"}
        for attempt in (1, 2)]
    assert not (journal_dir / "supervision.jsonl").exists()


@pytest.fixture(scope="module")
def baseline():
    corpus, report = generate_corpus_fleet(_config(), workers=1)
    assert report.complete
    return corpus


class TestInlineRecovery:
    """Reschedule/quarantine semantics without process spawn."""

    def test_crash_rescheduled_row_identical(self, tmp_path, baseline):
        plan = FaultPlan.parse("worker_crash:1:1", seed=3)
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=tmp_path / "j")
        assert report.complete
        assert report.degradation is not None
        d = report.degradation
        assert d.reschedules == 1
        assert not d.degraded
        assert d.merged_pipelines == d.planned_pipelines == 6
        assert _rows(corpus.store) == _rows(baseline.store)

    def test_hang_degrades_to_error_and_reschedules(self, tmp_path,
                                                    baseline):
        # Inline shards must never hang the driver: the injected hang
        # raises WorkerHangError and lands in the reschedule path.
        plan = FaultPlan.parse("worker_hang:2:1", seed=3)
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=tmp_path / "j")
        assert report.complete
        assert report.degradation.reschedules == 1
        assert _rows(corpus.store) == _rows(baseline.store)

    def test_attempt_provenance_journaled(self, tmp_path):
        plan = FaultPlan.parse("worker_crash:1:1:repeat", seed=3)
        journal_dir = tmp_path / "j"
        _, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True,
            max_attempts=2, fault_plan=plan, journal_dir=journal_dir)
        _assert_quarantine_journaled(journal_dir)
        assert report.degradation.reschedules == 1
        assert [q.shard_index for q in report.degradation.quarantined] \
            == [1]

    def test_quarantine_partitions_the_plan(self, tmp_path):
        plan = FaultPlan.parse("worker_crash:0:1:repeat", seed=3)
        journal_dir = tmp_path / "j"
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True,
            max_attempts=2, fault_plan=plan, journal_dir=journal_dir)
        assert not report.complete
        d = report.degradation
        assert d.degraded
        assert [q.shard_index for q in d.quarantined] == [0]
        assert d.quarantined[0].reason == "max_attempts"
        assert d.quarantined[0].attempts == 2
        # The exact partition: merged + quarantined == planned.
        assert d.merged_pipelines + d.lost_pipelines == d.planned_pipelines
        assert len(corpus.records) == d.merged_pipelines == 4
        # The report outlives the run for fleet-status post-mortems.
        persisted = json.loads(
            (journal_dir / "degradation.json").read_text())
        assert persisted["degraded"] is True
        assert persisted["lost_pipelines"] == 2

    def test_fault_budget_exhaustion_fails_fast(self, tmp_path):
        plan = FaultPlan.parse("worker_crash:0:1;worker_crash:2:1", seed=3)
        _, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True,
            fault_budget=1, fault_plan=plan, journal_dir=tmp_path / "j")
        d = report.degradation
        assert d.budget_spent == 1
        assert d.budget_exhausted
        # One crash got its reschedule; the other was quarantined on a
        # dry budget — without burning max_attempts worth of re-runs.
        assert d.reschedules == 1
        assert len(d.quarantined) == 1
        assert d.quarantined[0].reason == "fault_budget"
        assert d.quarantined[0].attempts == 1
        assert d.merged_pipelines + d.lost_pipelines == d.planned_pipelines

    def test_resume_re_arms_quarantined_shards(self, tmp_path, baseline):
        # Quarantine is per run, not forever: with the budget the only
        # reason for giving up, the resumed run (crash already counted
        # in the journal, so disarmed) completes and converges.
        plan = FaultPlan.parse("worker_crash:0:1", seed=3)
        journal_dir = tmp_path / "j"
        _, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True,
            fault_budget=0, fault_plan=plan, journal_dir=journal_dir)
        assert not report.complete
        assert report.degradation.quarantined[0].reason == "fault_budget"
        assert (journal_dir / "degradation.json").exists()
        corpus, resumed = generate_corpus_fleet(
            _config(), workers=3, in_process=True,
            fault_budget=0, fault_plan=plan, journal_dir=journal_dir,
            resume=True)
        assert resumed.complete
        assert resumed.resumed_shards == 2
        assert _rows(corpus.store) == _rows(baseline.store)

    def test_supervise_false_refused(self):
        # There is one recovery mode; a one-attempt run is spelled
        # max_attempts=1, which the error points to.
        with pytest.raises(ValueError, match="max_attempts=1"):
            generate_corpus_fleet(_config(), workers=2, in_process=True,
                                  supervise=False)


class TestProcessRecovery:
    """Real worker processes: kills, hangs, stall detection."""

    def test_attempt_provenance_journaled(self, tmp_path):
        plan = FaultPlan.parse("worker_crash:1:1:repeat", seed=3)
        journal_dir = tmp_path / "j"
        _, report = generate_corpus_fleet(
            _config(), workers=3, max_attempts=2,
            fault_plan=plan, journal_dir=journal_dir)
        _assert_quarantine_journaled(journal_dir)
        assert report.degradation.reschedules == 1
        if not report.used_processes:
            pytest.skip("sandbox denied processes; inline fallback ran")

    def test_survives_crash_and_hang_row_identical(self, tmp_path,
                                                   baseline):
        # The headline acceptance: one kill-mode crash plus one hang in
        # the same default run (no supervision option asked for),
        # recovered in-run, store row-identical.
        plan = FaultPlan.parse("worker_crash:1:1:kill;worker_hang:2:1",
                               seed=3)
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, stall_after=2.0,
            fault_plan=plan, journal_dir=tmp_path / "j")
        assert report.complete
        d = report.degradation
        assert d.reschedules == 2
        assert d.stalls_detected == 1
        assert not d.degraded
        assert _rows(corpus.store) == _rows(baseline.store)
        if not report.used_processes:
            pytest.skip("sandbox denied processes; inline fallback ran")


class TestPolicyAndReport:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="stall_after"):
            SupervisorPolicy(stall_after=0)
        with pytest.raises(ValueError, match="fault_budget"):
            SupervisorPolicy(fault_budget=-1)

    def test_report_round_trip(self):
        report = DegradationReport(
            planned_pipelines=10, planned_shards=5, merged_pipelines=8,
            quarantined=[QuarantinedShard(
                shard_index=3, start=6, stop=8, attempts=3,
                failure_kind="worker_hang", message="no heartbeat",
                reason="max_attempts")],
            attempts_histogram={1: 4, 3: 1}, reschedules=2,
            fault_budget=5, budget_spent=3)
        clone = DegradationReport.from_dict(report.to_dict())
        assert clone.lost_pipelines == report.lost_pipelines == 2
        assert clone.attempts_histogram == {1: 4, 3: 1}
        assert clone.quarantined == report.quarantined
        assert clone.to_dict() == report.to_dict()
        # An older version's degradation.json may carry hedge counts;
        # they load as unknown keys and drop.
        older = dict(report.to_dict(), hedges=1, hedge_wins=1)
        loaded = DegradationReport.from_dict(older)
        assert loaded.to_dict() == report.to_dict()
        assert "2 reschedule(s)" in render_degradation(loaded)

    def test_render_names_the_quarantine(self):
        report = DegradationReport(
            planned_pipelines=6, planned_shards=3, merged_pipelines=4,
            quarantined=[QuarantinedShard(
                shard_index=0, start=0, stop=2, attempts=2,
                failure_kind="worker_crash", message="boom",
                reason="max_attempts")],
            attempts_histogram={1: 2, 2: 1}, reschedules=1)
        text = render_degradation(report)
        assert "4/6 pipelines merged" in text
        assert "quarantined shard 0" in text
        assert "max_attempts" in text

    def test_journal_entry_back_compat(self, tmp_path):
        # A v2-era outcome entry (no attempt/history fields, plus an
        # unknown future key) still parses: missing fields default,
        # unknown keys are dropped.
        journal_dir = tmp_path / "j"
        journal_dir.mkdir()
        (journal_dir / "shard-0000.json").write_text(json.dumps({
            "shard_index": 0, "start": 0, "stop": 2,
            "status": "failed", "crashes": 1,
            "error_kind": "worker_crash", "error_message": "boom",
            "from_the_future": True}))
        journal = ShardJournal(journal_dir, fingerprint="x")
        entry = journal._read_entry(0)
        assert entry.status == "failed"
        assert entry.crashes == 1
        assert entry.attempt == 1
        assert entry.rescheduled_from == 0
        assert entry.history == []
