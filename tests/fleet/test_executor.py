"""The one shard executor: every multi-shard run goes through the supervisor.

``max_attempts=1`` is how a run fails a shard at its first failure and
leaves a partial run for ``resume=True``: the shard is quarantined
(journal status ``quarantined``, its failure kind and crash counted),
``degradation.json`` records the loss, and the report's counts
partition the plan. These tests pin that contract for inline runs,
real worker processes, and a sandbox that denies process spawn.
"""

import inspect
import json
import multiprocessing
import sys
import time

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan
from repro.fleet import generate_corpus_fleet, supervisor


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


@pytest.fixture(scope="module")
def baseline():
    corpus, report = generate_corpus_fleet(_config(), workers=1)
    assert report.complete
    return _rows(corpus.store)


def _entry(journal_dir, shard_index):
    return json.loads(
        (journal_dir / f"shard-{shard_index:04d}.json").read_text())


def _assert_quarantined_once(journal_dir, report, shard_index, kind):
    """One shard of three lost after its only attempt, recorded as such."""
    entry = _entry(journal_dir, shard_index)
    assert entry["status"] == "quarantined"
    assert entry["error_kind"] == kind
    assert entry["crashes"] == 1
    assert entry["attempt"] == 1
    assert [f.shard_index for f in report.failed_shards] == [shard_index]
    assert report.failed_shards[0].kind == kind
    d = report.degradation
    assert [(q.shard_index, q.attempts, q.failure_kind, q.reason)
            for q in d.quarantined] == [(shard_index, 1, kind,
                                         "max_attempts")]
    assert d.reschedules == 0
    assert d.merged_pipelines + d.lost_pipelines \
        == d.planned_pipelines == 6
    assert d.lost_pipelines == report.missing_pipelines == 2
    persisted = json.loads((journal_dir / "degradation.json").read_text())
    assert persisted["lost_pipelines"] == 2
    assert not (journal_dir / "attempts").exists()


class TestOneAttemptInline:
    def test_hang_is_labelled_worker_hang(self, tmp_path, baseline):
        plan = FaultPlan.parse("worker_hang:1:1", seed=3)
        journal_dir = tmp_path / "j"
        _, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir, max_attempts=1)
        assert "shard 1" in report.failed_shards[0].message
        _assert_quarantined_once(journal_dir, report, 1, "worker_hang")

        corpus, resumed = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir, resume=True, max_attempts=1)
        assert resumed.complete
        assert resumed.resumed_shards == 2
        assert _rows(corpus.store) == baseline


class TestOneAttemptProcesses:
    def test_kill_loses_only_its_shard_then_resumes(self, tmp_path,
                                                    baseline):
        plan = FaultPlan.parse("worker_crash:1:1:kill", seed=3)
        journal_dir = tmp_path / "j"
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, fault_plan=plan,
            journal_dir=journal_dir, max_attempts=1)
        assert report.used_processes
        assert len(corpus.records) == 4
        assert [_entry(journal_dir, i)["status"] for i in (0, 2)] \
            == ["done", "done"]
        _assert_quarantined_once(journal_dir, report, 1, "worker_killed")

        corpus, resumed = generate_corpus_fleet(
            _config(), workers=3, fault_plan=plan,
            journal_dir=journal_dir, resume=True, max_attempts=1)
        assert resumed.complete
        assert resumed.resumed_shards == 2
        assert _rows(corpus.store) == baseline


class TestSpawnDenied:
    @pytest.fixture()
    def no_spawn(self, monkeypatch):
        def denied(process):
            raise OSError("process spawn denied")

        monkeypatch.setattr(multiprocessing.Process, "start", denied)

    def test_falls_back_inline(self, tmp_path, baseline, no_spawn):
        journal_dir = tmp_path / "j"
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, journal_dir=journal_dir)
        assert report.used_processes is False
        assert report.complete
        assert report.degradation is not None
        assert not report.degradation.degraded
        assert not (journal_dir / "attempts").exists()
        assert _rows(corpus.store) == baseline

    def test_one_attempt_quarantines_then_resumes(self, tmp_path,
                                                  baseline, no_spawn):
        plan = FaultPlan.parse("worker_crash:2:1:kill", seed=3)
        journal_dir = tmp_path / "j"
        _, report = generate_corpus_fleet(
            _config(), workers=3, fault_plan=plan,
            journal_dir=journal_dir, max_attempts=1)
        assert report.used_processes is False
        # Inline, a kill-mode crash raises instead of exiting the driver.
        _assert_quarantined_once(journal_dir, report, 2, "worker_crash")

        corpus, resumed = generate_corpus_fleet(
            _config(), workers=3, fault_plan=plan,
            journal_dir=journal_dir, resume=True, max_attempts=1)
        assert resumed.complete
        assert resumed.resumed_shards == 2
        assert _rows(corpus.store) == baseline

    def test_denied_on_reschedule(self, tmp_path, baseline, monkeypatch):
        # The first three launches start workers; the kill's reschedule
        # is denied and runs inline while the started workers finish.
        start = multiprocessing.Process.start
        launches = []

        def first_three(process):
            launches.append(process)
            if len(launches) > 3:
                raise BlockingIOError("process spawn denied")
            start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", first_three)
        plan = FaultPlan.parse("worker_crash:1:1:kill", seed=3)
        journal_dir = tmp_path / "j"
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, fault_plan=plan, journal_dir=journal_dir)
        assert len(launches) == 4
        assert report.used_processes is True
        assert report.complete
        assert report.degradation.reschedules == 1
        entry = _entry(journal_dir, 1)
        assert (entry["status"], entry["attempt"],
                entry["rescheduled_from"]) == ("done", 2, 1)
        assert _rows(corpus.store) == baseline

    def test_finished_workers_are_not_hung(self, tmp_path, baseline,
                                           monkeypatch):
        # Shard 2's start is denied, so it runs inline in the first
        # poll. Shards 0 and 1 finish meanwhile and beat no more; the
        # stall check after that poll must leave their results to the
        # next poll instead of failing them as hung.
        start = multiprocessing.Process.start
        started = []

        def first_two(process):
            if len(started) == 2:
                raise OSError("process spawn denied")
            start(process)
            started.append(process)

        inline = supervisor._attempt_message

        def outlive_workers(*args):
            if multiprocessing.parent_process() is None:
                for process in started:
                    process.join(timeout=30)
                time.sleep(0.2)  # Their last beats are now stale.
            return inline(*args)

        monkeypatch.setattr(multiprocessing.Process, "start", first_two)
        monkeypatch.setattr(supervisor, "_attempt_message", outlive_workers)
        journal_dir = tmp_path / "j"
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, journal_dir=journal_dir, stall_after=0.05)
        assert report.used_processes is True
        assert report.complete
        assert report.degradation.stalls_detected == 0
        assert report.degradation.reschedules == 0
        assert [_entry(journal_dir, i)["attempt"] for i in range(3)] \
            == [1, 1, 1]
        assert _rows(corpus.store) == baseline

    def test_deep_reschedule_does_not_recurse(self, tmp_path):
        # Every inline attempt of shard 0 crashes; each reschedule runs
        # at the next poll, not inside the failed attempt's handler. A
        # recursive reschedule nests frames per attempt, so 60 attempts
        # overflow a stack 150 frames deeper than this test.
        plan = FaultPlan.parse("worker_crash:0:1:repeat", seed=3)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 150)
        try:
            _, report = generate_corpus_fleet(
                _config(), workers=3, in_process=True, fault_plan=plan,
                journal_dir=tmp_path / "j", max_attempts=60)
        finally:
            sys.setrecursionlimit(limit)
        d = report.degradation
        assert [(q.shard_index, q.attempts, q.failure_kind, q.reason)
                for q in d.quarantined] == [(0, 60, "worker_crash",
                                             "max_attempts")]
        assert d.reschedules == 59
        assert d.merged_pipelines == 4
