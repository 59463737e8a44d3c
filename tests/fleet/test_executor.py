"""The one shard executor: every multi-shard run goes through the supervisor.

Unsupervised runs are the supervisor without a policy: one attempt per
shard, a failed shard journaled ``failed`` and reported as a plain
``ShardFailure``, and no degradation report. These tests pin that
contract for inline runs, real worker processes, and a sandbox that
denies process spawn.
"""

import json
import multiprocessing

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan
from repro.fleet import generate_corpus_fleet


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


def _assert_unsupervised_records(journal_dir):
    assert not (journal_dir / "degradation.json").exists()


class TestUnsupervisedInline:
    def test_hang_is_labelled_worker_hang(self, tmp_path, baseline):
        plan = FaultPlan.parse("worker_hang:1:1", seed=3)
        journal_dir = tmp_path / "j"
        _, report = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir)
        assert [f.shard_index for f in report.failed_shards] == [1]
        assert report.failed_shards[0].kind == "worker_hang"
        assert "shard 1" in report.failed_shards[0].message
        assert report.degradation is None
        entry = _entry(journal_dir, 1)
        assert entry["status"] == "failed"
        assert entry["error_kind"] == "worker_hang"
        assert entry["crashes"] == 1
        _assert_unsupervised_records(journal_dir)

        corpus, resumed = generate_corpus_fleet(
            _config(), workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal_dir, resume=True)
        assert resumed.complete
        assert resumed.resumed_shards == 2
        assert _rows(corpus.store) == baseline


class TestUnsupervisedProcesses:
    def test_kill_loses_only_its_shard_then_resumes(self, tmp_path,
                                                    baseline):
        plan = FaultPlan.parse("worker_crash:1:1:kill", seed=3)
        journal_dir = tmp_path / "j"
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, fault_plan=plan,
            journal_dir=journal_dir)
        assert report.used_processes
        assert report.degradation is None
        assert [(f.shard_index, f.kind) for f in report.failed_shards] \
            == [(1, "worker_killed")]
        assert len(corpus.records) == 4
        entry = _entry(journal_dir, 1)
        assert entry["status"] == "failed"
        assert entry["crashes"] == 1
        assert entry["attempt"] == 1
        assert [_entry(journal_dir, i)["status"] for i in (0, 2)] \
            == ["done", "done"]
        _assert_unsupervised_records(journal_dir)
        # No attempt scratch directory outlives the run.
        assert not (journal_dir / "attempts").exists()

        corpus, resumed = generate_corpus_fleet(
            _config(), workers=3, fault_plan=plan,
            journal_dir=journal_dir, resume=True)
        assert resumed.complete
        assert resumed.resumed_shards == 2
        assert _rows(corpus.store) == baseline


class TestSpawnDenied:
    @pytest.fixture()
    def no_spawn(self, monkeypatch):
        def denied(process):
            raise OSError("process spawn denied")

        monkeypatch.setattr(multiprocessing.Process, "start", denied)

    @pytest.mark.parametrize("supervise", [False, True])
    def test_falls_back_inline(self, tmp_path, baseline, no_spawn,
                               supervise):
        journal_dir = tmp_path / "j"
        corpus, report = generate_corpus_fleet(
            _config(), workers=3, supervise=supervise,
            journal_dir=journal_dir)
        assert report.used_processes is False
        assert report.complete
        assert (report.degradation is not None) is supervise
        assert not (journal_dir / "attempts").exists()
        assert _rows(corpus.store) == baseline
