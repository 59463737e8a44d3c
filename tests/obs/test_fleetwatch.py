"""Heartbeat/status edge cases: torn writes, stalls, absent journals."""

import json

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan
from repro.fleet import generate_corpus_fleet
from repro.obs.fleetwatch import (
    ShardHeartbeat,
    collect_fleet_status,
    read_status_file,
    render_fleet_status,
    status_path,
)


def write_manifest(journal_dir, shards):
    journal_dir.mkdir(parents=True, exist_ok=True)
    (journal_dir / "manifest.json").write_text(json.dumps(
        {"fingerprint": "x", "shards": shards}))


def write_outcome(journal_dir, shard_index, payload):
    (journal_dir / f"shard-{shard_index:04d}.json").write_text(
        json.dumps(payload))


class TestHeartbeat:
    def test_beat_writes_all_fields(self, tmp_path):
        hb = ShardHeartbeat(tmp_path, shard_index=2, total=40,
                            worker="shard-0002")
        assert hb.beat("simulate", 7, force=True)
        record = read_status_file(status_path(tmp_path, 2))
        assert record["shard_index"] == 2
        assert record["worker"] == "shard-0002"
        assert record["phase"] == "simulate"
        assert record["pipelines_done"] == 7
        assert record["pipelines_total"] == 40
        assert record["updated_unix"] >= record["started_unix"]

    def test_beats_are_throttled(self, tmp_path):
        hb = ShardHeartbeat(tmp_path, 0, total=10, min_interval=3600.0)
        assert hb.beat("simulate", 1, force=True)
        assert not hb.beat("simulate", 2)
        # The throttled beat never touched the file.
        record = read_status_file(status_path(tmp_path, 0))
        assert record["pipelines_done"] == 1

    def test_force_bypasses_throttle(self, tmp_path):
        hb = ShardHeartbeat(tmp_path, 0, total=10, min_interval=3600.0)
        assert hb.beat("simulate", 1, force=True)
        assert hb.beat("done", 10, force=True)
        record = read_status_file(status_path(tmp_path, 0))
        assert record["phase"] == "done"

    def test_no_tmp_file_left_behind(self, tmp_path):
        ShardHeartbeat(tmp_path, 0, total=1).beat("simulate", 0,
                                                  force=True)
        assert not list(tmp_path.glob("*.tmp"))


class TestReadStatusFile:
    def test_missing_file_is_none(self, tmp_path):
        assert read_status_file(tmp_path / "nope.json") is None

    def test_torn_write_is_none(self, tmp_path):
        path = tmp_path / "shard-0000.status.json"
        path.write_text('{"shard_index": 0, "pipelines_do')
        assert read_status_file(path) is None

    def test_foreign_payload_is_none(self, tmp_path):
        path = tmp_path / "shard-0000.status.json"
        path.write_text(json.dumps([1, 2, 3]))
        assert read_status_file(path) is None
        path.write_text(json.dumps({"something": "else"}))
        assert read_status_file(path) is None


class TestCollect:
    def test_absent_journal(self, tmp_path):
        status = collect_fleet_status(tmp_path / "gone.shards")
        assert not status.exists
        assert not status.complete
        assert "no fleet journal" in render_fleet_status(status)

    def test_corrupt_manifest(self, tmp_path):
        journal = tmp_path / "run.shards"
        journal.mkdir()
        (journal / "manifest.json").write_text("{not json")
        assert not collect_fleet_status(journal).exists

    def test_pending_running_done_failed(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 10], [1, 10, 20],
                                 [2, 20, 30], [3, 30, 40]])
        # Shard 0: outcome says done (its stale heartbeat must lose).
        ShardHeartbeat(journal, 0, total=10).beat("simulate", 4,
                                                  force=True)
        write_outcome(journal, 0, {"status": "done"})
        # Shard 1: failed with crash count.
        write_outcome(journal, 1, {"status": "failed", "crashes": 2,
                                   "error_kind": "worker_crash"})
        # Shard 2: live heartbeat.
        ShardHeartbeat(journal, 2, total=10).beat("simulate", 5,
                                                  force=True)
        # Shard 3: never started.
        status = collect_fleet_status(journal)
        states = {s.shard_index: s.state for s in status.shards}
        assert states == {0: "done", 1: "failed", 2: "running",
                          3: "pending"}
        assert status.shards[0].pipelines_done == 10  # done == total
        assert status.shards[1].crashes == 2
        assert status.shards[1].error == "worker_crash"
        assert status.needs_resume
        assert not status.complete
        assert status.pipelines_total == 40
        rendered = render_fleet_status(status)
        assert "failed: worker_crash (crashes=2)" in rendered
        assert "--resume" in rendered

    def test_stall_detection(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 10]])
        hb = ShardHeartbeat(journal, 0, total=10)
        hb.beat("simulate", 3, force=True)
        beat = read_status_file(status_path(journal, 0))
        fresh = collect_fleet_status(journal, stall_after=30.0,
                                     now=beat["updated_unix"] + 5.0)
        assert fresh.shards[0].state == "running"
        stale = collect_fleet_status(journal, stall_after=30.0,
                                     now=beat["updated_unix"] + 31.0)
        assert stale.shards[0].state == "stalled"
        assert stale.needs_resume
        assert "last beat" in render_fleet_status(stale)

    def test_torn_heartbeat_degrades_to_pending(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 10]])
        status_path(journal, 0).write_text('{"shard')
        status = collect_fleet_status(journal)
        assert status.shards[0].state == "pending"

    def test_all_done_is_complete(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 5], [1, 5, 10]])
        write_outcome(journal, 0, {"status": "done"})
        write_outcome(journal, 1, {"status": "done"})
        status = collect_fleet_status(journal)
        assert status.complete
        assert not status.needs_resume
        assert status.eta_seconds == 0.0
        assert status.pipelines_done == status.pipelines_total == 10
        assert "all shards done" in render_fleet_status(status)

    def test_eta_uses_live_rates_only(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 100]])
        hb = ShardHeartbeat(journal, 0, total=100)
        hb.beat("simulate", 50, force=True)
        beat = read_status_file(status_path(journal, 0))
        # Force a known rate: 50 pipelines over 10 seconds = 5/s.
        beat["started_unix"] = beat["updated_unix"] - 10.0
        status_path(journal, 0).write_text(json.dumps(beat))
        status = collect_fleet_status(journal, now=beat["updated_unix"])
        assert status.shards[0].pipelines_per_sec == pytest.approx(5.0)
        assert status.eta_seconds == pytest.approx(10.0)
        # A stalled fleet gives no fictitious ETA.
        stalled = collect_fleet_status(
            journal, stall_after=1.0, now=beat["updated_unix"] + 60.0)
        assert stalled.eta_seconds is None

    def test_heartbeat_done_never_exceeds_total(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 5]])
        hb = ShardHeartbeat(journal, 0, total=5)
        hb.beat("simulate", 99, force=True)
        status = collect_fleet_status(journal)
        assert status.shards[0].pipelines_done == 5

    def test_to_dict_round_trips_through_json(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 5]])
        write_outcome(journal, 0, {"status": "done"})
        payload = json.loads(json.dumps(
            collect_fleet_status(journal).to_dict()))
        assert payload["complete"]
        assert payload["counts"] == {"done": 1}
        assert payload["shards"][0]["state"] == "done"


class TestSupervisionStatus:
    def test_dying_breath_beat_is_failed_not_stalled(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 5]])
        hb = ShardHeartbeat(journal, 0, total=5)
        hb.beat("failed", 2, force=True, error="ValueError: boom")
        # Seconds after the beat — far inside the stall threshold — the
        # shard already reads as failed, not running.
        beat = read_status_file(status_path(journal, 0))
        status = collect_fleet_status(journal, stall_after=30.0,
                                      now=beat["updated_unix"] + 1.0)
        assert status.shards[0].state == "failed"
        assert status.shards[0].error == "ValueError: boom"
        assert status.needs_resume
        assert "failed: ValueError: boom" in render_fleet_status(status)

    def test_stall_threshold_defaults_from_manifest_meta(self, tmp_path):
        journal = tmp_path / "run.shards"
        journal.mkdir(parents=True)
        (journal / "manifest.json").write_text(json.dumps(
            {"fingerprint": "x", "shards": [[0, 0, 5]],
             "meta": {"stall_after": 2.0}}))
        hb = ShardHeartbeat(journal, 0, total=5)
        hb.beat("simulate", 1, force=True)
        beat = read_status_file(status_path(journal, 0))
        status = collect_fleet_status(journal,
                                      now=beat["updated_unix"] + 10.0)
        assert status.stall_after == 2.0
        assert status.shards[0].state == "stalled"
        # An explicit threshold still overrides the manifest's.
        wide = collect_fleet_status(journal, stall_after=60.0,
                                    now=beat["updated_unix"] + 10.0)
        assert wide.shards[0].state == "running"

    def test_quarantined_entry_needs_resume(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 5], [1, 5, 10]])
        write_outcome(journal, 0, {"status": "done"})
        write_outcome(journal, 1, {"status": "quarantined", "attempt": 3,
                                   "error_kind": "worker_hang",
                                   "error_message": "no heartbeat"})
        status = collect_fleet_status(journal)
        shard = status.shards[1]
        assert shard.state == "quarantined"
        assert shard.attempt == 3
        assert status.needs_resume
        assert not status.complete
        rendered = render_fleet_status(status)
        assert "quarantined: worker_hang" in rendered
        assert "attempt 3" in rendered

    def test_quarantined_shard_keeps_its_canonical_beat(self, tmp_path):
        # Every attempt heartbeats into the shard's one status file, so
        # a worker killed on its only attempt leaves its last beat
        # where fleet-status reads it, and no per-attempt directory.
        journal = tmp_path / "run.shards"
        _, report = generate_corpus_fleet(
            CorpusConfig(n_pipelines=6, seed=11,
                         max_graphlets_per_pipeline=8, max_window_spans=6),
            workers=3, fault_plan=FaultPlan.parse("worker_crash:1:1:kill"),
            journal_dir=journal, max_attempts=1)
        if not report.used_processes:
            pytest.skip("sandbox denied processes; inline fallback ran")
        beat = read_status_file(status_path(journal, 1))
        assert beat is not None
        assert not (journal / "attempts").exists()
        shard = collect_fleet_status(journal).shards[1]
        assert shard.state == "quarantined"
        assert shard.worker == beat["worker"] == "shard-0001"
        assert shard.phase == beat["phase"] == "simulate"
        assert shard.pipelines_done == beat["pipelines_done"]

    def test_degradation_report_surfaces(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 3], [1, 3, 6]])
        write_outcome(journal, 0, {"status": "done"})
        write_outcome(journal, 1, {"status": "quarantined", "attempt": 2,
                                   "error_kind": "worker_crash"})
        (journal / "degradation.json").write_text(json.dumps({
            "planned_pipelines": 6, "planned_shards": 2,
            "merged_pipelines": 3, "lost_pipelines": 3,
            "degraded": True, "reschedules": 1,
            "quarantined": [{"shard_index": 1, "start": 3, "stop": 6,
                             "attempts": 2,
                             "failure_kind": "worker_crash",
                             "message": "boom",
                             "reason": "max_attempts"}]}))
        status = collect_fleet_status(journal)
        assert status.degradation["degraded"] is True
        payload = json.loads(json.dumps(status.to_dict()))
        assert payload["degradation"]["lost_pipelines"] == 3
        rendered = render_fleet_status(status)
        assert "3/6 pipelines merged" in rendered

    def test_torn_degradation_report_is_ignored(self, tmp_path):
        journal = tmp_path / "run.shards"
        write_manifest(journal, [[0, 0, 3]])
        (journal / "degradation.json").write_text("{not json")
        assert collect_fleet_status(journal).degradation is None
