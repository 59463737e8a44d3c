"""Fleet observability end to end: merged timelines, folded metrics.

Every test installs a real :class:`Tracer` + fresh registry around an
in-process fleet run and asserts the distributed-observability
invariants the acceptance criteria name: worker spans merge under the
coordinator's ``fleet.run`` span with no orphans, per-pipeline
instruments fold to shard-invariant totals, and the phase breakdown
accounts for the run's wall clock.
"""

import json

import pytest

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan, journal_dir_for
from repro.fleet import generate_corpus_fleet
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.tracing import Tracer, set_tracer


def _tiny_config(seed=11):
    return CorpusConfig(n_pipelines=6, seed=seed,
                        max_graphlets_per_pipeline=8,
                        max_window_spans=6)


@pytest.fixture()
def observed():
    """A real tracer + fresh registry installed for one test."""
    tracer = Tracer()
    registry = MetricsRegistry()
    previous_tracer = set_tracer(tracer)
    previous_registry = set_registry(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)


def _span_index(tracer):
    spans = tracer.finished_spans()
    return spans, {s.span_id: s for s in spans}


class TestMergedTimeline:
    def test_no_orphans_and_all_shards_under_run(self, observed):
        tracer, _ = observed
        _, report = generate_corpus_fleet(_tiny_config(), workers=3,
                                          in_process=True)
        assert report.spans_adopted > 0
        spans, by_id = _span_index(tracer)
        run = next(s for s in spans if s.name == "fleet.run")
        # Every span except the run root resolves to a recorded parent.
        for span in spans:
            if span.span_id == run.span_id:
                assert span.parent_id is None
                continue
            assert span.parent_id in by_id, span.name
        # Each shard's root span parents directly under fleet.run and
        # is labelled with its worker.
        shard_spans = [s for s in spans if s.name == "fleet.shard"]
        assert len(shard_spans) == 3
        assert {s.parent_id for s in shard_spans} == {run.span_id}
        assert {s.attrs.get("worker") for s in shard_spans} == \
            {"shard-0000", "shard-0001", "shard-0002"}

    def test_adopted_spans_stay_inside_run_window(self, observed):
        tracer, _ = observed
        generate_corpus_fleet(_tiny_config(), workers=2,
                              in_process=True)
        spans, _ = _span_index(tracer)
        run = next(s for s in spans if s.name == "fleet.run")
        for span in spans:
            if span.attrs.get("worker"):
                # Clock rebase keeps worker spans causally inside the
                # coordinator's run span (small slack for rebases
                # computed from two clock reads).
                assert span.start >= run.start - 0.05
                assert span.end <= run.end + 0.05

    def test_pipeline_spans_cover_every_pipeline(self, observed):
        tracer, _ = observed
        config = _tiny_config()
        generate_corpus_fleet(config, workers=3, in_process=True)
        pipeline_spans = [s for s in tracer.finished_spans()
                         if s.name == "corpus.pipeline"]
        assert sorted(s.attrs["index"] for s in pipeline_spans) == \
            list(range(config.n_pipelines))

    def test_disabled_tracer_adopts_nothing(self):
        _, report = generate_corpus_fleet(_tiny_config(), workers=3,
                                          in_process=True)
        assert report.spans_adopted == 0


class TestFoldedInstruments:
    def test_pipeline_histogram_counts_every_pipeline(self, observed):
        _, registry = observed
        config = _tiny_config()
        generate_corpus_fleet(config, workers=3, in_process=True)
        histogram = registry.histogram("corpus.pipeline_seconds")
        assert histogram.count == config.n_pipelines

    def test_dataplane_instruments_shard_invariant(self):
        counts = {}
        for workers in (1, 3):
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                generate_corpus_fleet(_tiny_config(), workers=workers,
                                      in_process=True)
            finally:
                set_registry(previous)
            counts[workers] = sorted(
                (r["name"], r.get("labels", {}).get("phase", ""))
                for r in registry.snapshot())
        # Same instrument set whether the run was inline or sharded —
        # the persisted telemetry must not depend on worker count.
        assert counts[1] == counts[3]

    def test_phase_gauges_recorded(self, observed):
        _, registry = observed
        generate_corpus_fleet(_tiny_config(), workers=2,
                              in_process=True)
        phases = {r["labels"]["phase"]: r["value"]
                  for r in registry.snapshot()
                  if r["name"] == "fleet.phase_seconds"}
        assert set(phases) >= {"plan", "simulate", "merge", "finalize"}


class TestPhaseBreakdown:
    def test_phases_account_for_wall_clock(self, observed):
        _, report = generate_corpus_fleet(_tiny_config(), workers=2,
                                          in_process=True)
        breakdown = report.phase_breakdown()
        assert set(breakdown) >= {"plan", "simulate", "merge",
                                  "finalize", "other"}
        assert all(v >= 0.0 for v in breakdown.values())
        # The named phases plus the "other" residual sum to the wall
        # clock by construction; the named phases alone must carry at
        # least 90% of it (acceptance criterion).
        assert sum(breakdown.values()) == \
            pytest.approx(report.wall_seconds, rel=1e-6, abs=1e-6)
        assert breakdown["other"] <= 0.1 * report.wall_seconds


class TestJournaledSpans:
    def test_shard_span_files_written_and_resumable(self, observed,
                                                    tmp_path):
        tracer, _ = observed
        out = tmp_path / "corpus.db"
        journal = journal_dir_for(out)
        plan = FaultPlan.parse("worker_crash:1", seed=5)
        config = _tiny_config()
        _, report = generate_corpus_fleet(
            config, workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal, max_attempts=1)
        assert report.failed_shards
        span_files = sorted(journal.glob("shard-*.spans.jsonl"))
        assert span_files
        header = json.loads(span_files[0].read_text().splitlines()[0])
        assert header["kind"] == "trace_header"
        # Resume: completed shards reload their spans from the journal
        # so the resumed run's timeline still covers every shard.
        resumed_tracer = Tracer()
        previous = set_tracer(resumed_tracer)
        try:
            _, resumed = generate_corpus_fleet(
                config, workers=3, in_process=True, fault_plan=plan,
                journal_dir=journal, resume=True)
        finally:
            set_tracer(previous)
        assert resumed.complete
        assert resumed.resumed_shards > 0
        shard_spans = [s for s in resumed_tracer.finished_spans()
                       if s.name == "fleet.shard"]
        assert len(shard_spans) == 3

    def test_status_files_written_alongside_journal(self, tmp_path):
        out = tmp_path / "corpus.db"
        journal = journal_dir_for(out)
        generate_corpus_fleet(_tiny_config(), workers=2,
                              in_process=True, journal_dir=journal)
        status_files = sorted(journal.glob("shard-*.status.json"))
        assert len(status_files) == 2
        final = json.loads(status_files[0].read_text())
        assert final["phase"] == "done"
        assert final["pipelines_done"] == final["pipelines_total"]
