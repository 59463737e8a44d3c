"""CLI tests (generate → report / waste / summarize / telemetry)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.db"
    code = main(["generate", "--pipelines", "14", "--seed", "5",
                 "--max-graphlets", "16", "--out", str(path)])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.pipelines == 60
        assert args.out == "corpus.db"


class TestCommands:
    def test_generate_creates_db(self, cli_corpus):
        assert cli_corpus.exists()
        assert cli_corpus.stat().st_size > 0

    def test_report_runs(self, cli_corpus, capsys):
        assert main(["report", str(cli_corpus)]) == 0
        out = capsys.readouterr().out
        assert "model mix" in out
        assert "similarity" in out

    def test_summarize_whole_corpus(self, cli_corpus, capsys):
        assert main(["summarize", str(cli_corpus)]) == 0
        out = capsys.readouterr().out
        assert "Trainer" in out

    def test_summarize_unknown_pipeline(self, cli_corpus, capsys):
        assert main(["summarize", str(cli_corpus),
                     "--pipeline", "nope"]) == 1

    def test_waste_runs(self, cli_corpus, capsys):
        assert main(["waste", str(cli_corpus), "--trees", "8"]) == 0
        out = capsys.readouterr().out
        assert "RF:Validation" in out

    def test_waste_columns_are_three_decimals(self, cli_corpus, capsys):
        main(["waste", str(cli_corpus), "--trees", "8"])
        out = capsys.readouterr().out
        table_rows = [line for line in out.splitlines()
                      if line.startswith("RF:")]
        assert table_rows
        for line in table_rows:
            cells = [c.strip() for c in line.split("|")[1:]]
            for cell in cells:
                if cell and cell != "nan":
                    assert len(cell.split(".")[-1]) == 3, line

    def test_waste_small_corpus_fails_structured(self, tmp_path, capsys):
        path = tmp_path / "tiny.db"
        assert main(["generate", "--pipelines", "1", "--max-graphlets",
                     "2", "--out", str(path)]) == 0
        code = main(["waste", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "corpus_too_small" in err
        assert "n_rows=0" in err

    @pytest.mark.parametrize("command", [
        ["report"], ["waste"], ["summarize"], ["diagnose"], ["dashboard"]])
    def test_missing_corpus_fails_without_creating_it(self, tmp_path,
                                                      capsys, command):
        path = tmp_path / "typo.db"
        code = main(command + [str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "file_not_found" in err and "typo.db" in err
        assert len(err.strip().splitlines()) == 1
        assert not path.exists()

    def test_missing_baseline_fails_without_creating_it(self, cli_corpus,
                                                        tmp_path, capsys):
        path = tmp_path / "typo.db"
        code = main(["dashboard", str(cli_corpus), "--baseline", str(path)])
        assert code == 2
        assert "file_not_found" in capsys.readouterr().err
        assert not path.exists()


class TestObservabilityFlags:
    def test_generate_exports_metrics_and_trace(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.db"
        metrics = tmp_path / "metrics.jsonl"
        trace = tmp_path / "spans.jsonl"
        code = main(["generate", "--pipelines", "6", "--seed", "3",
                     "--max-graphlets", "8", "--out", str(corpus),
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)])
        assert code == 0
        records = [json.loads(line)
                   for line in metrics.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert "mlmd.ops" in names
        assert "corpus.pipeline_seconds" in names
        assert "runtime.run_cpu_hours" in names
        put_events = [r for r in records if r["name"] == "mlmd.ops"
                      and r["labels"] == {"op": "put_event"}]
        assert put_events[0]["value"] > 0
        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()]
        span_names = {s["name"] for s in spans}
        assert {"corpus.generate", "corpus.pipeline", "runtime.run",
                "runtime.node"} <= span_names

    def test_report_accepts_obs_flags(self, cli_corpus, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        assert main(["report", str(cli_corpus), "--metrics-out",
                     str(metrics), "--quiet"]) == 0
        names = {json.loads(line)["name"]
                 for line in metrics.read_text().splitlines()}
        assert "analysis.segmentation_seconds" in names
        assert "graphlets.segmented" in names

    def test_verbose_flag_accepted(self, cli_corpus, capsys):
        assert main(["summarize", str(cli_corpus), "-v"]) == 0
        assert main(["summarize", str(cli_corpus), "--quiet"]) == 0

    def test_telemetry_renders_export(self, cli_corpus, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        trace = tmp_path / "spans.jsonl"
        assert main(["waste", str(cli_corpus), "--trees", "8",
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "Histograms" in out
        assert "mlmd.ops" in out
        assert "waste.train_variant_seconds" in out
        assert main(["telemetry", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Spans" in out
        assert "waste.train_variant" in out

    def test_telemetry_missing_file_fails(self, tmp_path, capsys):
        assert main(["telemetry", str(tmp_path / "nope.jsonl")]) == 2
        assert "telemetry_unreadable" in capsys.readouterr().err

    def test_telemetry_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["telemetry", str(path)]) == 0
        assert "no telemetry records" in capsys.readouterr().out

    def test_telemetry_skips_malformed_lines(self, tmp_path, capsys):
        path = tmp_path / "partial.jsonl"
        path.write_text("\n".join([
            '{"kind": "counter", "name": "ok", "value": 3}',
            "{truncated",
            "[1, 2, 3]",  # valid JSON, not a record
            '{"kind": "histogram", "name": "empty", "count": 0,'
            ' "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,'
            ' "p50": null, "p95": null, "p99": null}',
        ]) + "\n")
        assert main(["telemetry", str(path)]) == 0
        captured = capsys.readouterr()
        assert "ok" in captured.out
        assert "-" in captured.out  # null percentiles render as dashes
        assert "telemetry_bad_lines" in captured.err


class TestDiagnoseDashboard:
    def test_diagnose_prints_all_sections(self, cli_corpus, capsys):
        assert main(["diagnose", str(cli_corpus)]) == 0
        out = capsys.readouterr().out
        assert "Graphlets" in out
        assert "Critical path" in out
        assert "cost sinks" in out
        assert "Compute attribution" in out
        assert "telemetry coverage" in out

    def test_diagnose_attribution_reconciles(self, cli_corpus, capsys):
        main(["diagnose", str(cli_corpus)])
        out = capsys.readouterr().out
        (line,) = [x for x in out.splitlines()
                   if x.startswith("attributed ")]
        attributed, recorded = float(line.split()[1]), float(line.split()[4])
        assert attributed == pytest.approx(recorded, rel=0.01)

    def test_diagnose_unknown_pipeline(self, cli_corpus, capsys):
        assert main(["diagnose", str(cli_corpus),
                     "--pipeline", "nope"]) == 1
        assert "pipeline_not_found" in capsys.readouterr().err

    def test_diagnose_graphlet_out_of_range(self, cli_corpus, capsys):
        assert main(["diagnose", str(cli_corpus),
                     "--graphlet", "9999"]) == 1
        assert "graphlet_out_of_range" in capsys.readouterr().err

    def test_dashboard_renders_fleet_views(self, cli_corpus, capsys):
        assert main(["dashboard", str(cli_corpus)]) == 0
        out = capsys.readouterr().out
        assert "fleet:" in out
        assert "Operator wall time" in out
        assert "Operator compute (cpu-hours)" in out
        assert "Graphlet cost CDF" in out

    def test_dashboard_needs_persisted_telemetry(self, tmp_path, capsys):
        path = tmp_path / "quiet.db"
        assert main(["generate", "--pipelines", "2", "--max-graphlets",
                     "4", "--no-telemetry", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["dashboard", str(path)]) == 2
        assert "no_persisted_telemetry" in capsys.readouterr().err

    def test_dashboard_self_baseline_has_no_regressions(self, cli_corpus,
                                                        capsys):
        assert main(["dashboard", str(cli_corpus),
                     "--baseline", str(cli_corpus)]) == 0
        assert "no operator p95 regressions" in capsys.readouterr().out


@pytest.fixture(scope="module")
def fleet_corpus(tmp_path_factory):
    """Parallel + cached generation saved to sqlite (satellite d)."""
    path = tmp_path_factory.mktemp("cli-fleet") / "fleet.db"
    code = main(["generate", "--pipelines", "8", "--seed", "9",
                 "--max-graphlets", "8", "--workers", "2",
                 "--exec-cache", "--out", str(path)])
    assert code == 0
    return path


class TestFleetCLI:
    def test_parser_accepts_fleet_flags(self):
        args = build_parser().parse_args(
            ["generate", "--workers", "4", "--exec-cache"])
        assert args.workers == 4
        assert args.exec_cache

    def test_fleet_flags_off_by_default(self):
        args = build_parser().parse_args(["generate"])
        assert args.workers == 1
        assert not args.exec_cache

    def test_generate_reports_fleet_and_cache(self, tmp_path, capsys):
        path = tmp_path / "fleet.db"
        assert main(["generate", "--pipelines", "8", "--seed", "9",
                     "--max-graphlets", "8", "--workers", "2",
                     "--exec-cache", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 workers, exec cache" in out
        assert "fleet: 2 shards" in out
        assert "hit rate" in out
        assert path.exists()

    def test_roundtrip_diagnose(self, fleet_corpus, capsys):
        # generate --workers N --out → load → diagnose: the merged
        # store must satisfy every invariant diagnose checks.
        assert main(["diagnose", str(fleet_corpus)]) == 0
        out = capsys.readouterr().out
        assert "Graphlets" in out
        assert "Compute attribution" in out
        (line,) = [x for x in out.splitlines()
                   if x.startswith("attributed ")]
        attributed = float(line.split()[1])
        recorded = float(line.split()[4])
        assert attributed == pytest.approx(recorded, rel=0.01)

    def test_roundtrip_report_shows_cached_work(self, fleet_corpus,
                                                capsys):
        assert main(["report", str(fleet_corpus)]) == 0
        out = capsys.readouterr().out
        assert "model mix" in out
        assert "cached executions:" in out
        assert "saved" in out

    def test_roundtrip_summarize(self, fleet_corpus, capsys):
        assert main(["summarize", str(fleet_corpus)]) == 0
        assert "Trainer" in capsys.readouterr().out

    def test_fault_flags_off_by_default(self):
        args = build_parser().parse_args(["generate"])
        assert args.fault_plan is None
        assert args.fault_seed == 0
        assert args.retries == 0
        assert not args.resume

    def test_bad_fault_plan_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--pipelines", "2", "--fault-plan",
                     "meteor:*:0.1", "--out", str(tmp_path / "x.db")])
        assert code == 2
        assert "fault" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("flag, value, reason", [
        ("--max-attempts", "0", "max_attempts must be >= 1"),
        ("--stall-after", "0", "stall_after must be > 0"),
        ("--fault-budget", "-1", "fault_budget must be >= 0"),
    ])
    def test_bad_supervision_option_exits_2(self, tmp_path, capsys, flag,
                                            value, reason):
        out = tmp_path / "x.db"
        code = main(["generate", "--pipelines", "2", flag, value,
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "bad_supervision_option" in captured.err
        assert reason in captured.err
        assert "Traceback" not in captured.err
        # Refused before the run: nothing generated, nothing saved.
        assert "generating" not in captured.out
        assert not out.exists()

    def test_resume_without_journal_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--pipelines", "2", "--resume",
                     "--out", str(tmp_path / "fresh.db")])
        assert code == 2
        assert "resume" in capsys.readouterr().err.lower()

    def test_workers_match_sequential_counts(self, tmp_path, capsys):
        # Same seed, 1 vs 3 workers: identical saved stores.
        single = tmp_path / "w1.db"
        triple = tmp_path / "w3.db"
        for path, workers in ((single, "1"), (triple, "3")):
            assert main(["generate", "--pipelines", "6", "--seed", "11",
                         "--max-graphlets", "8", "--workers", workers,
                         "--out", str(path)]) == 0
        out = capsys.readouterr().out
        saved = [line for line in out.splitlines()
                 if line.startswith("saved ")]
        assert len(saved) == 2
        assert saved[0] == saved[1].replace(str(triple), str(single))


class TestFleetObservability:
    def test_trace_out_merges_worker_spans(self, tmp_path, capsys):
        out = tmp_path / "fleet.db"
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        assert main(["generate", "--pipelines", "6", "--seed", "11",
                     "--max-graphlets", "8", "--workers", "2",
                     "--out", str(out), "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        assert "worker spans merged under the run span" in \
            capsys.readouterr().out
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        spans = [r for r in records if r.get("kind") == "span"]
        ids = {r["span_id"] for r in spans}
        # Worker-side spans (stamped with their shard label) all
        # resolve to parents inside the one merged timeline.
        workers = {r["attrs"].get("worker") for r in spans
                   if r["attrs"].get("worker")}
        assert workers == {"shard-0000", "shard-0001"}
        for record in spans:
            if record["attrs"].get("worker"):
                assert record["parent_id"] in ids
        assert any(r["name"] == "fleet.run" for r in spans)
        # The folded registry carries worker-side instruments.
        metric_records = [json.loads(line)
                          for line in metrics.read_text().splitlines()]
        pipeline_seconds = next(
            r for r in metric_records
            if r.get("name") == "corpus.pipeline_seconds")
        assert pipeline_seconds["count"] == 6

    def test_timeline_renders_merged_trace(self, tmp_path, capsys):
        out = tmp_path / "fleet.db"
        trace = tmp_path / "trace.jsonl"
        assert main(["generate", "--pipelines", "4", "--seed", "3",
                     "--max-graphlets", "8", "--workers", "2",
                     "--out", str(out), "--trace-out",
                     str(trace)]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(trace), "--timeline"]) == 0
        timeline = capsys.readouterr().out
        assert "fleet.run" in timeline
        assert "[shard-0000]" in timeline
        assert "(no spans)" not in timeline


class TestFleetStatusCLI:
    def test_absent_journal_exits_cleanly(self, tmp_path, capsys):
        assert main(["fleet-status",
                     str(tmp_path / "never-ran.db")]) == 0
        out = capsys.readouterr().out
        assert "no fleet journal" in out

    def test_completed_run_cleans_up_its_journal(self, tmp_path,
                                                 capsys):
        out = tmp_path / "done.db"
        assert main(["generate", "--pipelines", "4", "--seed", "3",
                     "--max-graphlets", "8", "--workers", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fleet-status", str(out)]) == 0
        assert "no fleet journal" in capsys.readouterr().out

    def test_interrupted_run_renders_status(self, tmp_path, capsys):
        out = tmp_path / "crashed.db"
        code = main(["generate", "--pipelines", "6", "--seed", "11",
                     "--max-graphlets", "8", "--workers", "3",
                     "--fault-plan", "worker_crash:1",
                     "--max-attempts", "1", "--out", str(out)])
        assert code == 3  # partial run
        assert "repro fleet-status" in capsys.readouterr().out
        assert main(["fleet-status", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "quarantined" in rendered
        assert "--resume" in rendered
        # --json emits the machine shape; the .shards dir works too.
        assert main(["fleet-status", str(out) + ".shards",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["needs_resume"]
        assert payload["counts"].get("quarantined") == 1

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["fleet-status", "x.db", "--json", "--stall-after", "5"])
        assert args.json
        assert args.stall_after == 5.0
        assert args.watch is None


class TestResourceObservatory:
    def test_diagnose_prints_resource_attribution(self, cli_corpus,
                                                  capsys):
        assert main(["diagnose", str(cli_corpus)]) == 0
        out = capsys.readouterr().out
        assert "Resource attribution" in out
        assert "verdict" in out
        # Every persisted operator row carries a measured verdict.
        assert "cpu-bound" in out or "mixed" in out or "idle" in out

    def test_trace_resources_adds_cpu_columns(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["generate", "--pipelines", "4", "--seed", "3",
                     "--max-graphlets", "8",
                     "--out", str(tmp_path / "c.db"),
                     "--trace-out", str(trace),
                     "--trace-resources"]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(trace), "--timeline"]) == 0
        assert "cpu=" in capsys.readouterr().out

    def test_metrics_out_includes_sampler_gauges(self, tmp_path,
                                                 capsys):
        metrics = tmp_path / "metrics.jsonl"
        assert main(["generate", "--pipelines", "4", "--seed", "3",
                     "--max-graphlets", "8",
                     "--out", str(tmp_path / "c.db"),
                     "--metrics-out", str(metrics)]) == 0
        names = {json.loads(line)["name"]
                 for line in metrics.read_text().splitlines()}
        assert "proc.cpu_percent" in names

    def test_profile_wraps_generate(self, tmp_path, capsys):
        folded = tmp_path / "gen.folded"
        assert main(["profile", "--out", str(folded),
                     "generate", "--pipelines", "4", "--seed", "3",
                     "--max-graphlets", "8", "--workers", "1",
                     "--out", str(tmp_path / "c.db")]) == 0
        out = capsys.readouterr().out
        assert "self-time frames" in out
        text = folded.read_text()
        assert text.startswith("# command: generate")
        counts = dict(line.rsplit(" ", 1) for line in text.splitlines()
                      if not line.startswith("#"))
        assert counts
        assert sum(map(int, counts.values())) > 0
        # A one-worker fleet simulates its shard in the profiled
        # driver thread: the per-shard code is in the profile.
        assert any("fleet/workers.py:run_shard" in stack
                   for stack in counts)

    def test_profile_without_command_exits_2(self, capsys):
        assert main(["profile"]) == 2
        assert "profile_no_command" in capsys.readouterr().err

    def test_profile_cannot_nest(self, capsys):
        assert main(["profile", "profile", "generate"]) == 2
        assert "profile_nested" in capsys.readouterr().err


def _dump(path):
    import sqlite3
    conn = sqlite3.connect(path)
    try:
        return "\n".join(conn.iterdump())
    finally:
        conn.close()


CHAOS_ARGS = ["--pipelines", "6", "--seed", "11", "--max-graphlets", "8",
              "--fault-plan", "transient:Trainer:0.4;worker_crash:1:1",
              "--fault-seed", "3", "--retries", "1", "--no-telemetry"]


@pytest.fixture(scope="module")
def faulted_corpus(tmp_path_factory):
    """A corpus generated under a transient-fault plan with retries."""
    path = tmp_path_factory.mktemp("cli-faults") / "faulted.db"
    code = main(["generate", "--pipelines", "10", "--seed", "5",
                 "--max-graphlets", "12", "--fault-plan",
                 "transient:*:0.25", "--fault-seed", "1",
                 "--retries", "2", "--out", str(path)])
    assert code == 0
    return path


class TestChaosEndToEnd:
    """The chaos drill locally: crash with one attempt per shard →
    partial (exit 3) → resume → store identical to the fault-free
    workers=1 run."""

    def test_crash_resume_converges(self, tmp_path, capsys):
        crashed = tmp_path / "crashed.db"
        code = main(["generate", *CHAOS_ARGS, "--workers", "3",
                     "--max-attempts", "1", "--out", str(crashed)])
        out = capsys.readouterr().out
        assert code == 3
        assert "PARTIAL RUN" in out
        assert "--resume" in out
        journal = crashed.parent / (crashed.name + ".shards")
        assert journal.exists()

        code = main(["generate", *CHAOS_ARGS, "--workers", "3",
                     "--max-attempts", "1", "--resume",
                     "--out", str(crashed)])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed" in out
        assert not journal.exists()  # cleaned up after a full merge

        # The same plan at workers=1 lays out a single shard 0, so the
        # crash spec never fires: that run is the fault-free baseline.
        baseline = tmp_path / "baseline.db"
        assert main(["generate", *CHAOS_ARGS, "--workers", "1",
                     "--out", str(baseline)]) == 0
        assert _dump(crashed) == _dump(baseline)

    def test_supervised_crash_recovers_in_run(self, tmp_path, capsys):
        # The self-healing counterpart: same chaos plan at the default
        # --max-attempts, so the crash is rescheduled in-run — no exit
        # 3, no manual resume, and the saved store matches the
        # fault-free workers=1 baseline byte for byte.
        healed = tmp_path / "healed.db"
        code = main(["generate", *CHAOS_ARGS, "--workers", "3",
                     "--out", str(healed)])
        out = capsys.readouterr().out
        assert code == 0
        assert "supervision:" in out
        assert "recovered run" in out
        assert "1 reschedule(s)" in out
        baseline = tmp_path / "baseline.db"
        assert main(["generate", *CHAOS_ARGS, "--workers", "1",
                     "--out", str(baseline)]) == 0
        assert _dump(healed) == _dump(baseline)

    def test_quarantine_prints_exact_resume_command(self, tmp_path,
                                                    capsys):
        out_db = tmp_path / "quarantined.db"
        argv = ["generate", "--pipelines", "6", "--seed", "11",
                "--max-graphlets", "8", "--workers", "3",
                "--no-telemetry",
                "--fault-plan", "worker_crash:0:1:repeat",
                "--fault-seed", "3",
                "--max-attempts", "2",
                "--out", str(out_db)]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 3
        assert "PARTIAL RUN" in out
        assert "degraded run: 4/6 pipelines merged" in out
        assert "resume with exactly:" in out
        (resume_line,) = [line.strip() for line in out.splitlines()
                          if line.strip().startswith("repro generate")]
        # The printed command replays every flag of this invocation
        # plus --resume; running it (minus the binary name) converges.
        assert "--supervise" not in resume_line
        assert "--max-attempts 2" in resume_line
        assert resume_line.endswith("--resume")
        assert main(["fleet-status", str(out_db)]) == 0
        rendered = capsys.readouterr().out
        assert "quarantined" in rendered
        assert "4/6 pipelines merged" in rendered
        import shlex
        assert main(shlex.split(resume_line)[1:]) == 0

    def test_parser_supervision_flags(self):
        # Supervision is not an option: the flag that asked for it is
        # gone, and only its knobs remain. Stall detection is the one
        # straggler rescue, so there is no hedging flag either.
        for gone in (["--supervise"], ["--hedge-after", "2.5"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["generate", *gone])
        args = build_parser().parse_args(["generate"])
        assert not hasattr(args, "supervise")
        assert args.max_attempts == 3
        assert args.stall_after is None
        assert args.fault_budget is None
        args = build_parser().parse_args(
            ["generate", "--max-attempts", "5",
             "--stall-after", "12", "--fault-budget", "4"])
        assert args.max_attempts == 5
        assert args.stall_after == 12.0
        assert args.fault_budget == 4

    def test_faults_summary_renders(self, faulted_corpus, capsys):
        assert main(["faults", str(faulted_corpus)]) == 0
        out = capsys.readouterr().out
        assert "Failure kinds" in out
        assert "transient" in out
        assert "Failing operators" in out
        assert "retry waste" in out

    def test_report_retry_waste_reconciles(self, faulted_corpus, capsys):
        assert main(["report", str(faulted_corpus)]) == 0
        out = capsys.readouterr().out
        (line,) = [x for x in out.splitlines()
                   if x.startswith("retry waste:")]
        # "retry waste: T cpu-hours total = U useful + W wasted +
        #  R retried (...)" — and the partition is exact.
        numbers = [float(tok) for tok in line.split()
                   if tok.replace(".", "").isdigit()]
        total, useful, wasted, retried = numbers[:4]
        assert retried > 0
        # Each term prints rounded to 0.1, so the sum can drift by up
        # to 0.05 per term; the unrounded partition is exact (covered
        # by analysis-level tests).
        assert total == pytest.approx(useful + wasted + retried,
                                      abs=0.2)

    def test_diagnose_renders_failures(self, faulted_corpus, capsys):
        assert main(["diagnose", str(faulted_corpus)]) == 0
        out = capsys.readouterr().out
        assert "Failures" in out
        assert "transient" in out
