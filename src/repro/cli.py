"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — generate a calibrated corpus and save it to SQLite.
  It always runs the sharded fleet path (``--workers`` shards, default
  1); a multi-shard run reschedules a crashed or stalled worker.
* ``report`` — run the full Section 3/4 analysis suite on a corpus.
* ``waste`` — train the Section 5 policy variants and print Table 3 /
  Figure 10 summaries.
* ``summarize`` — type-level summary of a pipeline's trace.
* ``diagnose`` — explain one pipeline from telemetry persisted in the
  store: critical path, top cost sinks, waste attribution, failures,
  push outcome.
* ``faults`` — corpus-wide failure/retry summary: failure kinds,
  failing operators, retry histogram, retry-waste reconciliation.
* ``dashboard`` — fleet-level report from persisted telemetry: operator
  duration distributions, graphlet cost CDF, waste share, regressions.
* ``telemetry`` — render a telemetry JSONL file produced by
  ``--metrics-out`` / ``--trace-out`` (``--timeline`` draws the causal
  span tree instead of aggregates).
* ``fleet-status`` — live (or post-mortem) status of a fleet run from
  its shard journal: per-shard progress bars, throughput, ETA, stall
  detection, and which shards a ``--resume`` would re-run.
* ``profile`` — run any other command under the sampling profiler and
  write its folded stacks (flamegraph format), e.g.
  ``repro profile --out gen.folded generate --pipelines 20``.

Every command works on a corpus database produced by ``generate``, so a
full study is::

    python -m repro generate --pipelines 100 --out corpus.db
    python -m repro report corpus.db
    python -m repro waste corpus.db

Observability flags are global: ``--metrics-out t.jsonl`` exports the
metrics registry after the command (and runs a background
:class:`~repro.obs.resources.ResourceSampler` so the export carries
process CPU/RSS/GC gauges), ``--trace-out spans.jsonl`` enables span
tracing and exports it (``--trace-resources`` additionally stamps each
span with cpu/rss/allocation deltas), ``-v``/``-vv`` raise log
verbosity and ``--quiet`` silences everything below errors::

    python -m repro generate --pipelines 20 --metrics-out t.jsonl
    python -m repro telemetry t.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .obs import configure_logging, get_logger, get_registry

_log = get_logger("cli")


def _parse_fault_options(args: argparse.Namespace):
    """Resolve --fault-plan / --retries into plan and policy objects."""
    from .faults import FaultPlan, RetryPolicy

    plan = None
    if args.fault_plan:
        plan = FaultPlan.parse(args.fault_plan, seed=args.fault_seed)
    policy = None
    if args.retries:
        # --retries N means N *extra* attempts on top of the first.
        policy = RetryPolicy(max_attempts=args.retries + 1)
    return plan, policy


def _resume_command(args: argparse.Namespace) -> str:
    """The exact ``repro generate ... --resume`` that continues this run.

    Rebuilt from the parsed args (shell-quoted) so a partial run's
    epilogue can print a copy-pasteable command carrying every flag the
    original invocation used — the journal fingerprint demands the
    same config/plan, so guessing flags is exactly what a 2am operator
    should not have to do.
    """
    import shlex

    parts = ["repro", "generate",
             "--pipelines", str(args.pipelines),
             "--seed", str(args.seed),
             "--max-graphlets", str(args.max_graphlets),
             "--out", shlex.quote(args.out)]
    if not args.telemetry:
        parts.append("--no-telemetry")
    if args.workers != 1:
        parts += ["--workers", str(args.workers)]
    if args.exec_cache:
        parts.append("--exec-cache")
    if args.fault_plan:
        parts += ["--fault-plan", shlex.quote(args.fault_plan)]
        if args.fault_seed:
            parts += ["--fault-seed", str(args.fault_seed)]
    if args.retries:
        parts += ["--retries", str(args.retries)]
    if args.max_attempts != 3:
        parts += ["--max-attempts", str(args.max_attempts)]
    if args.fault_budget is not None:
        parts += ["--fault-budget", str(args.fault_budget)]
    if args.stall_after is not None:
        parts += ["--stall-after", str(args.stall_after)]
    parts.append("--resume")
    return " ".join(parts)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .corpus import CorpusConfig
    from .faults.journal import JournalError, journal_dir_for
    from .fleet import generate_corpus_fleet
    from .fleet.supervisor import SupervisorPolicy
    from .mlmd import save_store
    from .obs.fleetwatch import DEFAULT_STALL_AFTER
    from .obs.tracing import span

    config = CorpusConfig(n_pipelines=args.pipelines, seed=args.seed,
                          max_graphlets_per_pipeline=args.max_graphlets)
    try:
        fault_plan, retry_policy = _parse_fault_options(args)
    except (ValueError, OSError) as exc:
        _log.error("bad_fault_plan", reason=str(exc))
        return 2
    try:
        # The policy the run builds, built first: a bad supervision
        # flag is refused before any shard starts.
        SupervisorPolicy(max_attempts=args.max_attempts,
                         stall_after=(DEFAULT_STALL_AFTER
                                      if args.stall_after is None
                                      else args.stall_after),
                         fault_budget=args.fault_budget)
    except ValueError as exc:
        _log.error("bad_supervision_option", reason=str(exc))
        return 2
    print(f"generating {args.pipelines} pipelines "
          f"(seed {args.seed}, {args.workers} workers"
          f"{', exec cache' if args.exec_cache else ''}"
          f"{', faults: ' + fault_plan.describe() if fault_plan else ''}"
          f"{', resume' if args.resume else ''}) ...")
    journal_dir = journal_dir_for(args.out)
    try:
        with span("corpus.generate", n_pipelines=config.n_pipelines,
                  seed=config.seed):
            corpus, fleet = generate_corpus_fleet(
                config, workers=args.workers, exec_cache=args.exec_cache,
                telemetry=args.telemetry, progress=True,
                fault_plan=fault_plan, retry_policy=retry_policy,
                journal_dir=journal_dir, resume=args.resume,
                max_attempts=args.max_attempts,
                stall_after=args.stall_after,
                fault_budget=args.fault_budget)
    except JournalError as exc:
        _log.error("journal_error", reason=str(exc))
        return 2
    print(f"fleet: {fleet.workers} shards in "
          f"{fleet.wall_seconds:.1f}s"
          + (f" ({fleet.resumed_shards} resumed from journal)"
             if fleet.resumed_shards else "")
          + ("" if fleet.used_processes or fleet.degradation is None
             else " (process spawn unavailable; ran in-process)"))
    print("phases: " + ", ".join(
        f"{name} {seconds:.2f}s"
        for name, seconds in fleet.phase_breakdown().items()))
    if fleet.spans_adopted:
        print(f"trace: {fleet.spans_adopted:,} worker spans merged "
              f"under the run span")
    if fleet.exec_cache:
        print(f"exec cache: {fleet.cache_hits:,} hits / "
              f"{fleet.cache_hits + fleet.cache_misses:,} cacheable "
              f"({fleet.cache_hit_rate:.1%} hit rate), "
              f"saved {fleet.saved_cpu_hours:.1f} cpu-hours")
    save_store(corpus.store, args.out)
    print(f"saved {corpus.store.num_executions:,} executions / "
          f"{corpus.store.num_artifacts:,} artifacts / "
          f"{corpus.store.num_telemetry:,} telemetry rows "
          f"to {args.out}")
    if fleet.degradation is not None \
            and (fleet.degradation.degraded
                 or fleet.degradation.reschedules):
        from .fleet.supervisor import render_degradation
        print("\nsupervision:")
        print(render_degradation(fleet.degradation))
    if not fleet.complete:
        print(f"\nPARTIAL RUN: {len(fleet.failed_shards)} shard(s) "
              f"failed ({fleet.missing_pipelines} of "
              f"{fleet.pipelines} pipelines missing):")
        for failure in fleet.failed_shards:
            print(f"  shard {failure.shard_index} "
                  f"[pipelines {failure.start}..{failure.stop - 1}] "
                  f"{failure.kind}: {failure.message}")
        print(f"the saved store is valid but partial "
              f"(journal: {fleet.journal_dir}); inspect with "
              f"`repro fleet-status {args.out}`")
        print("resume with exactly:\n  " + _resume_command(args))
        return 3
    # Full run: the journal has served its purpose.
    from .faults.journal import ShardJournal
    ShardJournal(journal_dir, fingerprint="").cleanup()
    return 0


def _load(path: str):
    from .corpus import Corpus
    from .mlmd import load_store

    return Corpus.from_store(load_store(path))


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import full_report, segment_production_pipelines
    from .reporting import bar_chart, format_table

    corpus = _load(args.corpus)
    print(f"{len(corpus.production_context_ids)} production pipelines")
    graphlets = segment_production_pipelines(corpus)
    report = full_report(corpus, graphlets)
    print(f"\nlifespan: mean {report['fig3a_lifespan'].mean:.1f} d, "
          f"max {report['fig3a_lifespan'].maximum:.1f} d")
    print(f"models/day: median "
          f"{report['fig3b_models_per_day'].median:.2f}, "
          f"mean {report['fig3b_models_per_day'].mean:.2f}")
    print("\nFigure 5 — model mix:")
    print(bar_chart(dict(sorted(report["fig5_model_mix"].items(),
                                key=lambda kv: -kv[1]))))
    print("\nFigure 7 — compute-cost shares:")
    print(bar_chart(dict(sorted(report["fig7_cost_breakdown"].items(),
                                key=lambda kv: -kv[1]))))
    print("\nTable 1 — consecutive-graphlet similarity:")
    rows = [(name, *[f"{v:.1%}" for v in row["buckets"].values()],
             f"{row['mean']:.3f}")
            for name, row in report["tab1_similarity"].items()]
    print(format_table(("metric", "[0,.25]", "(.25,.5]", "(.5,.75]",
                        "(.75,1]", "mean"), rows))
    print(f"\nunpushed graphlet fraction: "
          f"{report['unpushed_fraction']:.1%}")
    cached = report["cached_stats"]
    if cached["cached_executions"]:
        print(f"cached executions: {cached['cached_executions']:,} of "
              f"{cached['total_executions']:,} "
              f"({cached['cached_fraction']:.1%}), saved "
              f"{cached['saved_cpu_hours']:.1f} cpu-hours")
    retry = report["retry_stats"]
    print(f"retry waste: {retry['total_cpu_hours']:.1f} cpu-hours total "
          f"= {retry['useful_cpu_hours']:.1f} useful "
          f"+ {retry['wasted_cpu_hours']:.1f} wasted "
          f"+ {retry['retried_cpu_hours']:.1f} retried "
          f"({retry['retried_executions']:,} superseded attempts, "
          f"max attempt {retry['max_attempt']})")
    return 0


def _cmd_waste(args: argparse.Namespace) -> int:
    from .analysis import segment_production_pipelines
    from .reporting import format_table
    from .waste import (build_waste_dataset, evaluate_policies,
                        feature_cost_index, train_all_variants)

    corpus = _load(args.corpus)
    graphlets = segment_production_pipelines(corpus)
    dataset = build_waste_dataset(graphlets)
    if dataset.n_rows < 20:
        _log.error("corpus_too_small", n_rows=dataset.n_rows,
                   required=20, corpus=args.corpus,
                   hint="generate a larger corpus first")
        return 2
    print(f"{dataset.n_rows} graphlets, "
          f"{dataset.unpushed_fraction:.0%} unpushed")
    policies = train_all_variants(dataset, n_estimators=args.trees)
    evaluation = evaluate_policies(policies, feature_cost_index(dataset))
    rows = []
    for name, policy in policies.items():
        curve = evaluation.curves[name]
        rows.append((name,
                     f"{policy.balanced_accuracy:.3f}",
                     f"{evaluation.feature_cost.get(name, float('nan')):.3f}",
                     f"{curve.waste_cut_at_freshness(0.95):.3f}"))
    print(format_table(("model", "balanced acc", "feature cost",
                        "waste cut @F>=0.95"), rows))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    from .mlmd import summarize_by_type
    from .query import as_client

    corpus = _load(args.corpus)
    store = as_client(corpus.store)
    context_id = None
    if args.pipeline is not None:
        matches = [c for c in store.contexts("Pipeline")
                   if c.name == args.pipeline]
        if not matches:
            print(f"no pipeline named {args.pipeline!r}", file=sys.stderr)
            return 1
        context_id = matches[0].id
    print(summarize_by_type(store, context_id).render())
    return 0


# -------------------------------------------------- diagnose / dashboard


def _resolve_pipeline_context(store, name: str | None):
    """The Context to diagnose: by name, or the costliest production one."""
    from .query import as_client

    store = as_client(store)
    contexts = store.contexts("Pipeline")
    if name is not None:
        for context in contexts:
            if context.name == name:
                return context
        return None
    if not contexts:
        return None
    from .corpus.generator import production_context_ids_from_store

    production = set(production_context_ids_from_store(store))
    candidates = [c for c in contexts if c.id in production] or contexts

    def pipeline_cost(context) -> float:
        return sum(float(e.get("cpu_hours", 0.0))
                   for e in store.get_executions_by_context(context.id))

    return max(candidates, key=pipeline_cost)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .mlmd import load_store
    from .obs.diagnosis import diagnose_pipeline
    from .reporting import bar_chart, format_table

    store = load_store(args.corpus)
    context = _resolve_pipeline_context(store, args.pipeline)
    if context is None:
        _log.error("pipeline_not_found", corpus=args.corpus,
                   pipeline=args.pipeline or "(none in corpus)")
        return 1
    try:
        diagnosis = diagnose_pipeline(store, context.id,
                                      graphlet_index=args.graphlet,
                                      top_k=args.top)
    except IndexError as exc:
        _log.error("graphlet_out_of_range", reason=str(exc))
        return 1

    print(f"pipeline {diagnosis.pipeline!r} (context {context.id}) — "
          f"{diagnosis.n_executions} executions, "
          f"{diagnosis.total_cpu_hours:.1f} cpu-hours, "
          f"{len(diagnosis.graphlets)} graphlets, "
          f"{diagnosis.n_pushes} pushed")

    if diagnosis.graphlets:
        rows = [(g.index, g.trainer_execution_id, g.model_type,
                 "yes" if g.pushed else "no",
                 "yes" if g.trainer_failed else "no",
                 g.n_executions, f"{g.cpu_hours:.2f}",
                 f"{g.duration_hours:.2f}")
                for g in diagnosis.graphlets]
        print()
        print(format_table(
            ("#", "trainer", "model", "pushed", "failed", "execs",
             "cpu h", "wall h"), rows, title="Graphlets"))

    if diagnosis.critical is not None:
        critical = diagnosis.critical
        rows = []
        for step, execution_id in enumerate(critical.execution_ids):
            execution = store.get_execution(execution_id)
            rows.append((step, execution.type_name, execution_id,
                         f"{execution.start_time:.2f}",
                         f"{execution.duration:.3f}",
                         f"{float(execution.get('cpu_hours', 0.0)):.3f}"))
        print()
        print(format_table(
            ("step", "operator", "exec", "start h", "dur h", "cpu h"),
            rows,
            title=f"Critical path — graphlet "
                  f"{diagnosis.target_graphlet_index}"))
        print(f"path duration {critical.duration_hours:.2f} h of "
              f"graphlet wall {critical.graphlet_duration_hours:.2f} h "
              f"(slack {critical.slack_hours:.2f} h)")

    if diagnosis.sinks:
        total = max(diagnosis.total_cpu_hours, 1e-12)
        rows = [(execution.type_name, execution.id, f"{cost:.3f}",
                 f"{cost / total:.1%}")
                for execution, cost in diagnosis.sinks]
        print()
        print(format_table(("operator", "exec", "cpu h", "share"), rows,
                           title=f"Top {len(rows)} cost sinks"))

    measured = [u for u in diagnosis.resources
                if u.cpu_fraction is not None]
    if measured:
        rows = [(u.operator, u.count, f"{u.wall_seconds:.3g}",
                 f"{u.cpu_seconds:.3g}", f"{u.cpu_fraction:.0%}",
                 u.verdict)
                for u in measured]
        print()
        print(format_table(
            ("operator", "count", "wall s", "cpu s", "cpu%", "verdict"),
            rows,
            title="Resource attribution (persisted node telemetry)"))

    if diagnosis.failures:
        rows = [(f.execution_id, f.node or "-", f.operator, f.kind,
                 f.attempt,
                 "-" if f.retry_of is None else f.retry_of,
                 (f"{f.error}: {f.message}" if f.error else f.message)
                 [:60] or "-")
                for f in diagnosis.failures[:args.top * 2]]
        print()
        print(format_table(
            ("exec", "node", "operator", "kind", "att", "retry of",
             "error"), rows,
            title=f"Failures ({len(diagnosis.failures)} failed "
                  f"executions)"))

    split = diagnosis.split
    print()
    print(bar_chart(
        {bucket: value for bucket, value in (
            ("useful", split.useful), ("wasted", split.wasted),
            ("protected", split.protected),
            ("unattributed", split.unattributed)) if value > 0},
        title="Compute attribution (cpu-hours, waste labels)"))
    print(f"attributed {split.total:.3f} of recorded "
          f"{diagnosis.total_cpu_hours:.3f} cpu-hours")
    if diagnosis.n_cached:
        print(f"cached executions: {diagnosis.n_cached} "
              f"(cache saved {diagnosis.saved_cpu_hours:.3f} cpu-hours "
              f"on top of the recorded total)")
    print(f"telemetry coverage: {diagnosis.telemetry_rows}/"
          f"{diagnosis.n_executions} executions with persisted rows "
          f"({diagnosis.telemetry_coverage:.0%})")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Summarize failure provenance and retry waste across a corpus."""
    from collections import Counter

    from .analysis.pipeline_level import retry_stats
    from .mlmd import load_store
    from .obs.diagnosis import collect_failures
    from .reporting import bar_chart, format_table

    from .query import as_client

    store = as_client(load_store(args.corpus))
    context_ids = [c.id for c in store.contexts("Pipeline")]
    kinds: Counter = Counter()
    operators: Counter = Counter()
    attempts: Counter = Counter()
    failures = []
    for context_id in context_ids:
        for record in collect_failures(store, context_id):
            failures.append(record)
            kinds[record.kind] += 1
            operators[record.operator] += 1
    for execution in store.get_executions():
        attempts[int(execution.get("attempt", 1))] += 1
    retry = retry_stats(store, context_ids)

    print(f"{len(context_ids)} pipelines, "
          f"{store.num_executions:,} executions, "
          f"{len(failures):,} failed")
    if kinds:
        print()
        print(bar_chart(dict(kinds.most_common()),
                        value_format="{:,.0f}",
                        title="Failure kinds"))
        print()
        print(bar_chart(dict(operators.most_common()),
                        value_format="{:,.0f}",
                        title="Failing operators"))
    if len(attempts) > 1:
        rows = [(attempt, f"{count:,}")
                for attempt, count in sorted(attempts.items())]
        print()
        print(format_table(("attempt", "executions"), rows,
                           title="Retry attempt histogram"))
    print()
    print(f"retry waste: {retry['total_cpu_hours']:.1f} cpu-hours total "
          f"= {retry['useful_cpu_hours']:.1f} useful "
          f"+ {retry['wasted_cpu_hours']:.1f} wasted "
          f"+ {retry['retried_cpu_hours']:.1f} retried")
    print(f"superseded attempts: {retry['retried_executions']:,}; "
          f"final failures: {retry['failed_executions']:,}; "
          f"retry amplification of useful work: "
          f"{retry['retry_amplification']:.3f}x")
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from .analysis import cdf_points
    from .corpus import Corpus
    from .graphlets import segment_pipeline
    from .mlmd import load_store
    from .obs.diagnosis import (find_regressions, operator_stats,
                                pipeline_cost_split)
    from .obs.provenance import METRIC_KIND, NODE_KIND, RUN_KIND
    from .query import as_client
    from .reporting import bar_chart, curve, format_table, histogram

    store = load_store(args.corpus)
    if store.num_telemetry == 0:
        _log.error("no_persisted_telemetry", corpus=args.corpus,
                   hint="regenerate with `repro generate --telemetry`")
        return 2
    node_rows = store.get_telemetry(kind=NODE_KIND)
    run_rows = store.get_telemetry(kind=RUN_KIND)
    metric_rows = store.get_telemetry(kind=METRIC_KIND)
    corpus = Corpus.from_store(store)
    production = corpus.production_context_ids
    print(f"fleet: {len(as_client(store).contexts('Pipeline'))} pipelines "
          f"({len(production)} production), "
          f"{store.num_executions:,} executions, "
          f"{store.num_telemetry:,} telemetry rows "
          f"({len(node_rows):,} node / {len(run_rows):,} run / "
          f"{len(metric_rows):,} metric)")

    wall = operator_stats(store, metric="wall_seconds")
    cpu = operator_stats(store, metric="cpu_hours")
    if wall:
        rows = [(s.name, s.count, f"{s.total:.3g}", f"{s.p50:.3g}",
                 f"{s.p95:.3g}", f"{s.p99:.3g}")
                for s in sorted(wall.values(), key=lambda s: -s.total)]
        print()
        print(format_table(
            ("operator", "count", "total s", "p50 s", "p95 s", "p99 s"),
            rows, title="Operator wall time (persisted node telemetry)"))
        print()
        print(histogram([r.value for r in node_rows], bins=8, log=True,
                        title="Node wall-time histogram (s, log bins)"))
    if cpu:
        print()
        print(bar_chart(
            {s.name: s.total
             for s in sorted(cpu.values(), key=lambda s: -s.total)},
            title="Operator compute (cpu-hours)"))

    costs: list[float] = []
    useful = wasted = protected = unattributed = 0.0
    for context_id in production:
        graphlets = segment_pipeline(store, context_id)
        costs.extend(g.total_cpu_hours for g in graphlets)
        split = pipeline_cost_split(store, context_id, graphlets)
        useful += split.useful
        wasted += split.wasted
        protected += split.protected
        unattributed += split.unattributed
    if costs:
        print()
        print(curve(cdf_points(costs), title="Graphlet cost CDF",
                    x_label="cpu-hours", y_label="fraction"))
    fleet_total = useful + wasted + protected + unattributed
    if fleet_total > 0:
        print()
        print(bar_chart(
            {bucket: value / fleet_total for bucket, value in (
                ("useful", useful), ("wasted", wasted),
                ("protected", protected),
                ("unattributed", unattributed)) if value > 0},
            value_format="{:.1%}",
            title=f"Waste share of {fleet_total:.1f} production "
                  f"cpu-hours"))

    if args.baseline:
        baseline = load_store(args.baseline)
        if baseline.num_telemetry == 0:
            _log.error("no_persisted_telemetry", corpus=args.baseline,
                       hint="baseline lacks telemetry rows")
            return 2
        flags = find_regressions(baseline, store,
                                 threshold=args.threshold)
        print()
        if not flags:
            print(f"no operator p95 regressions vs {args.baseline} "
                  f"(threshold {args.threshold:.0%})")
        else:
            rows = [(f.operator, f.metric, f"{f.baseline_p95:.4g}",
                     f"{f.current_p95:.4g}", f"{f.ratio:.2f}x")
                    for f in flags]
            print(format_table(
                ("operator", "metric", "baseline p95", "current p95",
                 "drift"), rows,
                title=f"Regression flags vs {args.baseline} "
                      f"(threshold {args.threshold:.0%})"))
    return 0


# ------------------------------------------------------------- telemetry


def _label_text(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _num(record: dict, key: str, fmt: str = "{:.4g}") -> str:
    """Format a possibly-missing / ``None`` numeric field (``-`` then)."""
    value = record.get(key)
    if value is None:
        return "-"
    try:
        return fmt.format(float(value))
    except (TypeError, ValueError):
        return "-"


def _render_telemetry(records: list[dict]) -> str:
    """Render exported metrics/span records as tables and charts.

    Tolerant by design: partially-written exports (missing fields,
    ``None`` percentiles of empty histograms) render as ``-`` instead
    of crashing the reader.
    """
    from .reporting import bar_chart, format_table

    records = [r for r in records if isinstance(r, dict)]
    counters = [r for r in records if r.get("kind") == "counter"]
    gauges = [r for r in records if r.get("kind") == "gauge"]
    histograms = [r for r in records if r.get("kind") == "histogram"]
    spans = [r for r in records if r.get("kind") == "span"]
    sections: list[str] = []

    if counters:
        rows = [(c.get("name", "-"), _label_text(c.get("labels", {})),
                 _num(c, "value", "{:,.0f}"))
                for c in counters]
        sections.append(format_table(("counter", "labels", "value"), rows,
                                     title="Counters"))
        op_counts = {
            _label_text(c.get("labels", {})) or c.get("name", "-"):
                c.get("value", 0)
            for c in counters
            if c.get("name") == "mlmd.ops" and c.get("value", 0) > 0
        }
        if op_counts:
            sections.append(bar_chart(
                dict(sorted(op_counts.items(), key=lambda kv: -kv[1])),
                title="Store ops", value_format="{:,.0f}"))

    if gauges:
        rows = [(g.get("name", "-"), _label_text(g.get("labels", {})),
                 _num(g, "value", "{:.3f}"))
                for g in gauges]
        sections.append(format_table(("gauge", "labels", "value"), rows,
                                     title="Gauges"))

    if histograms:
        rows = [
            (h.get("name", "-"), _label_text(h.get("labels", {})),
             h.get("count", 0), _num(h, "mean"), _num(h, "p50"),
             _num(h, "p95"), _num(h, "p99"), _num(h, "sum"))
            for h in histograms
        ]
        sections.append(format_table(
            ("histogram", "labels", "count", "mean", "p50", "p95", "p99",
             "sum"), rows, title="Histograms"))

    if spans:
        by_name: dict[str, list[float]] = {}
        for record in spans:
            try:
                duration = float(record.get("duration", 0.0))
            except (TypeError, ValueError):
                continue
            by_name.setdefault(str(record.get("name", "-")),
                               []).append(duration)
        rows = []
        for name, durations in sorted(by_name.items(),
                                      key=lambda kv: -sum(kv[1])):
            ordered = sorted(durations)
            p50 = ordered[len(ordered) // 2]
            p95 = ordered[min(int(len(ordered) * 0.95),
                              len(ordered) - 1)]
            rows.append((name, len(durations), f"{sum(durations):.4g}",
                         f"{p50:.4g}", f"{p95:.4g}"))
        sections.append(format_table(
            ("span", "count", "total s", "p50 s", "p95 s"), rows,
            title="Spans"))

    if not sections:
        return "(no telemetry records)"
    return "\n\n".join(sections)


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    """Render a fleet run's live/post-mortem status from its journal."""
    import time as _time
    from pathlib import Path

    from .faults.journal import journal_dir_for
    from .obs.fleetwatch import collect_fleet_status, render_fleet_status

    path = Path(args.out)
    journal_dir = path if path.name.endswith(".shards") \
        else journal_dir_for(path)
    while True:
        status = collect_fleet_status(journal_dir,
                                      stall_after=args.stall_after)
        if args.json:
            print(json.dumps(status.to_dict(), indent=2))
        else:
            print(render_fleet_status(status))
        if not args.watch or status.complete or not status.exists:
            return 0
        _time.sleep(args.watch)
        if not args.json:
            print()


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run another CLI command under the sampling profiler.

    The wrapped command executes through :func:`main` (its own obs
    flags work as usual) while a :class:`StackSampler` snapshots this
    thread; the folded stacks land in ``--out``, ready for any
    flamegraph renderer. Profile flags must precede the wrapped
    command: ``repro profile --out g.folded generate --pipelines 20``.
    """
    from .obs.profiling import StackSampler, render_top, write_folded

    wrapped = list(args.wrapped)
    if wrapped and wrapped[0] == "--":
        wrapped = wrapped[1:]
    if not wrapped:
        _log.error("profile_no_command",
                   hint="repro profile [--out FILE] <command ...>")
        return 2
    if wrapped[0] == "profile":
        _log.error("profile_nested",
                   hint="profile cannot wrap itself")
        return 2
    sampler = StackSampler(interval=args.interval)
    with sampler:
        code = main(wrapped)
    counts = sampler.folded()
    try:
        write_folded(args.out, counts,
                     header={"command": " ".join(wrapped),
                             "interval_s": args.interval,
                             "wall_s": round(sampler.wall_seconds, 3)})
    except OSError as exc:
        _log.error("profile_unwritable", file=args.out,
                   reason=type(exc).__name__)
        return code or 2
    print(f"\nprofile: {sum(counts.values()):,} samples over "
          f"{sampler.wall_seconds:.1f}s -> {args.out}")
    print(render_top(counts, args.top))
    return code


def _cmd_telemetry(args: argparse.Namespace) -> int:
    records = []
    bad_lines = 0
    try:
        with open(args.file) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    bad_lines += 1
                    continue
                # A telemetry record is a JSON object; a bare scalar or
                # array is a malformed/truncated line, not a record.
                if isinstance(record, dict):
                    records.append(record)
                else:
                    bad_lines += 1
    except OSError as exc:
        _log.error("telemetry_unreadable", file=args.file,
                   reason=type(exc).__name__)
        return 2
    if bad_lines:
        _log.warning("telemetry_bad_lines", file=args.file,
                     skipped=bad_lines)
    if args.timeline:
        from .reporting import render_span_timeline
        print(render_span_timeline(records))
    else:
        print(_render_telemetry(records))
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    obs_flags = argparse.ArgumentParser(add_help=False)
    group = obs_flags.add_argument_group("observability")
    group.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="export the metrics registry as JSONL "
                            "after the command")
    group.add_argument("--trace-out", metavar="FILE", default=None,
                       help="enable span tracing and export spans "
                            "as JSONL")
    group.add_argument("--trace-resources", action="store_true",
                       help="with --trace-out: stamp each span with "
                            "cpu_ms / rss_peak_mb / alloc_kb deltas "
                            "(rendered by telemetry --timeline)")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="raise log verbosity (-v info, -vv debug)")
    group.add_argument("--quiet", action="store_true",
                       help="only log errors")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Production ML Pipelines' "
                    "(SIGMOD 2021)")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", parents=[obs_flags],
                              help="generate a corpus into SQLite")
    generate.add_argument("--pipelines", type=int, default=60)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--max-graphlets", type=int, default=60)
    generate.add_argument("--out", default="corpus.db")
    generate.add_argument("--telemetry", default=True,
                          action=argparse.BooleanOptionalAction,
                          help="persist per-execution telemetry rows "
                               "into the corpus database (default on; "
                               "--no-telemetry disables)")
    generate.add_argument("--workers", type=int, default=1,
                          metavar="N",
                          help="sharded generation across N worker "
                               "processes; the stored corpus is the "
                               "same for any N (default 1)")
    generate.add_argument("--exec-cache", action="store_true",
                          help="enable the content-addressed execution "
                               "cache: redundant re-executions are "
                               "replayed as CACHED executions with "
                               "saved cpu-hours recorded")
    generate.add_argument("--fault-plan", default=None, metavar="PLAN",
                          help="inject seeded faults: a spec like "
                               "'transient:Trainer:0.05;worker_crash:1' "
                               "(kind:operator:probability), inline "
                               "JSON, or a .json file")
    generate.add_argument("--fault-seed", type=int, default=0,
                          help="seed for the fault plan's injection "
                               "streams (default 0; independent of "
                               "--seed so the simulated trace is "
                               "unchanged by fault sampling)")
    generate.add_argument("--retries", type=int, default=0, metavar="N",
                          help="allow N retry attempts after a failed "
                               "execution, with exponential backoff; "
                               "every attempt is persisted as its own "
                               "execution")
    generate.add_argument("--resume", action="store_true",
                          help="resume a partial fleet run from its "
                               "shard journal (<out>.shards/): only "
                               "failed or missing shards are re-run")
    generate.add_argument("--max-attempts", type=int, default=3,
                          metavar="N",
                          help="attempts per shard before it is "
                               "quarantined for this run (default 3; "
                               "1 fails a shard at its first failure "
                               "and leaves a partial run for --resume)")
    generate.add_argument("--stall-after", type=float, default=None,
                          metavar="SECONDS",
                          help="heartbeat silence before a worker "
                               "counts as hung and is rescheduled "
                               "(default 30; also recorded in the "
                               "journal for fleet-status)")
    generate.add_argument("--fault-budget", type=int, default=None,
                          metavar="N",
                          help="cap total reschedules across the "
                               "run; exhaustion quarantines the rest "
                               "— fail fast on systemic breakage "
                               "(default: unlimited)")
    generate.set_defaults(fn=_cmd_generate)

    report = sub.add_parser("report", parents=[obs_flags],
                            help="run the Section 3/4 analysis suite")
    report.add_argument("corpus")
    report.set_defaults(fn=_cmd_report)

    waste = sub.add_parser("waste", parents=[obs_flags],
                           help="train the Section 5 policy variants")
    waste.add_argument("corpus")
    waste.add_argument("--trees", type=int, default=60)
    waste.set_defaults(fn=_cmd_waste)

    summarize = sub.add_parser("summarize", parents=[obs_flags],
                               help="type-level trace summary")
    summarize.add_argument("corpus")
    summarize.add_argument("--pipeline", default=None,
                           help="pipeline name (default: whole corpus)")
    summarize.set_defaults(fn=_cmd_summarize)

    diagnose = sub.add_parser("diagnose", parents=[obs_flags],
                              help="explain one pipeline: critical "
                                   "path, cost sinks, waste split")
    diagnose.add_argument("corpus")
    diagnose.add_argument("--pipeline", default=None,
                          help="pipeline name (default: costliest "
                               "production pipeline)")
    diagnose.add_argument("--graphlet", type=int, default=None,
                          help="graphlet index for the critical path "
                               "(default: most expensive graphlet)")
    diagnose.add_argument("--top", type=int, default=5,
                          help="cost sinks to show (default 5)")
    diagnose.set_defaults(fn=_cmd_diagnose)

    faults = sub.add_parser("faults", parents=[obs_flags],
                            help="summarize failure kinds, retry "
                                 "attempts, and retry waste")
    faults.add_argument("corpus")
    faults.set_defaults(fn=_cmd_faults)

    dashboard = sub.add_parser("dashboard", parents=[obs_flags],
                               help="fleet report from telemetry "
                                    "persisted in the store")
    dashboard.add_argument("corpus")
    dashboard.add_argument("--baseline", default=None,
                           help="second corpus DB to diff operator "
                                "p95s against")
    dashboard.add_argument("--threshold", type=float, default=0.2,
                           help="p95 drift fraction that flags a "
                                "regression (default 0.2)")
    dashboard.set_defaults(fn=_cmd_dashboard)

    telemetry = sub.add_parser("telemetry", parents=[obs_flags],
                               help="render an exported telemetry "
                                    "JSONL file")
    telemetry.add_argument("file")
    telemetry.add_argument("--timeline", action="store_true",
                           help="render the causal span tree (offsets, "
                                "nesting, per-worker labels) instead "
                                "of aggregate tables")
    telemetry.set_defaults(fn=_cmd_telemetry)

    fleet_status = sub.add_parser(
        "fleet-status", parents=[obs_flags],
        help="status of a fleet run from its shard journal "
             "(live or post-mortem)")
    fleet_status.add_argument(
        "out", help="the run's --out path (or its <out>.shards dir)")
    fleet_status.add_argument(
        "--stall-after", type=float, default=None, metavar="SECONDS",
        help="heartbeat silence that flags a running shard as stalled "
             "(default: the threshold the run recorded in its journal "
             "manifest, or 30)")
    fleet_status.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the rendered view")
    fleet_status.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-render every SECONDS until the run completes")
    fleet_status.set_defaults(fn=_cmd_fleet_status)

    profile = sub.add_parser(
        "profile", parents=[obs_flags],
        help="run another repro command under the sampling profiler "
             "and write folded stacks (flamegraph format)")
    profile.add_argument("--out", metavar="FILE",
                         default="profile.folded",
                         help="folded-stack output path "
                              "(default profile.folded)")
    profile.add_argument("--interval", type=float, default=0.005,
                         metavar="SECONDS",
                         help="seconds between stack samples "
                              "(default 0.005)")
    profile.add_argument("--top", type=int, default=10,
                         help="hottest self-time frames to print "
                              "(default 10)")
    profile.add_argument("wrapped", nargs=argparse.REMAINDER,
                         metavar="command",
                         help="the repro command to profile, with its "
                              "own flags (must come last)")
    profile.set_defaults(fn=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from .obs import MetricsRegistry, NullTracer, Tracer, set_registry, \
        set_tracer

    args = build_parser().parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)
    # A fresh registry per invocation keeps --metrics-out exports scoped
    # to this command (tests call main() many times in one process).
    set_registry(MetricsRegistry())
    tracer = Tracer(resources=args.trace_resources) \
        if args.trace_out else None
    if tracer is not None:
        set_tracer(tracer)
    resource_sampler = None
    if args.metrics_out:
        # A metrics export should say what the *process* did, not just
        # the instrumented code paths — sample CPU/RSS/GC alongside.
        from .obs.resources import ResourceSampler
        resource_sampler = ResourceSampler().start()
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        # E.g. a mistyped corpus path: load_store refuses it (creating
        # nothing) and the command fails with one line, not a traceback.
        _log.error("file_not_found", reason=str(exc))
        return 2
    except BrokenPipeError:
        # The stdout consumer (e.g. `repro telemetry t.jsonl | head`)
        # went away; silence the flush-at-exit error too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if resource_sampler is not None:
            resource_sampler.stop()
        if args.metrics_out:
            get_registry().export_jsonl(args.metrics_out)
            _log.info("metrics_exported", file=args.metrics_out)
        if tracer is not None:
            tracer.export_jsonl(args.trace_out)
            _log.info("trace_exported", file=args.trace_out,
                      spans=len(tracer.finished_spans()))
            set_tracer(NullTracer())


if __name__ == "__main__":
    sys.exit(main())
