"""Fleet-scaling experiment: sharded generation + execution cache.

Three runs of the same corpus seed answer the PR's two questions:

* **Equivalence** — a parallel (workers=N) run must produce the exact
  trace of the sequential (workers=1) fleet run: same store sizes, same
  execution rows, same total compute. This is asserted, not reported.
* **Throughput / savings** — the wall-clock speedup of real worker
  processes and the hit rate / saved cpu-hours of the execution cache
  are measured and written to ``benchmarks/results/BENCH_fleet.json``
  (and the shared results log) for the CI artifact.

Scale via ``REPRO_BENCH_FLEET_PIPELINES`` (default 60; speedup numbers
only get interesting from a few dozen pipelines up, since process
startup amortizes over shard runtime).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis import pipeline_level
from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet

from conftest import emit

RESULTS_DIR = Path(__file__).parent / "results"
FLEET_WORKERS = 4


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Workers of the parallel leg: never more than the cores behind them
#: (oversubscribed workers only add contention), and at least 2 so the
#: leg really runs shards in parallel.
PARALLEL_WORKERS = max(2, min(FLEET_WORKERS, _cores()))


@pytest.fixture(scope="module")
def fleet_config():
    n_pipelines = int(os.environ.get("REPRO_BENCH_FLEET_PIPELINES", "60"))
    return CorpusConfig(n_pipelines=n_pipelines, seed=9,
                        max_graphlets_per_pipeline=40,
                        max_window_spans=20)


@pytest.fixture(scope="module")
def sequential_run(fleet_config):
    return generate_corpus_fleet(fleet_config, workers=1)


@pytest.fixture(scope="module")
def parallel_run(fleet_config):
    return generate_corpus_fleet(fleet_config, workers=PARALLEL_WORKERS)


@pytest.fixture(scope="module")
def cached_run(fleet_config):
    return generate_corpus_fleet(fleet_config, workers=FLEET_WORKERS,
                                 exec_cache=True)


def _total_cpu_hours(corpus) -> float:
    return sum(float(e.get("cpu_hours", 0.0))
               for e in corpus.store.get_executions())


def test_parallel_equals_sequential(sequential_run, parallel_run):
    seq, par = sequential_run[0], parallel_run[0]
    assert seq.store.num_artifacts == par.store.num_artifacts
    assert seq.store.num_executions == par.store.num_executions
    assert [(e.type_name, e.state.value, e.start_time,
             float(e.get("cpu_hours", 0.0)))
            for e in seq.store.get_executions()] == \
        [(e.type_name, e.state.value, e.start_time,
          float(e.get("cpu_hours", 0.0)))
         for e in par.store.get_executions()]
    assert seq.production_context_ids == par.production_context_ids


def test_cache_saves_real_compute(sequential_run, cached_run):
    _, report = cached_run
    assert report.cache_hits > 0
    assert report.saved_cpu_hours > 0
    # Saved hours must reconcile against the uncached run's total.
    assert _total_cpu_hours(sequential_run[0]) == pytest.approx(
        _total_cpu_hours(cached_run[0]) + report.saved_cpu_hours,
        rel=1e-6)


def test_fleet_scaling_report(fleet_config, sequential_run, parallel_run,
                              cached_run):
    seq_corpus, seq_report = sequential_run
    par_corpus, par_report = parallel_run
    cache_corpus, cache_report = cached_run

    speedup = seq_report.wall_seconds / par_report.wall_seconds \
        if par_report.wall_seconds else 0.0
    cached_stats = pipeline_level.cached_execution_stats(
        cache_corpus.store,
        [c.id for c in cache_corpus.store.get_contexts()
         if c.type_name == "Pipeline"])

    cores = _cores()
    payload = {
        "pipelines": fleet_config.n_pipelines,
        "seed": fleet_config.seed,
        "workers": PARALLEL_WORKERS,
        "cpu_cores": cores,
        "used_processes": par_report.used_processes,
        "sequential_seconds": round(seq_report.wall_seconds, 3),
        "parallel_seconds": round(par_report.wall_seconds, 3),
        "speedup": round(speedup, 3),
        "cache_hits": cache_report.cache_hits,
        "cache_hit_rate": round(cache_report.cache_hit_rate, 4),
        "saved_cpu_hours": round(cache_report.saved_cpu_hours, 3),
        "cached_fraction": round(cached_stats["cached_fraction"], 4),
        "total_cpu_hours": round(_total_cpu_hours(seq_corpus), 3),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fleet.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    emit("fleet scaling — sharded generation + execution cache "
         f"({fleet_config.n_pipelines} pipelines, seed "
         f"{fleet_config.seed})\n"
         f"  sequential (1 worker) : {seq_report.wall_seconds:8.3f} s\n"
         f"  parallel ({PARALLEL_WORKERS} workers)  : "
         f"{par_report.wall_seconds:8.3f} s"
         f"{'' if par_report.used_processes else '  [in-process fallback]'}"
         "\n"
         f"  speedup               : {speedup:8.3f}x "
         f"({cores} core{'s' if cores != 1 else ''})\n"
         f"  exec cache            : {cache_report.cache_hits:,} hits "
         f"({cache_report.cache_hit_rate:.1%} of cacheable), saved "
         f"{cache_report.saved_cpu_hours:.1f} of "
         f"{_total_cpu_hours(seq_corpus):.1f} cpu-hours")

    # Statistical equivalence of the cached corpus: caching changes
    # costs, never pipeline structure or push behavior.
    assert cache_corpus.store.num_executions == \
        seq_corpus.store.num_executions
    assert cache_corpus.production_context_ids == \
        seq_corpus.production_context_ids
    if par_report.used_processes and cores >= PARALLEL_WORKERS:
        # With a real core behind every worker, parallel must at least
        # break even after startup slop; with fewer cores than workers
        # (or with the in-process fallback) only the measured number is
        # reported.
        assert speedup > 0.9
