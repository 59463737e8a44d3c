"""Fleet data-plane decomposition: where does a parallel run's time go?

The fleet-scaling bench measures *that* a parallel run is (or is not)
faster; this one measures *why*, breaking the coordinator's wall clock
into the instrumented phases — shard planning, parallel simulation,
shard-file write, merge re-insertion — and writing
``benchmarks/results/BENCH_fleet_phases.json`` for the CI artifact.

The acceptance gate: the named phases must account for the run — the
unattributed ``other`` residual stays under 10% of wall clock. If it
grows, the coordinator picked up untraced work and the decomposition
is lying.

Scale via ``REPRO_BENCH_FLEET_PIPELINES`` (shared with the scaling
bench).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.obs import MetricsRegistry, set_registry

from conftest import emit

RESULTS_DIR = Path(__file__).parent / "results"
FLEET_WORKERS = 4

#: Max fraction of wall clock the phase decomposition may leave
#: unattributed (ISSUE acceptance criterion).
MAX_OTHER_FRACTION = 0.10


@pytest.fixture(scope="module")
def phases_config():
    n_pipelines = int(os.environ.get("REPRO_BENCH_FLEET_PIPELINES",
                                     "60"))
    return CorpusConfig(n_pipelines=n_pipelines, seed=9,
                        max_graphlets_per_pipeline=40,
                        max_window_spans=20)


@pytest.fixture(scope="module")
def profiled_run(phases_config):
    """One pool-backed fleet run with a fresh registry capturing it."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        corpus, report = generate_corpus_fleet(phases_config,
                                               workers=FLEET_WORKERS)
    finally:
        set_registry(previous)
    return corpus, report, registry


def _histogram_summary(registry, name):
    histogram = registry.histogram(name)
    if histogram.count == 0:
        return None
    return {"count": histogram.count,
            "sum": round(histogram.sum, 6),
            "mean": round(histogram.mean, 6),
            "max": round(histogram.max, 6)}


def test_fleet_phase_decomposition(profiled_run, phases_config):
    _, report, registry = profiled_run
    breakdown = report.phase_breakdown()

    # The named phases plus the residual reconstruct the wall clock.
    assert sum(breakdown.values()) == pytest.approx(
        report.wall_seconds, rel=1e-6, abs=1e-6)
    # ... and the residual is small: the decomposition explains ≥90%
    # of where a fleet run's time goes.
    assert breakdown["other"] <= MAX_OTHER_FRACTION \
        * max(report.wall_seconds, 1e-9), (
        f"unattributed time {breakdown['other']:.3f}s exceeds "
        f"{MAX_OTHER_FRACTION:.0%} of the {report.wall_seconds:.3f}s "
        "wall clock")

    serialize = _histogram_summary(registry,
                                   "fleet.shard.serialize_seconds")
    snapshot_bytes = _histogram_summary(registry,
                                        "fleet.shard.snapshot_bytes")
    transfer = _histogram_summary(registry,
                                  "fleet.shard.transfer_seconds")
    payload = {
        "pipelines": phases_config.n_pipelines,
        "seed": phases_config.seed,
        "workers": FLEET_WORKERS,
        "used_processes": report.used_processes,
        "wall_seconds": round(report.wall_seconds, 3),
        "phases": {name: round(seconds, 4)
                   for name, seconds in breakdown.items()},
        "phase_fractions": {
            name: round(seconds / report.wall_seconds, 4)
            if report.wall_seconds else 0.0
            for name, seconds in breakdown.items()},
        "merge_rows": report.merge_rows,
        "merge_rows_per_sec": round(report.merge_rows_per_sec or 0.0,
                                    1),
        "snapshot_bytes_total": report.snapshot_bytes,
        "shard_serialize_seconds": serialize,
        "shard_snapshot_bytes": snapshot_bytes,
        "shard_transfer_seconds": transfer,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fleet_phases.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    phase_lines = "\n".join(
        f"  {name:<10}: {seconds:8.3f} s "
        f"({payload['phase_fractions'][name]:6.1%})"
        for name, seconds in breakdown.items())
    emit("fleet phases — data-plane decomposition "
         f"({phases_config.n_pipelines} pipelines, {FLEET_WORKERS} "
         f"workers{'' if report.used_processes else ', in-process'})\n"
         + phase_lines + "\n"
         f"  merge      : {report.merge_rows:,} rows at "
         f"{payload['merge_rows_per_sec']:,.0f} rows/s\n"
         f"  shard files: {report.snapshot_bytes:,} bytes written")

    # The data-plane histograms saw every shard.
    assert serialize is not None
    assert serialize["count"] == FLEET_WORKERS
    assert report.merge_rows > 0
    # Every shard travelled home as its sqlite file.
    assert report.snapshot_bytes > 0
    if report.used_processes:
        # Real workers: results crossed a process boundary, so
        # transfer times were actually measured.
        assert transfer is not None and transfer["count"] == \
            FLEET_WORKERS
