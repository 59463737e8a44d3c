"""Query-scaling experiment: indexed client vs scan-path reads.

The PR's acceptance record. On a ~10k-artifact corpus three numbers are
measured and written to ``benchmarks/results/BENCH_query.json``:

* **lineage neighborhood** — resolving every input/output/consumer/
  producer edge of a sample of nodes through the client's adjacency
  maps vs recomputing each neighborhood from a full event scan (what
  the pre-client call sites effectively did on the sqlite read path);
* **graphlet segmentation** — re-segmenting unchanged pipelines
  through the client's LRU cache vs recomputing the segmentation;
* **index maintenance** — corpus generation with a client built on
  the destination store beforehand vs without one; the client reads
  the store's own maps, and generation with it must stay within 5% of
  generation without it.

Gates (ISSUE 5): both speedups ≥ 10x, maintenance ≤ 5% (plus a small
absolute epsilon so a sub-10s workload doesn't flake on timer noise).
Scale via ``REPRO_BENCH_QUERY_PIPELINES`` (default 40 ≈ 10k artifacts).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.graphlets import segmentation
from repro.mlmd import MetadataStore
from repro.mlmd.types import EventType
from repro.query import MetadataClient

from conftest import emit

RESULTS_DIR = Path(__file__).parent / "results"

#: Minimum indexed-over-scan speedup (ISSUE acceptance).
MIN_SPEEDUP = 10.0
#: Max tolerated index-maintenance share of generation time.
MAX_MAINTENANCE = 0.05
#: Absolute slack (seconds) for the maintenance gate on small runs.
ABS_EPSILON = 0.15
#: Nodes sampled for the lineage-neighborhood query mix.
SAMPLE = 150
REPEATS = 3


@pytest.fixture(scope="module")
def query_config():
    n_pipelines = int(os.environ.get("REPRO_BENCH_QUERY_PIPELINES", "40"))
    return CorpusConfig(n_pipelines=n_pipelines, seed=13,
                        max_graphlets_per_pipeline=40,
                        max_window_spans=20)


@pytest.fixture(scope="module")
def query_corpus(query_config):
    return generate_corpus(query_config)


def _scan_neighbors(store, execution_ids, artifact_ids):
    """The pre-client read path: one full event scan per neighborhood."""
    results = {}
    for execution_id in execution_ids:
        results[("in", execution_id)] = [
            e.artifact_id for e in store.get_events()
            if e.execution_id == execution_id and e.type == EventType.INPUT]
        results[("out", execution_id)] = [
            e.artifact_id for e in store.get_events()
            if e.execution_id == execution_id and e.type == EventType.OUTPUT]
    for artifact_id in artifact_ids:
        results[("consumers", artifact_id)] = [
            e.execution_id for e in store.get_events()
            if e.artifact_id == artifact_id and e.type == EventType.INPUT]
        results[("producers", artifact_id)] = [
            e.execution_id for e in store.get_events()
            if e.artifact_id == artifact_id and e.type == EventType.OUTPUT]
    return results


def _indexed_neighbors(client, execution_ids, artifact_ids):
    results = {}
    inputs = client.neighbors_many("inputs", execution_ids)
    outputs = client.neighbors_many("outputs", execution_ids)
    for execution_id in execution_ids:
        results[("in", execution_id)] = inputs[execution_id]
        results[("out", execution_id)] = outputs[execution_id]
    consumers = client.neighbors_many("consumers", artifact_ids)
    producers = client.neighbors_many("producers", artifact_ids)
    for artifact_id in artifact_ids:
        results[("consumers", artifact_id)] = consumers[artifact_id]
        results[("producers", artifact_id)] = producers[artifact_id]
    return results


def test_query_scaling(query_config, query_corpus):
    store = query_corpus.store
    client = MetadataClient(store)
    assert client.num_artifacts >= 5_000, \
        "corpus too small for a meaningful scaling measurement"

    # --- lineage neighborhood: scan vs adjacency maps -----------------
    execution_ids = [e.id for e in store.get_executions()][:SAMPLE]
    artifact_ids = [a.id for a in store.get_artifacts()][:SAMPLE]

    start = time.perf_counter()
    scanned = _scan_neighbors(store, execution_ids, artifact_ids)
    scan_seconds = time.perf_counter() - start

    indexed_seconds = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        indexed = _indexed_neighbors(client, execution_ids, artifact_ids)
        indexed_seconds = min(indexed_seconds,
                              time.perf_counter() - start)
    assert indexed == scanned, "indexed adjacency diverges from events"
    lineage_speedup = scan_seconds / indexed_seconds

    # --- graphlet segmentation: recompute vs LRU cache ----------------
    context_ids = [c.id for c in client.contexts("Pipeline")]
    start = time.perf_counter()
    fresh = {cid: segmentation.segment_pipeline(client, cid)
             for cid in context_ids}
    segment_scan_seconds = time.perf_counter() - start

    client.segment_corpus()  # populate the cache
    segment_cached_seconds = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        cached = client.segment_corpus()
        segment_cached_seconds = min(segment_cached_seconds,
                                     time.perf_counter() - start)
    assert {cid: [g.trainer_execution_id for g in graphlets]
            for cid, graphlets in cached.items()} \
        == {cid: [g.trainer_execution_id for g in graphlets]
            for cid, graphlets in fresh.items()}
    segment_speedup = segment_scan_seconds / segment_cached_seconds

    # --- index maintenance during generation --------------------------
    # Interleave plain and client-attached generation (best of
    # REPEATS each) so background-load drift hits both equally.
    plain_seconds = float("inf")
    maintained_seconds = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        generate_corpus(query_config)
        plain_seconds = min(plain_seconds, time.perf_counter() - start)

        live_store = MetadataStore()
        live_client = MetadataClient(live_store)
        start = time.perf_counter()
        generate_corpus(query_config, store=live_store)
        maintained_seconds = min(maintained_seconds,
                                 time.perf_counter() - start)
        assert live_client.num_artifacts == client.num_artifacts
    maintenance = maintained_seconds / plain_seconds - 1.0

    record = {
        "n_pipelines": query_config.n_pipelines,
        "num_artifacts": client.num_artifacts,
        "num_executions": client.num_executions,
        "num_events": client.num_events,
        "lineage_queries": 2 * (len(execution_ids) + len(artifact_ids)),
        "lineage_scan_seconds": round(scan_seconds, 4),
        "lineage_indexed_seconds": round(indexed_seconds, 6),
        "lineage_speedup": round(lineage_speedup, 1),
        "segment_pipelines": len(context_ids),
        "segment_fresh_seconds": round(segment_scan_seconds, 4),
        "segment_cached_seconds": round(segment_cached_seconds, 6),
        "segment_speedup": round(segment_speedup, 1),
        "generation_plain_seconds": round(plain_seconds, 3),
        "generation_maintained_seconds": round(maintained_seconds, 3),
        "maintenance_overhead": round(maintenance, 4),
        "gates": {"min_speedup": MIN_SPEEDUP,
                  "max_maintenance": MAX_MAINTENANCE},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_query.json").write_text(
        json.dumps(record, indent=2) + "\n")
    emit("query scaling — indexed client vs scan path "
         f"({client.num_artifacts} artifacts, "
         f"{client.num_events} events)\n"
         f"  lineage neighborhood : scan {scan_seconds:8.3f} s  "
         f"indexed {indexed_seconds:8.5f} s  "
         f"({lineage_speedup:,.0f}x)\n"
         f"  segmentation         : fresh {segment_scan_seconds:8.3f} s  "
         f"cached {segment_cached_seconds:8.5f} s  "
         f"({segment_speedup:,.0f}x)\n"
         f"  index maintenance    : plain {plain_seconds:8.3f} s  "
         f"attached   {maintained_seconds:8.3f} s  "
         f"({maintenance:+.1%} vs gate {MAX_MAINTENANCE:.0%})")

    assert lineage_speedup >= MIN_SPEEDUP, (
        f"lineage neighborhood speedup {lineage_speedup:.1f}x below "
        f"the {MIN_SPEEDUP:.0f}x gate")
    assert segment_speedup >= MIN_SPEEDUP, (
        f"segmentation speedup {segment_speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x gate")
    assert maintained_seconds <= plain_seconds * (1 + MAX_MAINTENANCE) \
        + ABS_EPSILON, (
        f"index maintenance {maintenance:.1%} exceeds the "
        f"{MAX_MAINTENANCE:.0%} gate")
