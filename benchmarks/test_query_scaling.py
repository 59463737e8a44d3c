"""Query-scaling experiment: indexed client vs scan-path reads.

The PR's acceptance record. On a ~10k-artifact corpus two numbers are
measured and written to ``benchmarks/results/BENCH_query.json``:

* **lineage neighborhood** — resolving every input/output/consumer/
  producer edge of a sample of nodes through the client's adjacency
  maps vs recomputing each neighborhood from a full event scan (what
  the pre-client call sites effectively did on the sqlite read path);
* **graphlet segmentation** — re-segmenting unchanged pipelines
  through the client's LRU cache vs recomputing the segmentation.

Gate: both speedups ≥ 10x. A client reads the store's own maps, so it
adds nothing to generation; ``tests/query/test_client.py`` pins that
(``TestClientIsReadOnly``, ``TestIncrementalMaintenance``).
Scale via ``REPRO_BENCH_QUERY_PIPELINES`` (default 40 ≈ 10k artifacts).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.graphlets import segmentation
from repro.mlmd.types import EventType
from repro.query import MetadataClient

from conftest import emit

RESULTS_DIR = Path(__file__).parent / "results"

#: Minimum indexed-over-scan speedup (ISSUE acceptance).
MIN_SPEEDUP = 10.0
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
    corpus, _ = generate_corpus_fleet(query_config)
    return corpus


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
    for execution_id in execution_ids:
        results[("in", execution_id)] = \
            client.get_input_artifact_ids(execution_id)
        results[("out", execution_id)] = \
            client.get_output_artifact_ids(execution_id)
    for artifact_id in artifact_ids:
        results[("consumers", artifact_id)] = \
            client.get_consumer_execution_ids(artifact_id)
        results[("producers", artifact_id)] = \
            client.get_producer_execution_ids(artifact_id)
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
        "gates": {"min_speedup": MIN_SPEEDUP},
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
         f"({segment_speedup:,.0f}x)")

    assert lineage_speedup >= MIN_SPEEDUP, (
        f"lineage neighborhood speedup {lineage_speedup:.1f}x below "
        f"the {MIN_SPEEDUP:.0f}x gate")
    assert segment_speedup >= MIN_SPEEDUP, (
        f"segmentation speedup {segment_speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x gate")
