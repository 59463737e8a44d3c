"""Instrumentation-overhead micro-benchmark.

The observability layer is always-on by design (counters in the store,
metrics in the runner), so the whole premise depends on it being close
to free. Two comparisons:

* **no-op tracer** (the default) vs a fresh baseline — the permanent
  cost of the counters/histograms that cannot be turned off;
* **real tracer + metrics export** vs the no-op path — the cost of
  actually recording every run/node span.

The instrumented configurations run the *full* observatory: per-span
resource attribution (``Tracer(resources=True)`` — CPU-clock and
peak-RSS probes on every context-manager span, plus the runtime's
per-node CPU capture) and a live :class:`ResourceSampler` thread, so
the ≤5% gate covers everything this PR's resource observatory adds,
not just the original counters.

The gate is ≤5% (with a small absolute epsilon to absorb timer noise on
a workload of a few seconds); each configuration takes the best of
three runs, which filters scheduler hiccups.
"""

from __future__ import annotations

import json
import time

from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    ResourceSampler,
    Tracer,
    set_registry,
    set_tracer,
)

from conftest import emit

#: Max tolerated slowdown of the instrumented path (ISSUE acceptance).
MAX_OVERHEAD = 1.05
#: Absolute slack (seconds) so sub-5s workloads don't flake on noise.
ABS_EPSILON = 0.15
REPEATS = 3


def _bench_config() -> CorpusConfig:
    return CorpusConfig(n_pipelines=20, seed=11,
                        max_graphlets_per_pipeline=20)


def _one_generation_seconds() -> float:
    start = time.perf_counter()
    generate_corpus_fleet(_bench_config())
    return time.perf_counter() - start


def test_instrumentation_overhead(tmp_path):
    # Warm-up: JIT-free Python still benefits from warm allocators and
    # importing everything before the clock starts.
    generate_corpus_fleet(CorpusConfig(n_pipelines=2, seed=1,
                                       max_graphlets_per_pipeline=4))

    # Interleave the two configurations (noop, instrumented, noop, ...)
    # so background-load drift hits both equally, and take the best of
    # each — pairing them back-to-back is what makes a 5% gate tight
    # enough to assert on a shared machine.
    tracer = Tracer(resources=True)
    registry = MetricsRegistry()
    sampler = ResourceSampler(registry=registry)
    noop_seconds = float("inf")
    instrumented_seconds = float("inf")
    try:
        for _ in range(REPEATS):
            set_registry(MetricsRegistry())
            set_tracer(NullTracer())
            noop_seconds = min(noop_seconds, _one_generation_seconds())

            set_registry(registry)
            set_tracer(tracer)
            sampler.start()
            try:
                instrumented_seconds = min(instrumented_seconds,
                                           _one_generation_seconds())
            finally:
                sampler.stop()
        # Export happens once per CLI command, not per run — time it
        # separately rather than folding it into the per-run gate.
        export_start = time.perf_counter()
        registry.export_jsonl(tmp_path / "metrics.jsonl")
        tracer.export_jsonl(tmp_path / "spans.jsonl")
        export_seconds = time.perf_counter() - export_start
    finally:
        set_tracer(NullTracer())
        set_registry(MetricsRegistry())

    n_spans = len(tracer.finished_spans())
    exported = [json.loads(line) for line in
                (tmp_path / "metrics.jsonl").read_text().splitlines()]
    overhead = instrumented_seconds / noop_seconds
    emit("obs overhead — corpus generation (20 pipelines, best of "
         f"{REPEATS}, interleaved)\n"
         f"  no-op tracer     : {noop_seconds:8.3f} s\n"
         f"  full observatory : {instrumented_seconds:8.3f} s "
         f"({n_spans} spans, {len(exported)} instruments)\n"
         f"  jsonl export     : {export_seconds:8.3f} s\n"
         f"  overhead         : {overhead:8.3f}x "
         f"(gate {MAX_OVERHEAD:.2f}x)")

    assert n_spans > 0, "real tracer recorded nothing"
    assert exported, "metrics export is empty"
    assert instrumented_seconds <= noop_seconds * MAX_OVERHEAD \
        + ABS_EPSILON, (
        f"instrumented path {instrumented_seconds:.3f}s vs no-op "
        f"{noop_seconds:.3f}s exceeds the {MAX_OVERHEAD:.2f}x gate")


def _one_fleet_generation_seconds() -> float:
    start = time.perf_counter()
    generate_corpus_fleet(_bench_config(), workers=2, in_process=True)
    return time.perf_counter() - start


def test_fleet_instrumentation_overhead():
    """The distributed-tracing machinery obeys the same ≤5% gate.

    The fleet path adds the cross-process pieces on top of the runner's
    counters: per-shard span trees, instrument state snapshots, span
    adoption (id remap + clock rebase), and registry folding at merge.
    Two in-process workers exercise all of it without pool startup
    noise polluting a percent-level comparison.
    """
    generate_corpus_fleet(CorpusConfig(n_pipelines=2, seed=1,
                                       max_graphlets_per_pipeline=4),
                          workers=2, in_process=True)

    tracer = Tracer(resources=True)
    registry = MetricsRegistry()
    sampler = ResourceSampler(registry=registry)
    noop_seconds = float("inf")
    instrumented_seconds = float("inf")
    try:
        for _ in range(REPEATS):
            set_registry(MetricsRegistry())
            set_tracer(NullTracer())
            noop_seconds = min(noop_seconds,
                               _one_fleet_generation_seconds())

            set_registry(registry)
            set_tracer(tracer)
            sampler.start()
            try:
                instrumented_seconds = min(
                    instrumented_seconds,
                    _one_fleet_generation_seconds())
            finally:
                sampler.stop()
    finally:
        set_tracer(NullTracer())
        set_registry(MetricsRegistry())

    n_spans = len(tracer.finished_spans())
    adopted = sum(1 for s in tracer.finished_spans()
                  if s.attrs.get("worker"))
    overhead = instrumented_seconds / noop_seconds
    emit("obs overhead — fleet generation (20 pipelines, 2 in-process "
         f"workers, best of {REPEATS}, interleaved)\n"
         f"  no-op tracer     : {noop_seconds:8.3f} s\n"
         f"  full observatory : {instrumented_seconds:8.3f} s "
         f"({n_spans} spans, {adopted} adopted from workers)\n"
         f"  overhead         : {overhead:8.3f}x "
         f"(gate {MAX_OVERHEAD:.2f}x)")

    assert adopted > 0, "no worker spans were adopted"
    assert instrumented_seconds <= noop_seconds * MAX_OVERHEAD \
        + ABS_EPSILON, (
        f"instrumented fleet path {instrumented_seconds:.3f}s vs "
        f"no-op {noop_seconds:.3f}s exceeds the "
        f"{MAX_OVERHEAD:.2f}x gate")
