"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2e_bench/run.py --workload paper_e2e --seed 7 --seconds 12 \
        --trace 0

Run it from the repository root; it imports the program from ``src/``
of the same checkout. One run is one process, so ``peak_rss_mb``
belongs to one workload. It prints a host record, one line per metric
with its unit, and as the last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run sets up, then runs one untimed warm-up chain. ``--trace 0``
then repeats the untraced chain until ``--seconds`` have passed and
reports the end-to-end metrics (medians over repetitions). ``--trace
1`` alternates traced and untraced chains for the same time and reports
the per-layer metrics of the traced ones; their difference is
``obs.tracing_overhead``. Scratch files live in ``.bench_work/``
under the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import load_reference, output_digests
from spans import (SPAN_NAMES, NullRecorder, Recorder, layer_wrappers,
                   probe, reset_peak_rss)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
DEFAULT_SEED = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.wall_s": "s", f"{name}.self_s": "s",
                      f"{name}.cpu_s": "s", f"{name}.rss_peak_mb": "MiB"})
    units.update({
        "corpus.executions_per_s": "1/s",
        "fleet.merge_rows_per_s": "1/s",
        "fleet.shard_skew": "ratio",
        "fleet.attempts": "count",
        "fleet.useful_attempt_ratio": "ratio",
        "fleet.lost_cpu_s": "s",
        "faults.retried_executions": "count",
        "mlmd.rows_per_s": "1/s",
        "mlmd.db_mb": "MiB",
        "query.segment_cache_hit_ratio": "ratio",
        "query.lineage_queries_per_s": "1/s",
        "query.lineage_p50_us": "us",
        "query.lineage_p99_us": "us",
        "graphlets.per_s": "1/s",
        "similarity.pairs_requested": "count",
        "similarity.pair_cache_hit_ratio": "ratio",
        "waste.rows_per_s": "1/s",
        "ml.fits": "count",
        "obs.tracing_overhead": "ratio",
    })
    return units


def calibration_s() -> float:
    """Median time of a fixed pure-Python plus numpy loop on this host."""
    import numpy as np

    times = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        values = np.arange(400_000, dtype=float)[::-1].copy()
        values.sort()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def host_record(workload: str) -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count() or 1
    record = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "calibration_s": round(calibration_s(), 6),
    }
    if workload == "fleet_ingest":
        # Two workers on one core time-share: the run still measures the
        # fleet's overheads, but not its parallel speed-up.
        record["measures_scaling"] = nproc >= 2
    return record


def cold_import() -> None:
    """A fresh interpreter importing every layer the chains call."""
    code = ("import repro.analysis, repro.corpus, repro.fleet, "
            "repro.faults, repro.mlmd.sqlite_store, repro.query, "
            "repro.waste")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   cwd=ROOT, timeout=120)


def timed_setup(workload) -> float:
    """Median of SETUP_REPEATS set-ups: a cold import, then the
    workload's own set-up (analysis_scale generates and saves its
    corpus)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        cold_import()
        workload.setup()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def timed_chain(workload, traced: bool, keep_digest: bool) -> dict:
    """One chain, then its checks.

    Returns wall and CPU seconds, the checked outcome with its outputs
    dropped (so repetitions do not pile up in memory), the recorder and,
    if asked, the outputs' digest.
    """
    gc.collect()
    recorder = Recorder() if traced else NullRecorder()
    cpu0, _ = probe()
    started = time.perf_counter()
    if traced:
        with layer_wrappers(recorder):
            outcome = workload.chain(recorder)
    else:
        outcome = workload.chain(recorder)
    wall = time.perf_counter() - started
    cpu1, _ = probe()
    workload.verify(outcome)
    digest = json.dumps(output_digests(outcome.outputs)) \
        if keep_digest else None
    outcome.outputs = {}
    return {"wall": wall, "cpu": cpu1 - cpu0, "outcome": outcome,
            "recorder": recorder, "digest": digest}


def layer_metrics(recorder, outcome, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced chain."""
    totals = recorder.totals()
    facts = outcome.facts
    counts = recorder.counts

    def rate(amount: float, seconds_key: str) -> float:
        seconds = totals[seconds_key]
        return amount / seconds if seconds > 0 else 0.0

    moved_s = totals["mlmd.save.wall_s"] + totals["mlmd.load.wall_s"]
    requested = counts.get("similarity.pairs_requested", 0.0)
    computed = counts.get("similarity.pairs_computed", 0.0)
    out = dict(totals)
    out.update({
        "corpus.executions_per_s": rate(facts.get("executions", 0),
                                        "corpus.generate.wall_s"),
        "fleet.merge_rows_per_s": rate(facts.get("merge_rows", 0),
                                       "fleet.merge.wall_s"),
        "fleet.shard_skew": facts.get("shard_skew", 0.0),
        "fleet.attempts": facts.get("attempts", 0),
        "fleet.useful_attempt_ratio": facts.get("useful_attempt_ratio",
                                                0.0),
        "fleet.lost_cpu_s": facts.get("lost_cpu_s", 0.0),
        "faults.retried_executions": facts.get("retried_executions", 0),
        "mlmd.rows_per_s": facts.get("db_rows", 0) / moved_s
        if moved_s > 0 else 0.0,
        "mlmd.db_mb": facts.get("db_mb", 0.0),
        "query.segment_cache_hit_ratio": facts.get(
            "segment_cache_hit_ratio", 0.0),
        "query.lineage_queries_per_s": facts.get("lineage_queries_per_s",
                                                 0.0),
        "query.lineage_p50_us": facts.get("lineage_p50_us", 0.0),
        "query.lineage_p99_us": facts.get("lineage_p99_us", 0.0),
        "graphlets.per_s": rate(facts.get("graphlets", 0),
                                "graphlets.segment.wall_s"),
        "similarity.pairs_requested": requested,
        "similarity.pair_cache_hit_ratio": 1.0 - computed / requested
        if requested else 0.0,
        "waste.rows_per_s": rate(facts.get("rows", 0),
                                 "waste.dataset.wall_s"),
        "ml.fits": counts.get("ml.fits", 0.0),
        "obs.tracing_overhead": overhead,
    })
    return out


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, then repeat the chain for ``seconds``; the result dict."""
    setup_s = timed_setup(workload)
    # peak_rss_mb belongs to the measured chains, not to the set-up.
    reset_peak_rss()
    # A process's first chain runs up to a third slower than later ones
    # (its heap and the collector's thresholds are still growing). It is
    # checked but not timed, so every timed chain starts warm.
    warmup = [timed_chain(workload, False, keep_digest=trace)]
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if trace:
            traced.append(timed_chain(workload, True, keep_digest=True))
        untraced.append(timed_chain(workload, False, keep_digest=trace))
        if time.perf_counter() >= deadline:
            break
    runs = warmup + untraced + traced
    attempted = sum(r["outcome"].attempted for r in runs)
    failed = sum(r["outcome"].failed for r in runs)
    failed_checks = sorted({name for r in runs
                            for name, ok in r["outcome"].checks.items()
                            if not ok})
    if trace:
        # The same seed must give the same outputs with or without spans.
        attempted += 1
        if len({r["digest"] for r in runs}) != 1:
            failed += 1
            failed_checks.append("traced_digest_matches_untraced")
        wall = statistics.median(r["wall"] for r in untraced)
        overhead = statistics.median(r["wall"] for r in traced) / wall - 1
        per_run = [layer_metrics(r["recorder"], r["outcome"], overhead)
                   for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_run)
                   for name in per_run[0]}
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall"] for r in untraced),
            "cpu_s": statistics.median(r["cpu"] for r in untraced),
            "peak_rss_mb": probe()[1],
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "repetitions": len(untraced),
        "failed_checks": failed_checks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        reference = load_reference(args.workload) \
            if args.seed == DEFAULT_SEED else {}
        workload = WORKLOADS[args.workload](args.seed, workdir, reference)
        host = host_record(args.workload)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"repetitions {result.pop('repetitions')}")
    print("host " + json.dumps(host, sort_keys=True))
    for name in result.pop("failed_checks"):
        print(f"FAILED check {name}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
