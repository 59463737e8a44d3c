"""Sharded parallel corpus generation.

Every pipeline's simulation is a pure function of the config and its
index: :func:`~repro.corpus.generator.simulate_pipelines` runs it on
the per-pipeline rng :func:`pipeline_rng` derives from
``(config.seed, pipeline index)`` via ``SeedSequence.spawn_key``.
Pipelines can therefore be partitioned into contiguous shards,
simulated in worker processes into private stores, and merged back
(:func:`repro.mlmd.sqlite_store.append_store`) into a trace that is
*identical* for any worker count with the same seed — the
reproducible-pipeline discipline of Sugimura & Hartl applied to the
corpus generator itself.

Worker discipline:

* Workers install a **fresh metrics registry** before simulating — a
  forked child inherits the parent's counter values, and returning
  those would double-count. The parent folds each shard's instrument
  state (counters exactly; histograms via
  :meth:`~repro.obs.metrics.Histogram.merge_state`, exact aggregates
  plus merged reservoirs) back into its own registry, which is what
  keeps ``corpus.pipelines_generated`` and per-pipeline latency
  histograms correct under multi-process generation.
* Workers install a **fresh tracer** when the driver hands them a
  :class:`~repro.obs.tracing.TraceContext`: per-shard spans
  (``fleet.shard`` → ``fleet.shard.simulate`` → per-pipeline
  ``corpus.pipeline``) record in the worker, are journaled as
  ``shard-NNNN.spans.jsonl``, and the driver adopts them under its
  ``fleet.run`` span — one causally ordered cross-process timeline.
* A shard's rows travel home as its sqlite file. The worker writes
  ``shard-NNNN.db`` into the journal (its ``serialize`` phase) and the
  result pipe carries only the pipeline records and tallies; the
  coordinator appends each file to the destination store in shard
  order with the one loader in :mod:`repro.mlmd.sqlite_store`. Fresh,
  resumed, rescheduled and inline shards all merge the same way, and the
  file a run merges is the file a later ``resume=True`` reloads.

Executors: a one-shard plan with something to run calls
:func:`run_shard` in the driver, in one attempt, straight into the
destination store, and nothing is merged (a journal still gets its
payload). Every other run goes through
:class:`~repro.fleet.supervisor.FleetSupervisor`, the one code path
that runs shard attempts, with stall detection, rescheduling and
quarantine always on. Each attempt is a worker process or, where
spawn is unavailable, runs inline; either way it writes the shard's
canonical journal files.

Because shard files are the transport, every multi-shard run
journals: into ``journal_dir`` when given, otherwise into a private
temporary directory that the run removes before it returns.

Crash safety (:mod:`repro.faults`): a worker that raises, is killed
outright or hangs costs only its own attempt; the supervisor re-runs
the shard up to ``max_attempts`` times. A shard that runs out of
attempts is quarantined: the driver records a :class:`ShardFailure`
for it and merges every completed shard into a partial-but-valid
store. With a caller's journal directory the finished shards' payloads
outlive the run, so a later ``resume=True`` run re-simulates *only*
the quarantined or missing shards and converges on the exact store a
fault-free run produces.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from ..corpus.config import CorpusConfig
from ..corpus.generator import (Corpus, PipelineRecord, pipeline_rng,
                                print_progress, simulate_pipelines)
from ..faults.injector import WorkerCrashError, WorkerHangError
from ..faults.journal import (ShardJournal, config_fingerprint, shard_db_path,
                              spans_path, write_shard_payload)
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.retry import RetryPolicy
from ..mlmd import MetadataStore
from ..mlmd.sqlite_store import append_store
from ..obs.fleetwatch import DEFAULT_STALL_AFTER, ShardHeartbeat
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, get_registry, set_registry
from ..obs.tracing import TraceContext, Tracer, get_tracer, set_tracer, span

__all__ = [
    "FleetReport",
    "ShardFailure",
    "ShardResult",
    "ShardSpec",
    "classify_failure",
    "generate_corpus_fleet",
    "pipeline_rng",
    "plan_shards",
    "run_shard",
]

_log = get_logger("fleet.workers")


@dataclass(frozen=True)
class ShardSpec:
    """One worker's contiguous slice of global pipeline indices."""

    shard_index: int
    start: int
    stop: int

    @property
    def n_pipelines(self) -> int:
        """Pipelines in this shard."""
        return self.stop - self.start


def plan_shards(n_pipelines: int, workers: int) -> list[ShardSpec]:
    """Partition ``range(n_pipelines)`` into contiguous balanced shards.

    Contiguity matters: merging contiguous shards in shard order
    reproduces the sequential (workers=1) id assignment exactly.
    """
    if n_pipelines < 1:
        raise ValueError("n_pipelines must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, n_pipelines)
    base, extra = divmod(n_pipelines, workers)
    shards = []
    start = 0
    for shard_index in range(workers):
        size = base + (1 if shard_index < extra else 0)
        shards.append(ShardSpec(shard_index=shard_index, start=start,
                                stop=start + size))
        start += size
    return shards


@dataclass
class ShardResult:
    """What one worker returns: its pipeline records and tallies.

    The shard's rows are not in here: they are in the ``shard-NNNN.db``
    the worker wrote into the journal, or already in the destination
    store when the shard simulated straight into it.
    """

    spec: ShardSpec
    records: list[PipelineRecord]
    cache_hits: int = 0
    cache_misses: int = 0
    saved_cpu_hours: float = 0.0
    instruments: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    phase_seconds: dict = field(default_factory=dict)
    finished_unix: float = 0.0
    spans: list[dict] = field(default_factory=list)
    trace_meta: dict = field(default_factory=dict)
    transfer_seconds: float = 0.0


@dataclass(frozen=True)
class ShardFailure:
    """Structured record of one shard the fleet run could not complete."""

    shard_index: int
    start: int
    stop: int
    kind: str  # worker_crash | worker_hang | worker_killed | error
    message: str

    @property
    def n_pipelines(self) -> int:
        """Pipelines missing from the merged store because of this."""
        return self.stop - self.start


def classify_failure(exc: Exception) -> tuple[str, str]:
    """``(kind, message)`` of the exception that lost a shard attempt.

    :class:`WorkerHangError` subclasses :class:`WorkerCrashError`, so it
    is matched first. Any other exception is a worker bug (``error``);
    only that kind is not counted as a crash in the journal.
    """
    if isinstance(exc, WorkerHangError):
        return "worker_hang", str(exc)
    if isinstance(exc, WorkerCrashError):
        return "worker_crash", str(exc)
    return "error", f"{type(exc).__name__}: {exc}"


def _maybe_worker_fault(fault: FaultSpec | None, spec: ShardSpec,
                        completed: int) -> None:
    """Fire an injected worker fault once ``completed`` pipelines ran
    (never after the shard's last pipeline).

    Crash ``mode="kill"`` dies with ``os._exit``; a ``worker_hang``
    stops making progress (and heartbeating) forever — the shape of
    failure only a supervisor's stall detection can end. Both are
    worker-process-only: inline shards degrade to raising
    (:class:`WorkerCrashError` / :class:`WorkerHangError`) so a
    single-process run never takes the driver down — or hangs it.
    """
    if fault is None or completed != fault.after_pipelines \
            or completed >= spec.n_pipelines:
        return
    in_worker = multiprocessing.parent_process() is not None
    if fault.kind is FaultKind.WORKER_HANG:
        if in_worker:
            while True:  # Alive but silent, until SIGTERM.
                time.sleep(3600)
        raise WorkerHangError(
            spec.shard_index,
            f"injected worker hang in shard {spec.shard_index} after "
            f"{completed} pipeline(s)")
    if fault.mode == "kill" and in_worker:
        os._exit(17)
    raise WorkerCrashError(
        spec.shard_index,
        f"injected worker crash in shard {spec.shard_index} after "
        f"{completed} pipeline(s)")


def _new_store(telemetry: bool) -> MetadataStore:
    """An empty store, with a provenance sink when ``telemetry``."""
    store = MetadataStore()
    if telemetry:
        from ..obs.provenance import attach_sink
        attach_sink(store)
    return store


def run_shard(spec: ShardSpec, config: CorpusConfig,
              telemetry: bool = False,
              exec_cache: bool = False,
              fault_plan: FaultPlan | None = None,
              retry_policy: RetryPolicy | None = None,
              journal_dir: str | Path | None = None,
              allow_crash: bool = True,
              trace_ctx: TraceContext | None = None,
              attempt: int = 1,
              store: MetadataStore | None = None) -> ShardResult:
    """Simulate one shard into a private store (worker entry point).

    Runs in a worker process (or inline): installs a fresh registry,
    simulates pipelines ``[spec.start, spec.stop)`` each on its derived
    rng, writes the store to ``shard-NNNN.db`` in ``journal_dir`` and
    returns the records and tallies. Given a ``store`` (the caller's
    destination, telemetry sink already attached), the shard simulates
    straight into it instead of a private store.

    With a ``fault_plan``, each pipeline gets its plan-derived fault
    injector (seeded by global index — shard-invariant), and a
    ``worker_crash`` rule targeting this shard kills the worker after
    its ``after_pipelines``-th pipeline (``allow_crash=False`` disarms
    it, e.g. on resume after the journal already saw the crash). With
    a ``journal_dir``, the finished shard's store and tallies are
    persisted there before returning — measured as the ``serialize``
    phase; a crashed worker leaves no payload, only the driver-side
    failure entry — and the shard heartbeats progress into
    ``shard-NNNN.status.json`` for ``repro fleet-status``. Without a
    ``journal_dir`` or a ``store`` the rows are dropped and only the
    tallies return. With a ``trace_ctx``, a fresh worker tracer records
    the shard's spans for driver-side adoption.

    ``attempt`` is supervision provenance: attempt numbers > 1 (a
    supervisor's reschedule) tag the heartbeat worker name so
    ``fleet-status`` shows *which* attempt is beating. The simulation
    itself is attempt-invariant — every attempt derives the same
    per-pipeline rngs, which is what makes a reschedule byte-identical
    to a first try.
    """
    started = perf_counter()
    worker_fault = None
    if fault_plan is not None and allow_crash:
        worker_fault = fault_plan.worker_fault(spec.shard_index)
    worker_name = f"shard-{spec.shard_index:04d}" \
        + (f"#a{attempt}" if attempt > 1 else "")
    heartbeat = None
    if journal_dir is not None:
        heartbeat = ShardHeartbeat(journal_dir, spec.shard_index,
                                   spec.n_pipelines, worker=worker_name)
    previous_registry = set_registry(MetricsRegistry())
    worker_tracer = Tracer(context=trace_ctx) if trace_ctx else None
    previous_tracer = set_tracer(worker_tracer) if worker_tracer else None
    phases: dict[str, float] = {}
    completed = 0
    try:
        registry = get_registry()
        if store is None:
            store = _new_store(telemetry)
        records = []
        hits = misses = 0
        saved = 0.0
        if heartbeat is not None:
            heartbeat.beat("simulate", 0, force=True)
        with span("fleet.shard", shard_index=spec.shard_index,
                  start=spec.start, stop=spec.stop):
            sim_started = perf_counter()
            with span("fleet.shard.simulate",
                      pipelines=spec.n_pipelines):
                _maybe_worker_fault(worker_fault, spec, 0)
                for record, cache in simulate_pipelines(
                        store, config, spec.start, spec.stop,
                        exec_cache=exec_cache, fault_plan=fault_plan,
                        retry_policy=retry_policy):
                    records.append(record)
                    completed = len(records)
                    if cache is not None:
                        hits += cache.hits
                        misses += cache.misses
                        saved += cache.saved_cpu_hours
                    if heartbeat is not None:
                        heartbeat.beat("simulate", completed)
                    _maybe_worker_fault(worker_fault, spec, completed)
            phases["simulate"] = perf_counter() - sim_started
            # Instruments snapshot *here*: the shard-file write below
            # must not leak into the folded tallies (resumed and fresh
            # merges must fold identical numbers).
            instruments = registry.state_records()
            if journal_dir is not None:
                heartbeat.beat("serialize", spec.n_pipelines, force=True)
                ser_started = perf_counter()
                with span("fleet.shard.serialize"):
                    write_shard_payload(
                        journal_dir, spec.shard_index, store,
                        dict(records=records, cache_hits=hits,
                             cache_misses=misses, saved_cpu_hours=saved,
                             instruments=instruments,
                             elapsed_seconds=perf_counter() - started,
                             phase_seconds=dict(phases),
                             finished_unix=time.time()))
                phases["serialize"] = perf_counter() - ser_started
        span_records: list[dict] = []
        trace_meta: dict = {}
        if worker_tracer is not None:
            span_records = worker_tracer.span_records()
            trace_meta = {"epoch": worker_tracer.epoch,
                          "worker": worker_name,
                          "trace_id": trace_ctx.trace_id}
            if journal_dir is not None:
                worker_tracer.export_jsonl(
                    spans_path(journal_dir, spec.shard_index))
        if heartbeat is not None:
            heartbeat.beat("done", spec.n_pipelines, force=True)
        return ShardResult(
            spec=spec, records=records, cache_hits=hits,
            cache_misses=misses, saved_cpu_hours=saved,
            instruments=instruments,
            elapsed_seconds=perf_counter() - started,
            phase_seconds=phases,
            finished_unix=time.time(),
            spans=span_records, trace_meta=trace_meta)
    except Exception as exc:
        # Dying-breath heartbeat: a shard that raises reports *failed*
        # right now, so the driver (and fleet-status) never has to
        # wait out the stall threshold to learn a worker is gone.
        if heartbeat is not None:
            heartbeat.beat("failed", completed, force=True,
                           error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        set_registry(previous_registry)
        if previous_tracer is not None:
            set_tracer(previous_tracer)


@dataclass
class FleetReport:
    """Roll-up of one fleet generation run."""

    workers: int
    shards: list[ShardSpec]
    pipelines: int
    exec_cache: bool
    cache_hits: int = 0
    cache_misses: int = 0
    saved_cpu_hours: float = 0.0
    wall_seconds: float = 0.0
    shard_seconds: list[float] = field(default_factory=list)
    used_processes: bool = False
    failed_shards: list[ShardFailure] = field(default_factory=list)
    resumed_shards: int = 0
    journal_dir: str = ""
    phase_seconds: dict = field(default_factory=dict)
    snapshot_bytes: int = 0
    merge_rows: int = 0
    spans_adopted: int = 0
    #: :class:`~repro.fleet.supervisor.DegradationReport` of the
    #: supervisor (None when no shard ran under it: a one-shard plan,
    #: or nothing left to run).
    degradation: object | None = None

    @property
    def cache_hit_rate(self) -> float:
        """Hits over cacheable executions (0.0 when cache disabled)."""
        seen = self.cache_hits + self.cache_misses
        return self.cache_hits / seen if seen else 0.0

    @property
    def merge_rows_per_sec(self) -> float:
        """Merge re-insert throughput (0.0 before any merge)."""
        elapsed = self.phase_seconds.get("merge", 0.0)
        return self.merge_rows / elapsed if elapsed > 0 else 0.0

    def phase_breakdown(self) -> dict:
        """Coordinator wall-clock by phase, with the unattributed
        remainder as ``other`` — sums to ``wall_seconds``."""
        named = {k: v for k, v in self.phase_seconds.items()}
        named["other"] = max(
            0.0, self.wall_seconds - sum(self.phase_seconds.values()))
        return named

    @property
    def complete(self) -> bool:
        """Whether every shard made it into the merged store."""
        return not self.failed_shards

    @property
    def missing_pipelines(self) -> int:
        """Pipelines absent from the merged store (failed shards)."""
        return sum(f.n_pipelines for f in self.failed_shards)


@contextlib.contextmanager
def _timed_phase(phases: dict, name: str, **attrs):
    """Time one coordinator phase into ``phases`` under a fleet span."""
    with span(f"fleet.{name}", **attrs):
        phase_started = perf_counter()
        try:
            yield
        finally:
            phases[name] = (phases.get(name, 0.0)
                            + perf_counter() - phase_started)


def _load_shard_spans(journal_dir: Path,
                      shard_index: int) -> tuple[list[dict], dict]:
    """Reload a resumed shard's journaled spans (empty if never traced).

    The first line of ``shard-NNNN.spans.jsonl`` is the trace header
    (worker name + epoch); span lines follow. A torn or missing file
    degrades to no spans — resume never fails on telemetry.
    """
    path = spans_path(journal_dir, shard_index)
    spans: list[dict] = []
    meta: dict = {}
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return spans, meta
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        if record.get("kind") == "trace_header":
            meta = {"epoch": record.get("epoch"),
                    "worker": record.get("worker", ""),
                    "trace_id": record.get("trace_id", "")}
        elif record.get("kind") == "span":
            spans.append(record)
    return spans, meta


def generate_corpus_fleet(config: CorpusConfig | None = None,
                          workers: int = 1,
                          exec_cache: bool = False,
                          telemetry: bool = False,
                          progress: bool = False,
                          in_process: bool = False,
                          fault_plan: FaultPlan | None = None,
                          retry_policy: RetryPolicy | None = None,
                          journal_dir: str | Path | None = None,
                          resume: bool = False,
                          supervise: bool = True,
                          max_attempts: int = 3,
                          stall_after: float | None = None,
                          fault_budget: int | None = None
                          ) -> tuple[Corpus, FleetReport]:
    """Generate a corpus by sharded (optionally parallel) simulation.

    Deterministic given ``config.seed`` for *any* ``workers`` value:
    the merged store is identical (same ids, same rows) whether one
    worker or eight simulated it. With ``exec_cache=True`` every runner
    carries a content-addressed
    :class:`~repro.fleet.cache.ExecutionCache` and redundant
    re-executions are replayed as ``CACHED`` executions.

    Args:
        config: Corpus configuration (default ``CorpusConfig()``).
        workers: Shard count; ``> 1`` simulates shards in worker
            processes (falling back to in-process when spawn fails).
        exec_cache: Enable the content-addressed execution cache.
        telemetry: Attach a provenance sink to the destination store:
            every execution gains a joinable telemetry row, and the
            run's metrics snapshot is persisted at the end — the input
            ``repro diagnose`` / ``repro dashboard`` query.
        progress: Print the classic progress line per merged shard.
        in_process: Force inline shard execution even for workers > 1
            (deterministic tests without process spawn overhead).
        fault_plan: Seeded :class:`~repro.faults.FaultPlan`; operator
            faults flow into every runner, ``worker_crash`` rules kill
            their target shard's worker.
        retry_policy: :class:`~repro.faults.RetryPolicy` honored by
            every runner (each attempt its own execution).
        journal_dir: Directory for the per-shard journal; enables
            crash-safe resume (see :mod:`repro.faults.journal`). A
            multi-shard run without one journals into a private
            temporary directory that is gone when the run returns.
        resume: Reuse completed shards from ``journal_dir`` and
            re-simulate only failed/missing ones. Requires a journal
            written by a run with the identical config and plan.
        supervise: Accepted for old callers; every multi-shard run is
            supervised. ``False`` raises :class:`ValueError`.
        max_attempts: Attempts per shard before it is quarantined for
            this run. ``1`` fails a shard at its first failure and
            leaves a partial run for ``resume=True``.
        stall_after: Seconds without a heartbeat before a worker
            counts as hung (also recorded in the journal manifest so
            ``fleet-status`` uses the same threshold). ``None`` uses
            :data:`~repro.obs.fleetwatch.DEFAULT_STALL_AFTER`.
        fault_budget: Cap on total reschedules; exhaustion
            quarantines remaining failures — fail-fast on systemic
            breakage. ``None`` is unlimited.

    Returns:
        The merged :class:`Corpus` plus a :class:`FleetReport`. A run
        with failed shards still returns a valid (partial) corpus;
        inspect ``report.failed_shards`` / ``report.complete`` and
        ``report.degradation``.
    """
    from .supervisor import FleetSupervisor, SupervisorPolicy

    config = config or CorpusConfig()
    if resume and journal_dir is None:
        raise ValueError("resume=True requires a journal_dir")
    if not supervise:
        raise ValueError(
            "every multi-shard run is supervised; pass max_attempts=1 "
            "to fail a shard at its first failure and leave a partial "
            "run for resume=True")
    if stall_after is None:
        stall_after = DEFAULT_STALL_AFTER
    policy = SupervisorPolicy(max_attempts=max_attempts,
                              stall_after=stall_after,
                              fault_budget=fault_budget)
    started = perf_counter()
    tracer = get_tracer()
    registry = get_registry()
    phases: dict[str, float] = {}
    trace_id = uuid.uuid4().hex[:16] if tracer.enabled else ""
    with span("fleet.run", pipelines=config.n_pipelines,
              workers=workers, trace_id=trace_id) as run_span:
        results: dict[int, ShardResult] = {}
        failures: dict[int, ShardFailure] = {}
        to_run: list[ShardSpec] = []
        resumed = 0
        with _timed_phase(phases, "plan"):
            shards = plan_shards(config.n_pipelines, workers)
            journal = scratch = None
            if journal_dir is None and len(shards) > 1:
                # Shards travel home as their sqlite files, so every
                # merge needs a journal: a private one when none is given
                # (removed in finalize, or by its finalizer on a raise).
                scratch = tempfile.TemporaryDirectory(prefix="repro-fleet-")
                journal_dir = Path(scratch.name) / "journal"
            if journal_dir is not None:
                fingerprint = config_fingerprint(
                    config, shards, exec_cache=exec_cache,
                    telemetry=telemetry, fault_plan=fault_plan,
                    retry_policy=retry_policy)
                journal = ShardJournal(journal_dir, fingerprint)
                journal.open(shards, resume=resume,
                             meta={"stall_after": stall_after})
            _log.info("fleet_generation_started",
                      pipelines=config.n_pipelines, workers=len(shards),
                      seed=config.seed, exec_cache=exec_cache,
                      resume=resume,
                      faults=len(fault_plan.specs) if fault_plan else 0)
            for spec in shards:
                if resume and journal.is_done(spec.shard_index):
                    result = ShardResult(
                        spec=spec,
                        **journal.load_payload(spec.shard_index, config))
                    result.spans, result.trace_meta = _load_shard_spans(
                        journal.directory, spec.shard_index)
                    results[spec.shard_index] = result
                    resumed += 1
                else:
                    to_run.append(spec)
            if resumed:
                _log.info("fleet_shards_resumed", resumed=resumed,
                          re_running=len(to_run))

        # An injected crash fires once per journal: a shard whose entry
        # already counted a crash runs disarmed on resume.
        allow_crash = {
            spec.shard_index:
                journal is None
                or journal.entry(spec.shard_index).crashes == 0
            for spec in to_run
        }
        payload_dir = journal.directory if journal is not None else None

        def trace_ctx_for(spec: ShardSpec,
                          attempt: int = 1) -> TraceContext | None:
            if not tracer.enabled:
                return None
            worker = f"shard-{spec.shard_index:04d}" \
                + (f"#a{attempt}" if attempt > 1 else "")
            return TraceContext(trace_id=trace_id,
                                root_span_id=run_span.span_id,
                                worker=worker)

        store = _new_store(telemetry)
        # A one-shard plan with something to run simulates in the
        # driver, in one attempt, straight into the destination store:
        # there is nothing to merge.
        direct = shards[0] if len(shards) == 1 and to_run else None
        used_processes = False
        degradation = None
        with _timed_phase(phases, "simulate", shards=len(to_run)):
            if direct is not None:
                try:
                    result = run_shard(
                        direct, config, telemetry, exec_cache, fault_plan,
                        retry_policy, payload_dir, allow_crash[0],
                        trace_ctx=trace_ctx_for(direct), store=store)
                except Exception as exc:  # A worker bug loses the shard.
                    store = _new_store(telemetry)  # Drop partial rows.
                    kind, message = classify_failure(exc)
                    failures[0] = ShardFailure(0, direct.start,
                                               direct.stop, kind, message)
                    if journal is not None:
                        journal.record_failure(0, kind, message,
                                               crashed=kind != "error")
                    _log.warning("fleet_shard_failed", shard=0,
                                 kind=kind, reason=message)
                else:
                    results[0] = result
                    if journal is not None:
                        journal.record_done(0)
            elif to_run:
                supervisor = FleetSupervisor(
                    config, journal, policy,
                    telemetry=telemetry, exec_cache=exec_cache,
                    fault_plan=fault_plan, retry_policy=retry_policy,
                    trace_ctx_for=trace_ctx_for, in_process=in_process)
                sup_results, sup_failures, degradation = supervisor.run(
                    to_run, allow_crash,
                    planned_pipelines=config.n_pipelines,
                    planned_shards=len(shards),
                    pre_merged_pipelines=sum(
                        r.spec.n_pipelines for r in results.values()))
                results.update(sup_results)
                failures.update(sup_failures)
                used_processes = supervisor.used_processes

        corpus = Corpus(store=store, config=config)
        report = FleetReport(workers=len(shards), shards=shards,
                             pipelines=config.n_pipelines,
                             exec_cache=exec_cache,
                             used_processes=used_processes,
                             resumed_shards=resumed,
                             degradation=degradation,
                             journal_dir=str(journal.directory)
                             if journal is not None and scratch is None
                             else "")
        done = 0
        # Merge in shard order: contiguous shards appended in order
        # give the same global id assignment as a single-worker run.
        # Failed shards are skipped — the merged store stays valid,
        # just partial.
        with _timed_phase(phases, "merge"):
            for spec in shards:
                result = results.get(spec.shard_index)
                if result is None:
                    continue
                shard_bytes = 0
                if spec is not direct:
                    shard_db = shard_db_path(journal.directory,
                                             spec.shard_index)
                    shard_bytes = shard_db.stat().st_size
                    maps = append_store(shard_db, store)
                    report.merge_rows += maps.rows
                    for record in result.records:
                        record.context_id = maps.contexts[
                            record.context_id]
                corpus.records.extend(result.records)
                registry.fold(result.instruments)
                _record_shard_dataplane(registry, result, shard_bytes)
                if tracer.enabled:
                    if result.spans:
                        report.spans_adopted += tracer.adopt_spans(
                            result.spans,
                            epoch=result.trace_meta.get("epoch"),
                            default_parent_id=run_span.span_id,
                            worker=result.trace_meta.get("worker", ""))
                    else:
                        _log.warning("fleet_shard_telemetry_missing",
                                     shard=spec.shard_index,
                                     reason="no spans returned")
                report.cache_hits += result.cache_hits
                report.cache_misses += result.cache_misses
                report.saved_cpu_hours += result.saved_cpu_hours
                report.shard_seconds.append(result.elapsed_seconds)
                report.snapshot_bytes += shard_bytes
                done += result.spec.n_pipelines
                if progress:
                    # Fleet progress is shard-granular: one line per merge.
                    print_progress(done, config.n_pipelines, store)

        with _timed_phase(phases, "finalize"):
            if scratch is not None:
                scratch.cleanup()
            report.failed_shards = [failures[i] for i in sorted(failures)]
            if telemetry and store.telemetry_sink is not None:
                # The fleet-level instrument snapshot (with folded-in
                # shard tallies) persists into the merged store,
                # mirroring the sequential generator's end-of-run
                # registry record.
                store.telemetry_sink.record_registry(registry)

    report.phase_seconds = phases
    report.wall_seconds = perf_counter() - started
    for name, seconds in report.phase_breakdown().items():
        registry.gauge("fleet.phase_seconds", phase=name).set(seconds)
    registry.gauge("fleet.merge.rows_per_sec").set(
        report.merge_rows_per_sec)
    if report.failed_shards:
        _log.warning("fleet_generated_partial",
                     merged=len(corpus.records),
                     missing=report.missing_pipelines,
                     failed_shards=len(report.failed_shards))
    _log.info("fleet_generated", pipelines=len(corpus.records),
              executions=store.num_executions, workers=len(shards),
              used_processes=used_processes,
              cache_hits=report.cache_hits,
              saved_cpu_hours=round(report.saved_cpu_hours, 3),
              wall_seconds=round(report.wall_seconds, 3))
    return corpus, report


def _record_shard_dataplane(registry: MetricsRegistry,
                            result: ShardResult, shard_bytes: int) -> None:
    """Record one shard's data-plane costs into the fleet registry.

    These are coordinator-side instruments (the worker's own registry
    was already snapshotted before the shard file was written), so the
    fleet timeline carries shard-file write time, shard-file size and
    result-transfer distributions per shard without double-counting
    worker-side instruments.

    Every shard records all three histograms so the instrument set —
    and therefore the telemetry rows a sink persists — is invariant to
    worker count: inline shards observe a 0-second transfer, and a
    shard simulated straight into the destination store merges no file
    (0 bytes), and without a journal writes none in 0 seconds.
    """
    registry.histogram("fleet.shard.serialize_seconds").record(
        result.phase_seconds.get("serialize", 0.0))
    registry.histogram("fleet.shard.snapshot_bytes").record(shard_bytes)
    registry.histogram("fleet.shard.transfer_seconds").record(
        result.transfer_seconds or 0.0)
