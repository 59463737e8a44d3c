"""The three workloads: their seeded inputs, measured chains and checks.

Inputs. The program receives only a :class:`CorpusConfig`. The paper's
corpus is heavy-tailed by design: one pipeline's feature count is
lognormal with a 3% Pareto tail up to 50k features, and its lifespan
and cadence are lognormal mixtures. Drawn as-is, two seeds' corpora of
the same pipeline count differ 2-5x in work (a single 50k-feature
pipeline takes ~19 s to simulate), so a per-seed wall time would measure
the seed, not the program. Each workload therefore pins the knobs that
set how many runs a pipeline makes (:data:`STEADY_SHAPE`) and screens
corpus seeds: starting from the benchmark seed, it takes the first
candidate whose pipelines all have at most :data:`MAX_FEATURES` features
and whose predicted simulation and similarity work both lie within
:data:`WORK_TOLERANCE` of the workload's targets. The prediction
replays each pipeline's archetype draw, which the fleet generator makes
from a per-pipeline seed, so screening simulates nothing and takes
under two seconds.

Chains. Each chain calls the program's public functions in order and
returns the outputs the checks read. ``rec`` records a span around each
call in the traced run and does nothing in the untraced one.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from repro.analysis import full_report, segment_production_pipelines
from repro.corpus import CorpusConfig
from repro.corpus.archetypes import build_pipeline
from repro.corpus.config import CadenceMixture, LifespanModel, \
    MechanismConfig
from repro.corpus.generator import Corpus, sample_pipeline_plan
from repro.faults import FaultPlan, RetryPolicy
from repro.fleet import generate_corpus_fleet
from repro.fleet.workers import pipeline_rng
from repro.mlmd.lineage import downstream_executions, upstream_executions
from repro.mlmd.sqlite_store import (SqliteStore, integrity_check,
                                     load_store, save_store)
from repro.query import MetadataClient, as_client
from repro.waste import (build_waste_dataset, evaluate_policies,
                         feature_cost_index, train_all_variants)

from checks import check_outputs, digest_checks

#: Knobs that give every pipeline exactly ``max_graphlets_per_pipeline``
#: training runs and make it reach production: a full-span lifespan, a
#: narrow ~2.7/day cadence, rolling windows without same-window retrains
#: or warm starts, and a blessing bar every model clears (pushes are then
#: gated by deployment throttling only).
STEADY_SHAPE = dict(
    cadence=CadenceMixture(slow_weight=1.0, slow_mu=1.0, slow_sigma=0.3,
                           fast_weight=0.0, extreme_weight=0.0),
    lifespan=LifespanModel(min_days=130.0, max_days=130.0),
    p_tumbling_window=0.0,
    p_retrain_same_window=0.0,
    warmstart_fraction=0.0,
    mechanism=MechanismConfig(blessing_margin=1.0),
)

#: Pipelines above this feature count are screened out: statistics are
#: capped at 256 features but drift is simulated over all of them.
MAX_FEATURES = 256
#: Largest relative distance of a corpus's predicted work from target.
WORK_TOLERANCE = 0.03
#: Predicted work of one node execution is ``FEATURE_OFFSET + features``
#: units: fitted on single-pipeline generation times, a node costs a
#: fixed part worth ~5 features plus a part linear in its features.
FEATURE_OFFSET = 5.4
#: Pipelines of a fixed seed whose mean predicted work sets the target.
REFERENCE_SEED = 2021
REFERENCE_PIPELINES = 256
#: Candidate corpus seeds tried per benchmark seed before giving up.
MAX_CANDIDATES = 100_000

#: Lineage queries per fleet_ingest chain, and how often one is
#: re-answered from the in-memory store to check it.
LINEAGE_QUERIES = 20_000
LINEAGE_CHECK_EVERY = 50
#: Fault plan of fleet_ingest: transient operator faults that the retry
#: policy absorbs, and shard 1's worker killed after five pipelines.
FLEET_FAULTS = "transient:*:0.02;worker_crash:1:5:kill"
FLEET_WORKERS = 2


@dataclasses.dataclass(frozen=True)
class Shape:
    """Corpus size of a workload."""

    pipelines: int
    graphlets: int
    window: int


def shaped_config(shape: Shape, seed: int) -> CorpusConfig:
    return CorpusConfig(n_pipelines=shape.pipelines, seed=seed,
                        max_graphlets_per_pipeline=shape.graphlets,
                        max_window_spans=shape.window, **STEADY_SHAPE)


def predicted_work(config: CorpusConfig,
                   index: int) -> tuple[float, float] | None:
    """Predicted ``(simulation, similarity)`` work of pipeline ``index``.

    Replays the generator's run loop on the sampled archetype: warm-up
    ingest runs until the window is full, then training runs up to the
    graphlet cap or the end of the pipeline's lifespan. Simulation work
    grows with runs x nodes x features; similarity work (span digests
    and span-pair terms of every graphlet's window) with graphlets x
    window x features, where each parallel trainer adds a graphlet per
    training run. None if the pipeline is screened out.
    """
    archetype, start = sample_pipeline_plan(
        pipeline_rng(config.seed, index), config, index)
    if archetype.n_features > MAX_FEATURES:
        return None
    end = start + archetype.lifespan_days * 24.0
    now, span_id, trains, runs = start, 0, 0, 0
    cap = config.max_graphlets_per_pipeline
    while now < end and trains < cap:
        runs += 1
        if ((span_id + 1) % archetype.train_every == 0
                and span_id + 1 >= archetype.window_spans):
            trains += 1
            extra = min(archetype.retrains_per_trigger - 1, cap - trains)
            trains += extra
            runs += extra
        span_id += 1
        now += archetype.span_period_hours
    nodes = len(build_pipeline(archetype).nodes)
    graphlets = trains * archetype.n_parallel_trainers
    return (runs * nodes * (FEATURE_OFFSET + archetype.n_features),
            graphlets * archetype.window_spans * archetype.n_features)


def target_work(shape: Shape) -> tuple[float, float]:
    """Mean predicted work of a screened pipeline, times the pipelines."""
    reference = shaped_config(
        dataclasses.replace(shape, pipelines=REFERENCE_PIPELINES),
        REFERENCE_SEED)
    works = [w for w in (predicted_work(reference, i)
                         for i in range(REFERENCE_PIPELINES))
             if w is not None]
    return tuple(statistics.fmean(term) * shape.pipelines
                 for term in zip(*works))


def screened_config(shape: Shape, seed: int) -> CorpusConfig:
    """The first candidate corpus of ``seed`` whose work is on target."""
    targets = target_work(shape)
    for candidate in range(MAX_CANDIDATES):
        config = shaped_config(shape, seed * MAX_CANDIDATES + candidate)
        totals = [0.0] * len(targets)
        for index in range(shape.pipelines):
            work = predicted_work(config, index)
            if work is None:
                break
            totals = [t + w for t, w in zip(totals, work)]
        else:
            if all(abs(t / target - 1.0) <= WORK_TOLERANCE
                   for t, target in zip(totals, targets)):
                return config
    raise RuntimeError(f"no corpus within {WORK_TOLERANCE:.0%} of the "
                       f"target work for seed {seed}")


def pipelines_present(store, planned: int) -> int:
    """Pipeline contexts in ``store`` (at most ``planned``)."""
    return min(len(as_client(store).contexts("Pipeline")), planned)


def _db_rows(store) -> int:
    return (store.num_artifacts + store.num_executions + store.num_events
            + store.num_telemetry)


class Outcome:
    """One chain's outputs, then its checks and operation counts."""

    def __init__(self, outputs: dict) -> None:
        self.outputs = outputs
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        #: Per-layer counts and rates the traced run reports.
        self.facts: dict[str, float] = {}

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, results: dict[str, bool]) -> None:
        self.checks.update(results)
        self.count(len(results), sum(not ok for ok in results.values()))


class Workload:
    """A named workload: its shape, set-up, measured chain and checks.

    :meth:`chain` is timed; :meth:`verify` runs after it, untimed, and
    counts every planned pipeline, lineage query and output check.
    """

    name = ""
    why = ""
    shape: Shape

    def __init__(self, seed: int, workdir: Path, reference: dict) -> None:
        self.workdir = workdir
        self.reference = reference
        self.config = screened_config(self.shape, seed)

    def setup(self) -> None:
        """Work done before the measured chain (timed as ``setup_s``)."""

    def chain(self, rec) -> Outcome:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> None:
        """Checks of a paper-path chain: pipelines, invariants, digests."""
        outputs = outcome.outputs
        planned = self.config.n_pipelines
        outcome.count(planned,
                      planned - pipelines_present(outputs["store"], planned))
        outcome.check(check_outputs(outputs, self.reference))
        outcome.facts.update(
            graphlets=sum(len(g) for g in outputs["graphlets"].values()),
            rows=outputs["dataset"].n_rows,
            db_mb=outputs["db"].stat().st_size / 2**20)


class PaperE2E(Workload):
    name = "paper_e2e"
    why = ("the whole paper path in one process; waste training and the "
           "forest dominate")
    shape = Shape(pipelines=60, graphlets=8, window=15)

    def chain(self, rec) -> Outcome:
        db = self.workdir / "paper.db"
        with rec.span("corpus.generate"):
            corpus, _ = generate_corpus_fleet(self.config, workers=1)
        with rec.span("mlmd.save"):
            save_store(corpus.store, db)
        with rec.span("mlmd.load"):
            loaded = Corpus.from_store(load_store(db))
        with rec.span("graphlets.segment"):
            graphlets = segment_production_pipelines(loaded)
        with rec.span("analysis.full_report"):
            report = full_report(loaded, graphlets)
        with rec.span("waste.dataset"):
            dataset = build_waste_dataset(graphlets)
        with rec.span("waste.train"):
            policies = train_all_variants(dataset, n_estimators=60)
        with rec.span("waste.evaluate"):
            evaluation = evaluate_policies(policies,
                                           feature_cost_index(dataset))
        outcome = Outcome(dict(
            report=report, dataset=dataset, evaluation=evaluation,
            graphlets=graphlets, store=loaded.store, db=db))
        outcome.facts.update(executions=corpus.store.num_executions,
                             db_rows=2 * _db_rows(loaded.store))
        return outcome


class AnalysisScale(Workload):
    name = "analysis_scale"
    why = ("the read side on a larger saved corpus; similarity dominates "
           "and nothing is generated or trained")
    shape = Shape(pipelines=80, graphlets=10, window=30)

    def setup(self) -> None:
        corpus, _ = generate_corpus_fleet(self.config,
                                          workers=FLEET_WORKERS)
        self.db = self.workdir / "analysis.db"
        save_store(corpus.store, self.db)

    def chain(self, rec) -> Outcome:
        with rec.span("mlmd.load"):
            loaded = Corpus.from_store(load_store(self.db))
        with rec.span("graphlets.segment"):
            graphlets = segment_production_pipelines(loaded)
        with rec.span("analysis.full_report"):
            report = full_report(loaded, graphlets)
        with rec.span("waste.dataset"):
            dataset = build_waste_dataset(graphlets)
        outcome = Outcome(dict(report=report, dataset=dataset,
                               graphlets=graphlets, store=loaded.store,
                               db=self.db))
        outcome.facts.update(db_rows=_db_rows(loaded.store))
        return outcome


class FleetIngest(Workload):
    name = "fleet_ingest"
    why = ("the write side: a supervised 2-worker fleet with faults, the "
           "sqlite store, then lineage reads; no similarity or training")
    shape = Shape(pipelines=48, graphlets=20, window=15)

    def __init__(self, seed: int, workdir: Path, reference: dict) -> None:
        super().__init__(seed, workdir, reference)
        self.fault_plan = FaultPlan.parse(FLEET_FAULTS,
                                          seed=self.config.seed)
        self.retry_policy = RetryPolicy(max_attempts=3)
        self.reps = 0

    def chain(self, rec) -> Outcome:
        self.reps += 1
        repdir = self.workdir / f"fleet-{self.reps}"
        repdir.mkdir()
        db = repdir / "fleet.db"
        with rec.span("corpus.generate"):
            corpus, report = generate_corpus_fleet(
                self.config, workers=FLEET_WORKERS,
                fault_plan=self.fault_plan,
                retry_policy=self.retry_policy,
                journal_dir=repdir / "journal", supervise=True)
            rec.end_pending()
        with rec.span("mlmd.save"):
            save_store(corpus.store, db)
        store = SqliteStore(db)
        try:
            with rec.span("query.client_build"):
                client = MetadataClient(store)
            with rec.span("query.segment_corpus"):
                cold = client.segment_corpus()
                warm = client.segment_corpus()
            rng = np.random.default_rng(self.config.seed)
            execution_ids = sorted(e.id for e in client.get_executions())
            picks = rng.choice(execution_ids, size=LINEAGE_QUERIES).tolist()
            latencies = np.empty(LINEAGE_QUERIES)
            sampled = []
            with rec.span("query.lineage"):
                started = time.perf_counter()
                for i, execution_id in enumerate(picks):
                    query = upstream_executions if i % 2 == 0 \
                        else downstream_executions
                    t0 = time.perf_counter_ns()
                    result = query(client, execution_id)
                    latencies[i] = time.perf_counter_ns() - t0
                    if i % LINEAGE_CHECK_EVERY == 0:
                        sampled.append((query, execution_id, result))
                lineage_s = time.perf_counter() - started
            hits, misses = (client.segment_cache_hits,
                            client.segment_cache_misses)
            pipelines = len(client.contexts("Pipeline"))
        finally:
            store.close()
        outcome = Outcome(dict(
            corpus=corpus, fleet_report=report, db=db, repdir=repdir,
            cold=cold, warm=warm, sampled=sampled, pipelines=pipelines))
        outcome.facts.update(
            executions=corpus.store.num_executions,
            db_rows=_db_rows(corpus.store),
            merge_rows=report.merge_rows,
            segment_cache_hit_ratio=hits / (hits + misses)
            if hits + misses else 0.0,
            lineage_queries_per_s=LINEAGE_QUERIES / lineage_s,
            lineage_p50_us=float(np.percentile(latencies, 50)) / 1e3,
            lineage_p99_us=float(np.percentile(latencies, 99)) / 1e3)
        return outcome

    def verify(self, outcome: Outcome) -> None:
        """Store integrity, the plan's exact partition, every pipeline
        present, a sample of lineage answers re-derived from the
        in-memory store, and their digest at the default seed."""
        outputs = outcome.outputs
        memory = as_client(outputs["corpus"].store)
        wrong = sum(query(memory, eid) != result
                    for query, eid, result in outputs["sampled"])
        outcome.count(LINEAGE_QUERIES, wrong)
        planned = self.config.n_pipelines
        report = outputs["fleet_report"]
        degradation = report.degradation
        lost = degradation.lost_pipelines
        outcome.count(planned, lost)
        cold, warm = outputs["cold"], outputs["warm"]
        outcome.check({
            "integrity_ok": integrity_check(outputs["db"]).ok,
            "degradation_partitions_plan":
                degradation.merged_pipelines + lost
                == degradation.planned_pipelines == planned,
            "every_pipeline_present": outputs["pipelines"] + lost
            == planned,
            "segment_cache_consistent":
                {cid: len(g) for cid, g in cold.items()}
                == {cid: len(g) for cid, g in warm.items()},
            **digest_checks(outputs, self.reference),
        })
        shard_seconds = report.shard_seconds or [0.0]
        attempts = sum(k * n for k, n in
                       degradation.attempts_histogram.items())
        merged_shards = degradation.planned_shards \
            - len(degradation.quarantined)
        outcome.facts.update(
            db_mb=outputs["db"].stat().st_size / 2**20,
            shard_skew=max(shard_seconds)
            / max(statistics.median(shard_seconds), 1e-9),
            attempts=attempts,
            useful_attempt_ratio=merged_shards / attempts if attempts
            else 0.0,
            lost_cpu_s=degradation.lost_cpu_seconds,
            retried_executions=sum(
                1 for e in memory.get_executions()
                if e.get("retry_of") is not None))
        shutil.rmtree(outputs["repdir"])


WORKLOADS = {w.name: w for w in (PaperE2E, AnalysisScale, FleetIngest)}
