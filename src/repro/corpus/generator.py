"""Corpus generation: simulate every pipeline's life on a shared store.

:func:`simulate_pipelines` is the one simulation loop. Each pipeline
draws from its own stream, :func:`pipeline_rng` of ``(seed, index)``,
so sharded generation (:func:`repro.fleet.generate_corpus_fleet`)
stores the same trace for the same seed at any worker count.

For each pipeline: sample an archetype and schema, then walk its lifespan
on a simulated clock — every tick ingests one span (``ingest`` run) and
every ``train_every``-th tick triggers a full training run whose outcome
hints come from the pipeline's :class:`~repro.corpus.mechanism.PushMechanism`.
The result is a single :class:`~repro.mlmd.MetadataStore` holding every
trace, exactly the shape of the corpus the paper analyzes (Section 2.2),
plus per-pipeline records for ground-truth-aware benches.

The paper's corpus filter — pipelines with at least one trained and one
deployed model — is applied by :attr:`Corpus.production_records`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..data.drift import DriftConfig, DriftProcess
from ..data.generators import (
    CATEGORICAL_FRACTION,
    random_schema,
    sample_feature_count,
    synthetic_span,
)
from ..mlmd import MetadataStore
from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from ..obs.tracing import span
from ..tfx.operators.ingest import MAX_DIGEST_FEATURES
from ..tfx.runtime import PipelineRunner
from .archetypes import PipelineArchetype, build_pipeline, sample_archetype
from .config import CorpusConfig
from .mechanism import PushMechanism

if TYPE_CHECKING:
    from ..fleet.cache import ExecutionCache

_log = get_logger("corpus.generator")

def print_progress(done: int, total: int, store: MetadataStore) -> None:
    """The classic CLI progress line, printed after each merged shard."""
    print(f"generated {done}/{total} pipelines; "
          f"store: {store.num_executions} executions")


@dataclass
class PipelineRecord:
    """One generated pipeline: its archetype, trace handle, and tallies."""

    archetype: PipelineArchetype
    context_id: int
    n_runs: int = 0
    n_train_runs: int = 0
    n_models: int = 0
    n_pushes: int = 0

    @property
    def is_production(self) -> bool:
        """The paper's corpus filter: >= 1 model and >= 1 deployment."""
        return self.n_models >= 1 and self.n_pushes >= 1


@dataclass
class Corpus:
    """A generated corpus: the shared store plus per-pipeline records."""

    store: MetadataStore
    records: list[PipelineRecord] = field(default_factory=list)
    config: CorpusConfig | None = None

    @property
    def production_records(self) -> list[PipelineRecord]:
        """Records passing the production filter (Section 2.2)."""
        return [r for r in self.records if r.is_production]

    @property
    def production_context_ids(self) -> list[int]:
        """Context ids of production pipelines.

        When the corpus was reloaded from disk (no generator records),
        the filter is derived from the trace itself, exactly as the
        paper selects its corpus: pipelines with at least one trained
        model and at least one deployed model.
        """
        if self.records:
            return [r.context_id for r in self.production_records]
        return production_context_ids_from_store(self.store)

    @property
    def client(self):
        """The shared :class:`repro.query.MetadataClient` over the store."""
        from ..query import as_client
        return as_client(self.store)

    @classmethod
    def from_store(cls, store: MetadataStore) -> "Corpus":
        """Wrap a (possibly reloaded) trace store as a corpus."""
        return cls(store=store)


def production_context_ids_from_store(store: MetadataStore) -> list[int]:
    """The paper's corpus filter applied to a bare trace store."""
    from ..query import as_client
    client = as_client(store)
    out = []
    for context in client.contexts("Pipeline"):
        has_model = False
        has_push = False
        for artifact in client.get_artifacts_by_context(context.id):
            if artifact.type_name == "Model":
                has_model = True
            elif artifact.type_name == "PushedModel":
                has_push = True
            if has_model and has_push:
                out.append(context.id)
                break
    return out


def pipeline_rng(seed: int, index: int) -> np.random.Generator:
    """The derived random stream of pipeline ``index``.

    ``SeedSequence(entropy=seed, spawn_key=(index,))`` gives every
    pipeline a statistically independent stream that depends only on
    the corpus seed and the pipeline's global index — never on which
    shard or worker simulates it.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_pipeline_plan(rng: np.random.Generator, config: CorpusConfig,
                         index: int) -> tuple[PipelineArchetype, float]:
    """Sample one pipeline's archetype and corpus start time.

    These are the first draws on a pipeline's rng (feature count,
    categorical fraction, archetype, start time); the simulation
    continues on the same stream. It is public so a caller can replay a
    pipeline's plan without simulating it. Keep the draw order stable:
    every stored corpus depends on it.
    """
    n_features = sample_feature_count(rng)
    categorical_fraction = float(np.clip(
        rng.normal(CATEGORICAL_FRACTION, 0.15), 0.05, 0.95))
    archetype = sample_archetype(rng, config, index, n_features,
                                 categorical_fraction)
    corpus_span_hours = config.corpus_span_days * 24.0
    latest_start = max(corpus_span_hours
                       - archetype.lifespan_days * 24.0, 0.0)
    start_time = float(rng.uniform(0.0, latest_start)) \
        if latest_start > 0 else 0.0
    return archetype, start_time


def _simulate_pipeline(store: MetadataStore, config: CorpusConfig,
                       archetype: PipelineArchetype,
                       rng: np.random.Generator,
                       start_time: float,
                       execution_cache=None,
                       fault_injector=None,
                       retry_policy=None) -> PipelineRecord:
    pipeline = build_pipeline(archetype)
    runner = PipelineRunner(
        pipeline, store, rng, simulation=True,
        cost_model=config.cost_model,
        pipeline_cost_scale=archetype.pipeline_cost_scale,
        execution_cache=execution_cache,
        fault_injector=fault_injector,
        retry_policy=retry_policy)
    schema = random_schema(
        rng, n_features=archetype.n_features,
        categorical_fraction=archetype.categorical_fraction,
        domain_scale=archetype.domain_scale)
    base = config.drift
    m = archetype.drift_multiplier
    drift_config = DriftConfig(
        numeric_mean_step=base.numeric_mean_step * m,
        numeric_scale_step=base.numeric_scale_step * m,
        numeric_weight_step=base.numeric_weight_step * m,
        numeric_offset_step=base.numeric_offset_step * m,
        zipf_step=base.zipf_step * m,
        shock_probability=base.shock_probability,
        shock_scale=base.shock_scale)
    drift = DriftProcess(schema, rng, drift_config)
    mechanism = PushMechanism(archetype, config, rng)
    record = PipelineRecord(archetype=archetype,
                            context_id=runner.context_id)

    now = start_time
    end_time = start_time + archetype.lifespan_days * 24.0
    span_id = 0

    while (now < end_time
           and record.n_train_runs < config.max_graphlets_per_pipeline):
        num_examples = max(int(rng.lognormal(
            np.log(config.span_examples_median),
            config.span_examples_sigma)), 100)
        drifted = drift.step()
        mechanism.note_drift(drift)
        # Cap span statistics to the digested feature prefix for the tail
        # of huge-feature pipelines; the recorded feature_count property
        # stays truthful via the 'true_feature_count' hint below.
        span = synthetic_span(drifted.head(MAX_DIGEST_FEATURES), span_id,
                              num_examples, rng,
                              ingest_time=now,
                              noise=config.statistics_noise)
        # Train only on full windows: continuous pipelines warm up their
        # rolling window before the first model (otherwise early graphlets
        # would share truncated, near-identical span sequences).
        is_train = ((span_id + 1) % archetype.train_every == 0
                    and span_id + 1 >= archetype.window_spans)
        kind = "train" if is_train else "ingest"
        hints = mechanism.begin_run(now, kind, drift)
        hints["new_span"] = span
        hints["true_feature_count"] = archetype.n_features
        report = runner.run(now, kind=kind, hints=hints)
        record.n_runs += 1
        if is_train:
            record.n_train_runs += 1
            mechanism.observe(report, now)
            _tally(record, report)
        # Author-driven retrains on the same window, spread across the
        # remainder of the span period.
        n_retrains = archetype.retrains_per_trigger - 1 if is_train else 0
        retrain_gap = archetype.span_period_hours / max(
            archetype.retrains_per_trigger, 1)
        for retrain_index in range(n_retrains):
            if record.n_train_runs >= config.max_graphlets_per_pipeline:
                break
            retrain_now = now + retrain_gap * (retrain_index + 1)
            hints = mechanism.begin_run(retrain_now, "retrain", drift)
            report = runner.run(retrain_now, kind="retrain", hints=hints)
            record.n_runs += 1
            record.n_train_runs += 1
            mechanism.observe(report, retrain_now)
            _tally(record, report)
        span_id += 1
        now += archetype.span_period_hours
    return record


def _tally(record: PipelineRecord, report) -> None:
    # Teacher trainers (distillation chains) also produce models — each
    # is its own graphlet per the segmentation's Trainer cut.
    record.n_models += sum(
        1 for node_id, ids in report.output_artifact_ids.items()
        if (node_id.startswith("trainer") or node_id.startswith("teacher"))
        and ids)
    record.n_pushes += sum(
        1 for node_id, ids in report.output_artifact_ids.items()
        if node_id.startswith("pusher") and ids)


def simulate_pipelines(store: MetadataStore, config: CorpusConfig,
                       start: int, stop: int,
                       exec_cache: bool = False,
                       fault_plan=None,
                       retry_policy=None
                       ) -> Iterator[tuple[PipelineRecord,
                                           ExecutionCache | None]]:
    """Simulate pipelines ``[start, stop)`` into ``store``, in order.

    Each pipeline runs on :func:`pipeline_rng` of its global index, with
    its own :class:`~repro.fleet.cache.ExecutionCache` when
    ``exec_cache`` is set (pipelines never share artifacts, so
    pipeline-local hits do not depend on the shard layout), its
    plan-derived fault injector and ``retry_policy``. Yields
    ``(record, cache)`` after each pipeline (``cache`` is None without
    ``exec_cache``), so a caller can report progress between pipelines.
    """
    if exec_cache:
        from ..fleet.cache import ExecutionCache
    registry = get_registry()
    pipelines_done = registry.counter("corpus.pipelines_generated")
    for index in range(start, stop):
        rng = pipeline_rng(config.seed, index)
        archetype, start_time = sample_pipeline_plan(rng, config, index)
        cache = ExecutionCache() if exec_cache else None
        injector = (fault_plan.injector(index)
                    if fault_plan is not None else None)
        with span("corpus.pipeline", index=index,
                  archetype=archetype.name), \
                registry.timer("corpus.pipeline_seconds") as timer:
            record = _simulate_pipeline(store, config, archetype, rng,
                                        start_time, execution_cache=cache,
                                        fault_injector=injector,
                                        retry_policy=retry_policy)
        pipelines_done.value += 1
        _log.debug("pipeline_generated", index=index,
                   archetype=archetype.name, runs=record.n_runs,
                   train_runs=record.n_train_runs, seconds=timer.elapsed)
        yield record, cache
