"""Sharded parallel corpus execution with a content-addressed cache.

The subsystem has two parts, surfaced via
``repro generate --workers N --exec-cache``:

* :mod:`repro.fleet.workers` — partition the corpus into per-worker
  shards with derived per-pipeline seeds, simulate each shard in its
  own process and store, write it to a sqlite shard file, and append
  the shard files in order to one :class:`~repro.mlmd.MetadataStore`
  with full id remapping
  (:func:`~repro.mlmd.sqlite_store.append_store`).
* :mod:`repro.fleet.cache` — a content-addressed execution cache that
  turns the paper's graphlet-similarity observation (Table 1 /
  Section 5) into replayed ``CACHED`` executions with measured saved
  cpu-hours.

Fleet runs recover in-run: every multi-shard run executes through the
:class:`~repro.fleet.supervisor.FleetSupervisor`, which reschedules
crashed or hung workers and quarantines a shard that fails
``max_attempts`` times. A quarantine leaves a
partial-but-valid merged store, a :class:`ShardFailure` per lost shard
and a :class:`~repro.fleet.supervisor.DegradationReport`; with a shard
journal (:mod:`repro.faults.journal`) ``resume=True`` re-simulates
only the lost shards.
"""

from .cache import CacheEntry, CachedOutput, ExecutionCache
from .supervisor import (
    DegradationReport,
    FleetSupervisor,
    QuarantinedShard,
    SupervisorPolicy,
    render_degradation,
)
from .workers import (
    FleetReport,
    ShardFailure,
    ShardResult,
    ShardSpec,
    generate_corpus_fleet,
    pipeline_rng,
    plan_shards,
    run_shard,
)

__all__ = [
    "CacheEntry",
    "CachedOutput",
    "DegradationReport",
    "ExecutionCache",
    "FleetReport",
    "FleetSupervisor",
    "QuarantinedShard",
    "ShardFailure",
    "ShardResult",
    "ShardSpec",
    "SupervisorPolicy",
    "generate_corpus_fleet",
    "pipeline_rng",
    "plan_shards",
    "render_degradation",
    "run_shard",
]
