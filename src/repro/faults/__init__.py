"""Fault model, retry semantics, and crash-safe resumable fleet runs.

The paper's headline number is wasted computation; this subsystem makes
failure a first-class, *configurable* part of the simulated fleet
instead of an ad-hoc hint:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  a seeded, serializable description of transient/permanent operator
  failures, store-write failures, artifact corruption, and worker
  crashes.
* :mod:`repro.faults.injector` — the runtime-facing
  :class:`FaultInjector` (per-pipeline derived fault stream, separate
  from the simulation rng) and the unified reading of the legacy
  ``fail_nodes`` hint.
* :mod:`repro.faults.retry` — :class:`RetryPolicy`: attempt budgets,
  exponential backoff with deterministic jitter, per-operator
  deadlines. Every attempt persists as its own MLMD execution with
  ``retry_of`` / ``attempt`` / ``failure_kind`` provenance.
* :mod:`repro.faults.journal` — the per-shard journal behind
  ``repro generate --workers N --resume``.
"""

from .injector import (
    FaultInjector,
    InjectedFault,
    WorkerCrashError,
    WorkerHangError,
    hint_fault,
)
from .journal import (
    JournalError,
    ShardEntry,
    ShardJournal,
    config_fingerprint,
    degradation_path,
    journal_dir_for,
    write_shard_payload,
)
from .plan import FaultKind, FaultPlan, FaultSpec
from .retry import RetryPolicy

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "JournalError",
    "RetryPolicy",
    "ShardEntry",
    "ShardJournal",
    "WorkerCrashError",
    "WorkerHangError",
    "config_fingerprint",
    "degradation_path",
    "hint_fault",
    "journal_dir_for",
    "write_shard_payload",
]
