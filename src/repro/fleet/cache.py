"""Content-addressed execution cache (TFX-style cached executions).

The paper's Table 1 finds consecutive model graphlets nearly identical
and names redundant re-execution as the key optimization opportunity
(Section 5). This module makes that opportunity expressible in the
runtime: a cache keyed on *(operator type, operator params, input
artifact fingerprints)* lets :class:`~repro.tfx.runtime.PipelineRunner`
replay a previous execution's outputs instead of re-running the
operator, recording the execution with ``ExecutionState.CACHED`` and
crediting the avoided cost as ``saved_cpu_hours``.

Key definition (see DESIGN.md "Fleet execution"):

* An artifact's **fingerprint** is a digest of its type name and its
  content properties. The ``reused`` marker the cache itself stamps on
  replayed outputs is excluded, so a replayed artifact fingerprints the
  same as the original it mirrors. Store ids, creation times, and URIs
  are *not* fingerprinted — identity is content, not placement.
* An execution's **key** digests the operator's ``name``, its
  ``cache_params()``, and the per-input-key fingerprint lists in input
  order. Only operators declaring ``cache_safe = True`` get keys:
  everything hint-driven, randomized, or dependent on mutable
  warm-start / pipeline state stays uncacheable by construction.

The cache is scoped per pipeline (one instance per runner): pipelines
never share artifacts, and per-pipeline scope keeps sharded generation
(:mod:`repro.fleet.workers`) byte-identical to sequential generation —
a fleet-global cache would make hit patterns depend on scheduling.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..mlmd.types import Artifact
from ..obs.metrics import get_registry

__all__ = ["CacheEntry", "CachedOutput", "ExecutionCache"]

#: Output-artifact property stamped on cache-replayed artifacts.
REUSED_PROPERTY = "reused"


@dataclass(frozen=True)
class CachedOutput:
    """One output artifact template stored in a cache entry."""

    key: str
    type_name: str
    properties: tuple[tuple[str, str], ...]

    def materialize(self) -> dict:
        """A fresh properties dict for a replayed artifact."""
        return {name: json.loads(value) for name, value in self.properties}


@dataclass
class CacheEntry:
    """What a hit replays: outputs, gate outcome, and the cost shape."""

    outputs: tuple[CachedOutput, ...]
    blocking: bool
    cost_scale: float


@dataclass
class ExecutionCache:
    """Per-pipeline content-addressed cache over completed executions.

    ``misses`` counts only *cacheable* executions (cache-safe operator,
    no entry yet), so ``hits / (hits + misses)`` is the fraction of
    cacheable work served from cache — the number the paper's
    redundancy claim is about. ``saved_cpu_hours`` accumulates the cost
    each hit avoided, reconciling exactly against an uncached run of
    the same seed.
    """

    hits: int = 0
    misses: int = 0
    saved_cpu_hours: float = 0.0
    _entries: dict[str, CacheEntry] = field(default_factory=dict)
    _fingerprints: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        registry = get_registry()
        self._m_hits = registry.counter("fleet.cache.hits")
        self._m_misses = registry.counter("fleet.cache.misses")
        self._m_saved = registry.counter("fleet.cache.saved_cpu_hours")

    # ------------------------------------------------------------- keys

    def fingerprint(self, artifact: Artifact) -> str:
        """Content digest of one artifact (memoized by store id)."""
        cached = self._fingerprints.get(artifact.id)
        if cached is not None:
            return cached
        content = {key: value for key, value in artifact.properties.items()
                   if key != REUSED_PROPERTY}
        digest = hashlib.sha256(json.dumps(
            [artifact.type_name, content],
            sort_keys=True).encode()).hexdigest()
        if artifact.id != -1:
            self._fingerprints[artifact.id] = digest
        return digest

    def key(self, operator, inputs: dict[str, list[Artifact]]) -> str | None:
        """The cache key for one resolved execution, or None.

        ``None`` means "not cacheable": the operator has not declared
        itself a pure function of its inputs.
        """
        if not operator.cache_safe:
            return None
        payload = [operator.name, repr(operator.cache_params()),
                   [[input_key, [self.fingerprint(a) for a in artifacts]]
                    for input_key, artifacts in sorted(inputs.items())]]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()

    # ------------------------------------------------------------ access

    def lookup(self, key: str) -> CacheEntry | None:
        """Return the entry for ``key``, counting the hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._m_misses.value += 1
        else:
            self.hits += 1
            self._m_hits.value += 1
        return entry

    def credit_saved(self, cpu_hours: float) -> None:
        """Record the compute a hit avoided."""
        self.saved_cpu_hours += float(cpu_hours)
        self._m_saved.value += float(cpu_hours)

    def store(self, key: str, result) -> None:
        """Store a COMPLETE execution's result under ``key``.

        Output payloads are not cached — on the simulation path they
        are dropped after every run anyway, and a replayed artifact's
        consumers only read properties.
        """
        outputs = []
        for output_key, output_list in result.outputs.items():
            for output in output_list:
                outputs.append(CachedOutput(
                    key=output_key,
                    type_name=output.type_name,
                    properties=tuple(sorted(
                        (name, json.dumps(value)) for name, value
                        in output.properties.items()))))
        self._entries[key] = CacheEntry(
            outputs=tuple(outputs), blocking=result.blocking,
            cost_scale=result.cost_scale)
