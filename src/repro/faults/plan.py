"""Declarative fault plans: what fails, where, and how often.

A :class:`FaultPlan` is the single description of every fault a corpus
run should experience — transient and permanent operator failures,
store-write failures, artifact corruption, and worker crashes — replacing
ad-hoc per-run hints. Plans are *seeded*: the injector for pipeline
``i`` draws from ``SeedSequence(entropy=plan.seed, spawn_key=(i,))``, a
stream fully separate from the simulation rng, so

* the same plan reproduces the same faults for any worker count, and
* a plan containing only worker crashes leaves the simulated trace
  byte-identical to a fault-free run (the crash kills a worker process,
  never perturbs a pipeline's random stream) — which is what makes
  ``generate --workers N --resume`` converge on the fault-free corpus.

Plans serialize to JSON and also parse from a compact spec string, e.g.
``"transient:Trainer:0.2;worker_crash:1"`` (see :meth:`FaultPlan.parse`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = ["FaultKind", "FaultPlan", "FaultSpec"]


class FaultKind(Enum):
    """The failure modes the injector understands."""

    #: Fails the first ``fail_attempts`` attempts, then succeeds — the
    #: canonical retryable failure (preemption, OOM on a busy host).
    TRANSIENT = "transient"
    #: Fails every attempt until the retry budget is exhausted.
    PERMANENT = "permanent"
    #: A metadata/output write fails after the work ran; retryable, but
    #: the attempt's compute is lost either way.
    STORE_WRITE = "store_write"
    #: The execution *succeeds* but its outputs are corrupt; downstream
    #: consumers of a corrupt artifact fail permanently.
    ARTIFACT_CORRUPTION = "artifact_corruption"
    #: Kills (or raises out of) an entire fleet worker mid-shard.
    WORKER_CRASH = "worker_crash"
    #: Hangs an entire fleet worker mid-shard: the process stays alive
    #: but stops making progress (and stops heartbeating) — the one
    #: failure only stall detection can see.
    WORKER_HANG = "worker_hang"


_OPERATOR_KINDS = (FaultKind.TRANSIENT, FaultKind.PERMANENT,
                   FaultKind.STORE_WRITE, FaultKind.ARTIFACT_CORRUPTION)

_WORKER_KINDS = (FaultKind.WORKER_CRASH, FaultKind.WORKER_HANG)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule inside a plan.

    Operator kinds target executions: ``operator`` matches the operator
    type name or node id (``"*"`` = any), each candidate execution is
    faulted with ``probability``, and at most ``max_injections`` fire
    per pipeline. ``WORKER_CRASH`` and ``WORKER_HANG`` target a fleet
    shard instead: the worker simulating ``shard_index`` dies (crash)
    or stops making progress forever (hang) after ``after_pipelines``
    completed pipelines. Crashes either raise (``mode="raise"``) or
    kill the process outright (``mode="kill"``); hangs enter a sleep
    loop that only a supervisor's stall detection can break. Worker
    faults normally fire once per journal; ``repeat=True`` re-arms
    them on every attempt (the systemically-broken-shard scenario that
    exercises quarantine).
    """

    kind: FaultKind
    operator: str = "*"
    probability: float = 0.0
    max_injections: int | None = None
    fail_attempts: int = 1
    shard_index: int | None = None
    after_pipelines: int = 1
    mode: str = "raise"
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind in _WORKER_KINDS:
            if self.shard_index is None or self.shard_index < 0:
                raise ValueError(
                    f"{self.kind.value} requires shard_index >= 0")
            if self.kind is FaultKind.WORKER_CRASH \
                    and self.mode not in ("raise", "kill"):
                raise ValueError(f"unknown crash mode {self.mode!r}")
            if self.after_pipelines < 1:
                raise ValueError("after_pipelines must be >= 1")
        else:
            if self.repeat:
                raise ValueError(
                    "repeat applies to worker faults only")
            if not 0.0 <= self.probability <= 1.0:
                raise ValueError("probability must be in [0, 1]")
            if self.fail_attempts < 1:
                raise ValueError("fail_attempts must be >= 1")
            if self.max_injections is not None and self.max_injections < 1:
                raise ValueError("max_injections must be >= 1")

    def matches(self, operator_name: str, node_id: str) -> bool:
        """Whether this rule targets the given node."""
        return self.operator in ("*", operator_name, node_id)

    def to_dict(self) -> dict:
        """Plain-JSON form (kind as its string value)."""
        out: dict = {"kind": self.kind.value}
        if self.kind in _WORKER_KINDS:
            out.update(shard_index=self.shard_index,
                       after_pipelines=self.after_pipelines)
            if self.kind is FaultKind.WORKER_CRASH:
                out["mode"] = self.mode
            if self.repeat:
                out["repeat"] = True
        else:
            out.update(operator=self.operator,
                       probability=self.probability,
                       fail_attempts=self.fail_attempts)
            if self.max_injections is not None:
                out["max_injections"] = self.max_injections
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        data["kind"] = FaultKind(data["kind"])
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules for one corpus run."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @property
    def operator_specs(self) -> tuple[FaultSpec, ...]:
        """Rules that target executions (everything but worker crashes)."""
        return tuple(s for s in self.specs if s.kind in _OPERATOR_KINDS)

    def injector(self, pipeline_index: int):
        """The per-pipeline fault injector, or None without operator rules.

        Returning None (rather than an idle injector) keeps the
        fault-free fast path in the runner literally unchanged, and the
        injector's rng is derived from ``(plan.seed, pipeline_index)``
        only — never from shard assignment.
        """
        specs = self.operator_specs
        if not specs:
            return None
        from .injector import FaultInjector

        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(pipeline_index,)))
        return FaultInjector(specs, rng)

    def worker_crash(self, shard_index: int) -> FaultSpec | None:
        """The crash rule targeting ``shard_index``, if any."""
        for spec in self.specs:
            if (spec.kind is FaultKind.WORKER_CRASH
                    and spec.shard_index == shard_index):
                return spec
        return None

    def worker_fault(self, shard_index: int) -> FaultSpec | None:
        """The crash *or* hang rule targeting ``shard_index``, if any."""
        for spec in self.specs:
            if (spec.kind in _WORKER_KINDS
                    and spec.shard_index == shard_index):
                return spec
        return None

    def to_json(self) -> str:
        """Stable JSON form (used for journal fingerprints too)."""
        return json.dumps(
            {"seed": self.seed,
             "specs": [s.to_dict() for s in self.specs]},
            sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        return cls(specs=tuple(FaultSpec.from_dict(s)
                               for s in data.get("specs", [])),
                   seed=int(data.get("seed", 0)))

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse a plan from JSON, a JSON file path, or a spec string.

        The spec-string grammar, ``;``-separated rules:

        * ``KIND:OPERATOR:PROBABILITY[:MAX]`` for operator kinds, e.g.
          ``transient:Trainer:0.2`` or ``permanent:*:0.05:3``;
        * ``worker_crash:SHARD[:AFTER[:MODE[:repeat]]]``, e.g.
          ``worker_crash:1`` or ``worker_crash:1:2:kill``;
        * ``worker_hang:SHARD[:AFTER[:repeat]]``, e.g.
          ``worker_hang:1:2`` (``repeat`` re-arms the fault on every
          supervised attempt instead of firing once per journal).
        """
        text = text.strip()
        if text.startswith("{"):
            return cls.from_json(text)
        if text.endswith(".json") and Path(text).exists():
            return cls.from_json(Path(text).read_text())
        specs = []
        for item in text.split(";"):
            item = item.strip()
            if not item:
                continue
            parts = item.split(":")
            try:
                kind = FaultKind(parts[0])
            except ValueError:
                raise ValueError(f"unknown fault kind {parts[0]!r}") from None
            if kind in _WORKER_KINDS:
                if len(parts) < 2:
                    raise ValueError(
                        f"{kind.value} needs a shard index")
                tail = parts[2:]
                repeat = bool(tail) and tail[-1] == "repeat"
                if repeat:
                    tail = tail[:-1]
                mode = "raise"
                if kind is FaultKind.WORKER_CRASH and len(tail) > 1:
                    mode = tail[1]
                specs.append(FaultSpec(
                    kind=kind, shard_index=int(parts[1]),
                    after_pipelines=int(tail[0]) if tail else 1,
                    mode=mode, repeat=repeat))
            else:
                if len(parts) < 3:
                    raise ValueError(
                        f"{kind.value} needs operator and probability")
                specs.append(FaultSpec(
                    kind=kind, operator=parts[1],
                    probability=float(parts[2]),
                    max_injections=int(parts[3]) if len(parts) > 3
                    else None))
        return cls(specs=tuple(specs), seed=seed)

    def describe(self) -> str:
        """One line per rule, for CLI banners and failure reports."""
        lines = []
        for spec in self.specs:
            if spec.kind in _WORKER_KINDS:
                detail = spec.mode \
                    if spec.kind is FaultKind.WORKER_CRASH else "hang"
                if spec.repeat:
                    detail += ", every attempt"
                lines.append(
                    f"{spec.kind.value} shard {spec.shard_index} after "
                    f"{spec.after_pipelines} pipeline(s), {detail}")
            else:
                cap = (f", max {spec.max_injections}"
                       if spec.max_injections is not None else "")
                lines.append(f"{spec.kind.value} {spec.operator} "
                             f"p={spec.probability}{cap}")
        return "\n".join(lines) if lines else "(empty plan)"
