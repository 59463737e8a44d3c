"""Runtime-facing fault injection.

The :class:`FaultInjector` is what a :class:`~repro.faults.FaultPlan`
looks like from inside :class:`~repro.tfx.runtime.PipelineRunner`: one
``draw()`` per node execution, answered from the plan's own random
stream (never the simulation rng). The legacy ``fail_nodes`` hint
collapses into the same :class:`InjectedFault` representation via
:func:`hint_fault`, so the runner has exactly one failure code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..obs.metrics import get_registry
from .plan import _WORKER_KINDS, FaultKind, FaultSpec

__all__ = ["FaultInjector", "InjectedFault", "WorkerCrashError",
           "WorkerHangError", "hint_fault"]


class WorkerCrashError(RuntimeError):
    """An injected (or simulated-organic) fleet worker crash.

    Raised out of ``run_shard`` in ``mode="raise"``; in ``mode="kill"``
    the worker process dies outright and the driver observes a dead
    worker with no result instead.
    """

    def __init__(self, shard_index: int, message: str) -> None:
        super().__init__(shard_index, message)
        self.shard_index = shard_index
        self.message = message

    def __str__(self) -> str:
        return self.message


class WorkerHangError(WorkerCrashError):
    """An injected worker hang observed where hanging is impossible.

    In a real worker process an injected ``worker_hang`` enters a
    sleep loop (progress and heartbeats stop; only a supervisor's
    stall detection ends it). Inline shards cannot be allowed to hang
    the driver, so the same fault degrades to this exception — the
    supervisor treats both as ``failure_kind="worker_hang"``.
    """


@dataclass(frozen=True)
class InjectedFault:
    """A fault decision for one node in one run.

    ``fails(attempt)`` tells the runner whether a given 1-based attempt
    fails; corruption faults never fail the producing attempt (the
    execution completes, its outputs are poisoned).
    """

    failure_kind: str
    fail_attempts: int = 1
    permanent: bool = False
    corrupts: bool = False

    def fails(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` fails under this fault."""
        if self.corrupts:
            return False
        if self.permanent:
            return True
        return attempt <= self.fail_attempts


#: The fault equivalent of the legacy ``fail_nodes`` hint: organic,
#: mechanism-driven failures are permanent within their run.
HINT_FAULT = InjectedFault(failure_kind="injected", permanent=True)

#: A consumer resolved an input artifact marked ``corrupted`` — fails
#: every attempt (re-running the consumer cannot fix its input).
CORRUPT_INPUT_FAULT = InjectedFault(failure_kind="corrupt_input",
                                    permanent=True)


class FaultInjector:
    """Per-pipeline operator-fault source, seeded by the plan.

    One ``rng.random()`` is consumed per (matching spec, node execution)
    pair, so the draw sequence — and therefore every injected fault —
    depends only on the plan seed and the pipeline's global index.
    """

    def __init__(self, specs: tuple[FaultSpec, ...],
                 rng: np.random.Generator) -> None:
        self.specs = tuple(s for s in specs
                           if s.kind not in _WORKER_KINDS)
        self.rng = rng
        self.injected = 0
        self._fired: dict[int, int] = {}
        registry = get_registry()
        self._m_injected = {
            spec.kind.value: registry.counter("faults.injected",
                                              kind=spec.kind.value)
            for spec in self.specs
        }

    def draw(self, operator_name: str, node_id: str) -> InjectedFault | None:
        """Decide this node execution's fault, if any.

        Every matching rule consumes one uniform draw even after its
        ``max_injections`` cap is reached — capped plans and uncapped
        plans stay on the same random stream.
        """
        for position, spec in enumerate(self.specs):
            if not spec.matches(operator_name, node_id):
                continue
            hit = float(self.rng.random()) < spec.probability
            if not hit:
                continue
            fired = self._fired.get(position, 0)
            if spec.max_injections is not None \
                    and fired >= spec.max_injections:
                continue
            self._fired[position] = fired + 1
            self.injected += 1
            self._m_injected[spec.kind.value].value += 1
            return InjectedFault(
                failure_kind=spec.kind.value,
                fail_attempts=spec.fail_attempts,
                permanent=spec.kind is FaultKind.PERMANENT,
                corrupts=spec.kind is FaultKind.ARTIFACT_CORRUPTION)
        return None


def hint_fault(hints: dict[str, Any], node_id: str) -> InjectedFault | None:
    """The unified reading of the legacy ``hints["fail_nodes"]``
    (a collection of node ids)."""
    if node_id in hints.get("fail_nodes", ()):
        return HINT_FAULT
    return None
