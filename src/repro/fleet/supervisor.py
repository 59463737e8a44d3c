"""In-run fleet supervision: reschedule, quarantine.

Production corpora at paper scale (7.7M executions) cannot assume a
fault-free multi-hour run, so every multi-shard fleet run goes through
the :class:`FleetSupervisor`, which acts on a worker failure *inside*
the run:

* **Reschedule** — a worker that crashes (raises, is killed, or dies
  without a result) or whose heartbeat goes silent beyond
  ``stall_after`` seconds gets its shard re-run on a fresh worker,
  with attempt provenance (``attempt`` / ``rescheduled_from`` /
  ``failure_kind``) journaled. Pipelines derive their rngs from
  ``(seed, global index)`` only, so a rescheduled shard produces rows
  byte-identical to a first-try shard — the merged store of a
  recovered run equals the fault-free run exactly. Stall detection is
  the one rescue for a hung worker; a shard has at most one live
  attempt at a time.
* **Quarantine** — a shard that fails ``max_attempts`` times is given
  up on for this run: the merge skips it, the run completes as a
  partial-but-valid store, and a structured :class:`DegradationReport`
  (quarantined shards, lost pipelines, attempts histogram,
  recovered-vs-lost compute) is persisted as ``degradation.json`` in
  the journal and rendered by ``repro fleet-status``. A later
  ``--resume`` re-arms quarantined shards with fresh attempts, so
  ``max_attempts=1`` is the way to fail a shard at its first failure
  and leave a partial run for ``--resume``.
* **Fault budget** — ``fault_budget`` caps total reschedules across
  the run. A systemically broken run
  (every worker dying) exhausts the budget after a handful of
  attempts and fails fast with a diagnosis instead of thrashing
  through ``shards × max_attempts`` doomed re-runs.

The run's one record of what happened to a shard is its journal entry
(``shard-NNNN.json``: ``attempt``, ``rescheduled_from``, per-attempt
``history``, ``crashes``).

Attempts run as dedicated ``multiprocessing.Process`` workers, not a
process pool: a pool cannot terminate one hung member, which is
precisely the recovery a supervisor exists to perform, nor say which
member died. A shard has at most one live attempt, and every attempt
writes the same bytes, so each writes the shard's canonical journal
files (payload, heartbeat, spans) directly; ``--resume`` and
``fleet-status`` see one layout however the shard ran. When process
spawn is unavailable (sandbox, ``in_process=True``) the remaining
attempts run inline, through the same launch, poll loop and result
message: reschedule and quarantine semantics are identical, while
stall detection — which requires a concurrently observable worker —
is naturally inert for them.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict, dataclass, field

from ..corpus.config import CorpusConfig
from ..faults.journal import ShardJournal
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs.fleetwatch import (DEFAULT_STALL_AFTER, read_status_file,
                              status_path)
from ..obs.logging import get_logger
from .workers import ShardFailure, classify_failure, run_shard

__all__ = [
    "DegradationReport",
    "FleetSupervisor",
    "QuarantinedShard",
    "SupervisorPolicy",
    "render_degradation",
]

_log = get_logger("fleet.supervisor")

#: Exit code of an injected kill-mode worker crash (see workers.py).
_KILL_EXIT_CODE = 17

#: Seconds the poll loop sleeps when no attempt resolved.
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class SupervisorPolicy:
    """The supervision knobs, CLI-surfaced as ``generate``'s
    ``--max-attempts`` / ``--stall-after`` / ``--fault-budget``.

    ``fault_budget=None`` means unlimited reschedules.
    """

    max_attempts: int = 3
    stall_after: float = DEFAULT_STALL_AFTER
    fault_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.stall_after <= 0:
            raise ValueError("stall_after must be > 0")
        if self.fault_budget is not None and self.fault_budget < 0:
            raise ValueError("fault_budget must be >= 0")


@dataclass(frozen=True)
class QuarantinedShard:
    """One shard the supervisor gave up on this run."""

    shard_index: int
    start: int
    stop: int
    attempts: int
    failure_kind: str
    message: str
    reason: str  # max_attempts | fault_budget

    @property
    def n_pipelines(self) -> int:
        """Pipelines lost to this quarantine."""
        return self.stop - self.start


@dataclass
class DegradationReport:
    """How far a fleet run degraded from the fault-free ideal.

    The pipeline accounting is an exact partition:
    ``merged_pipelines + lost_pipelines == planned_pipelines`` — every
    planned pipeline is either in the merged store or attributed to a
    named quarantined shard. ``recovered_*`` tallies work that
    in-run supervision saved (winning attempts > 1);
    ``lost_cpu_seconds`` is compute spent on attempts that produced
    nothing (failed or stalled).
    """

    planned_pipelines: int
    planned_shards: int
    merged_pipelines: int = 0
    quarantined: list[QuarantinedShard] = field(default_factory=list)
    attempts_histogram: dict[int, int] = field(default_factory=dict)
    reschedules: int = 0
    stalls_detected: int = 0
    fault_budget: int | None = None
    budget_spent: int = 0
    budget_exhausted: bool = False
    recovered_pipelines: int = 0
    recovered_cpu_seconds: float = 0.0
    lost_cpu_seconds: float = 0.0

    @property
    def lost_pipelines(self) -> int:
        """Pipelines missing from the merged store (quarantined)."""
        return sum(q.n_pipelines for q in self.quarantined)

    @property
    def degraded(self) -> bool:
        """Whether the run is partial (any shard quarantined)."""
        return bool(self.quarantined)

    def to_dict(self) -> dict:
        """JSON shape persisted as ``degradation.json``."""
        out = asdict(self)
        out["lost_pipelines"] = self.lost_pipelines
        out["degraded"] = self.degraded
        # JSON objects key by string; keep the histogram round-trippable.
        out["attempts_histogram"] = {
            str(k): v for k, v in sorted(self.attempts_histogram.items())}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationReport":
        """Inverse of :meth:`to_dict` (tolerant of missing keys, and of
        unknown ones such as counts an older version wrote)."""
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["quarantined"] = [
            QuarantinedShard(**q) for q in data.get("quarantined", [])]
        kwargs["attempts_histogram"] = {
            int(k): int(v)
            for k, v in data.get("attempts_histogram", {}).items()}
        kwargs.setdefault("planned_pipelines", 0)
        kwargs.setdefault("planned_shards", 0)
        return cls(**kwargs)


def render_degradation(report: DegradationReport) -> str:
    """Human-readable degradation block for the CLI and fleet-status."""
    lines = []
    if report.degraded:
        lines.append(
            f"degraded run: {report.merged_pipelines}/"
            f"{report.planned_pipelines} pipelines merged, "
            f"{report.lost_pipelines} lost to "
            f"{len(report.quarantined)} quarantined shard(s)")
        for q in report.quarantined:
            lines.append(
                f"  quarantined shard {q.shard_index} "
                f"[pipelines {q.start}..{q.stop - 1}] after "
                f"{q.attempts} attempt(s): {q.failure_kind}: "
                f"{q.message} ({q.reason})")
    else:
        lines.append(
            f"recovered run: all {report.planned_pipelines} pipelines "
            f"merged despite {report.reschedules} reschedule(s)")
    histogram = ", ".join(
        f"{attempts}x{count}" for attempts, count
        in sorted(report.attempts_histogram.items()))
    lines.append(f"  attempts histogram (attempts x shards): {histogram}")
    lines.append(
        f"  supervision: {report.reschedules} reschedule(s), "
        f"{report.stalls_detected} stall(s) detected")
    lines.append(
        f"  compute: {report.recovered_cpu_seconds:.1f}s recovered on "
        f"{report.recovered_pipelines} pipeline(s), "
        f"{report.lost_cpu_seconds:.1f}s lost to dead attempts")
    if report.fault_budget is not None:
        exhausted = " — EXHAUSTED, run failed fast" \
            if report.budget_exhausted else ""
        lines.append(
            f"  fault budget: {report.budget_spent}/"
            f"{report.fault_budget} reschedules{exhausted}")
    return "\n".join(lines)


def _attempt_message(spec, config, telemetry, exec_cache, fault_plan,
                     retry_policy, journal_dir, armed, trace_ctx,
                     attempt) -> tuple:
    """Run one shard attempt and return its one result message.

    ``("done", shard, attempt, ShardResult)`` or ``("failed", shard,
    attempt, kind, message)`` — the same tuple whether the attempt ran
    in a worker process or inline in the supervisor.
    """
    try:
        result = run_shard(
            spec, config, telemetry, exec_cache, fault_plan,
            retry_policy, journal_dir, armed, trace_ctx=trace_ctx,
            attempt=attempt)
    except Exception as exc:  # one attempt lost, never the supervisor
        return ("failed", spec.shard_index, attempt,
                *classify_failure(exc))
    return ("done", spec.shard_index, attempt, result)


def _attempt_main(conn, *args) -> None:
    """Worker-process entry point: send the attempt's message on ``conn``.

    A kill-mode injected crash exits the process without sending; an
    injected hang sleeps forever without sending — the supervisor
    reads both from process state, not the pipe.
    """
    try:
        _send(conn, _attempt_message(*args))
    finally:
        conn.close()


def _send(conn, message) -> None:
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass  # The supervisor went away; nothing left to report to.


@dataclass
class _Attempt:
    """One live (or just-finished) attempt the supervisor tracks.

    ``process`` is ``None`` for an inline attempt, which the next
    :meth:`FleetSupervisor._poll` runs in the supervisor itself.
    """

    spec: object
    attempt: int
    args: tuple
    process: object
    conn: object
    started: float

    @property
    def shard_index(self) -> int:
        return self.spec.shard_index


@dataclass
class _ShardState:
    """Supervision bookkeeping for one shard."""

    spec: object
    attempts_used: int = 0
    live: _Attempt | None = None
    done: bool = False
    quarantined: bool = False
    last_kind: str = ""
    last_message: str = ""
    last_failed_attempt: int = 0


class FleetSupervisor:
    """Coordinator-side executor for the shards of one fleet run.

    Constructed by :func:`~repro.fleet.workers.generate_corpus_fleet`
    for every run except a one-shard plan simulated in the driver;
    :meth:`run` simulates the shards that still need it, each writing
    its shard file into ``journal``.
    """

    def __init__(self, config: CorpusConfig, journal: ShardJournal,
                 policy: SupervisorPolicy, *, trace_ctx_for,
                 telemetry: bool = False, exec_cache: bool = False,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 in_process: bool = False) -> None:
        self.config = config
        self.journal = journal
        self.policy = policy
        self.telemetry = telemetry
        self.exec_cache = exec_cache
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.trace_ctx_for = trace_ctx_for
        self.in_process = in_process
        self.used_processes = False
        self.results: dict[int, object] = {}
        self.failures: dict[int, object] = {}
        self._state: dict[int, _ShardState] = {}
        self._report: DegradationReport | None = None
        self._journal_dir = journal.directory

    # ------------------------------------------------------------ public

    def run(self, to_run, armed: dict[int, bool], planned_pipelines: int,
            planned_shards: int, pre_merged_pipelines: int):
        """Supervise ``to_run`` to completion or quarantine.

        ``armed`` says, per shard, whether an injected worker fault may
        still fire (it fires once per journal unless ``repeat``).
        ``planned_*`` / ``pre_merged_pipelines`` fold already-resumed
        shards into the report so its accounting partitions the whole
        plan, not just the re-run slice.

        Returns ``(results, failures, report)``: completed
        :class:`~repro.fleet.workers.ShardResult` and
        :class:`~repro.fleet.workers.ShardFailure` by shard index, plus
        the :class:`DegradationReport`.
        """
        self._state = {spec.shard_index: _ShardState(spec=spec)
                       for spec in to_run}
        self._report = DegradationReport(
            planned_pipelines=planned_pipelines,
            planned_shards=planned_shards,
            merged_pipelines=pre_merged_pipelines,
            fault_budget=self.policy.fault_budget)
        for spec in to_run:
            self._launch(spec, attempt=1,
                         armed=armed.get(spec.shard_index, True))
        while any(state.live is not None
                  for state in self._state.values()):
            progressed = self._poll()
            self._check_stalls(time.time())
            if not progressed:
                time.sleep(_POLL_INTERVAL)
        return self.results, self.failures, self._finalize()

    # ---------------------------------------------------------- attempts

    def _launch(self, spec, attempt: int, armed: bool) -> None:
        """Start one attempt: a worker process, or an inline attempt
        for the next :meth:`_poll` once spawn is unavailable."""
        args = (spec, self.config, self.telemetry, self.exec_cache,
                self.fault_plan, self.retry_policy, self._journal_dir,
                armed, self.trace_ctx_for(spec, attempt), attempt)
        process = recv_conn = None
        if not self.in_process:
            recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_attempt_main, args=(send_conn, *args),
                daemon=True)
            try:
                process.start()
            except OSError as exc:
                # The sandbox denied processes: this and every later
                # attempt runs inline; started workers keep running.
                recv_conn.close()
                _log.warning("fleet_spawn_unavailable",
                             reason=type(exc).__name__, fallback="inline")
                self.in_process = True
                process = recv_conn = None
            except BaseException:
                recv_conn.close()
                raise
            else:
                self.used_processes = True
            finally:
                send_conn.close()  # Parent keeps only the read end.
        state = self._state[spec.shard_index]
        state.attempts_used = max(state.attempts_used, attempt)
        state.live = _Attempt(
            spec=spec, attempt=attempt, args=args, process=process,
            conn=recv_conn, started=time.time())

    def _poll(self) -> bool:
        """Drain attempt outcomes; returns whether anything resolved.

        An inline attempt runs here, to its message. Its reschedule is
        only recorded, and runs at the next poll, so a shard that fails
        every attempt never recurses.
        """
        progressed = False
        for state in self._state.values():
            attempt = state.live
            if attempt is None:
                continue
            message = None
            if attempt.process is None:
                attempt.started = time.time()
                message = _attempt_message(*attempt.args)
            else:
                try:
                    if attempt.conn.poll():
                        message = attempt.conn.recv()
                except (EOFError, OSError):
                    message = None  # Died mid-send: treat as dead below.
            if message is not None:
                progressed = True
                self._handle_message(state, attempt, message)
            elif not attempt.process.is_alive():
                progressed = True
                self._handle_dead(state, attempt)
        return progressed

    def _handle_message(self, state: _ShardState, attempt: _Attempt,
                        message) -> None:
        self._reap(attempt)
        state.live = None
        if message[0] == "done":
            self._complete(state, attempt, message[3])
        else:
            _, _, _, failure_kind, failure_message = message
            self._attempt_failed(state, attempt, failure_kind,
                                 failure_message,
                                 crashed=failure_kind != "error")

    def _handle_dead(self, state: _ShardState, attempt: _Attempt) -> None:
        """A process died without delivering a result (kill / OOM)."""
        exitcode = attempt.process.exitcode
        self._reap(attempt)
        state.live = None
        detail = "injected kill" if exitcode == _KILL_EXIT_CODE \
            else f"exitcode {exitcode}"
        self._attempt_failed(
            state, attempt, "worker_killed",
            f"worker for shard {attempt.shard_index} attempt "
            f"{attempt.attempt} died without a result ({detail})",
            crashed=True)

    def _check_stalls(self, now: float) -> None:
        """Terminate worker processes whose heartbeat went silent too
        long (an inline attempt cannot be observed while it runs).

        A worker that exited or whose result waits in its pipe beats no
        more but is not hung: the next :meth:`_poll` takes its outcome.
        That matters after a poll that ran inline attempts, which can
        outlast ``stall_after`` while workers finish.
        """
        for state in self._state.values():
            attempt = state.live
            if attempt is None or attempt.process is None:
                continue
            if not attempt.process.is_alive() or attempt.conn.poll():
                continue
            last = self._last_heartbeat(attempt)
            if now - last <= self.policy.stall_after:
                continue
            self._report.stalls_detected += 1
            self._reap(attempt, terminate=True)
            state.live = None
            self._attempt_failed(
                state, attempt, "worker_hang",
                f"no heartbeat for {now - last:.1f}s "
                f"(stall threshold {self.policy.stall_after:.1f}s)",
                crashed=True)

    def _last_heartbeat(self, attempt: _Attempt) -> float:
        beat = read_status_file(
            status_path(self._journal_dir, attempt.shard_index))
        updated = float(beat.get("updated_unix", 0.0)) if beat else 0.0
        return max(attempt.started, updated)

    # ------------------------------------------------------- transitions

    def _complete(self, state: _ShardState, attempt: _Attempt,
                  result) -> None:
        state.done = True
        result.transfer_seconds = max(
            0.0, time.time() - result.finished_unix)
        self.results[attempt.shard_index] = result
        rescheduled_from = state.last_failed_attempt \
            if attempt.attempt > 1 else 0
        self.journal.record_done(attempt.shard_index,
                                 attempt=attempt.attempt,
                                 rescheduled_from=rescheduled_from)
        self._report.merged_pipelines += attempt.spec.n_pipelines
        if attempt.attempt > 1:
            self._report.recovered_pipelines += attempt.spec.n_pipelines
            self._report.recovered_cpu_seconds += result.elapsed_seconds

    def _attempt_failed(self, state: _ShardState, attempt: _Attempt,
                        kind: str, message: str,
                        crashed: bool = False) -> None:
        self._report.lost_cpu_seconds += time.time() - attempt.started
        rescheduled_from = state.last_failed_attempt
        state.last_kind = kind
        state.last_message = message
        state.last_failed_attempt = attempt.attempt
        self.journal.record_failure(
            attempt.shard_index, kind, message, crashed=crashed,
            attempt=attempt.attempt, rescheduled_from=rescheduled_from)
        _log.warning("supervised_attempt_failed",
                     shard=attempt.shard_index, attempt=attempt.attempt,
                     kind=kind, reason=message)
        if state.attempts_used >= self.policy.max_attempts:
            self._quarantine(state, reason="max_attempts")
        elif not self._spend_budget():
            self._quarantine(state, reason="fault_budget")
        else:
            self._reschedule(state)

    def _reschedule(self, state: _ShardState) -> None:
        self._report.reschedules += 1
        # The injected worker fault fired once already; only a
        # ``repeat`` spec (systemically broken shard) re-arms it.
        self._launch(state.spec, attempt=state.attempts_used + 1,
                     armed=self._repeat_fault(state.spec.shard_index))

    def _quarantine(self, state: _ShardState, reason: str) -> None:
        spec = state.spec
        if reason == "fault_budget":
            self._report.budget_exhausted = True
        self.journal.record_quarantine(
            spec.shard_index, state.last_kind, state.last_message,
            attempt=state.attempts_used)
        _log.warning("shard_quarantined", shard=spec.shard_index,
                     attempts=state.attempts_used, reason=reason,
                     kind=state.last_kind)
        state.quarantined = True
        self.failures[spec.shard_index] = ShardFailure(
            spec.shard_index, spec.start, spec.stop, state.last_kind,
            f"quarantined after {state.attempts_used} attempt(s) "
            f"({reason}): {state.last_message}")
        self._report.quarantined.append(QuarantinedShard(
            shard_index=spec.shard_index, start=spec.start,
            stop=spec.stop, attempts=state.attempts_used,
            failure_kind=state.last_kind, message=state.last_message,
            reason=reason))

    def _spend_budget(self) -> bool:
        """Consume one reschedule from the fault budget."""
        budget = self.policy.fault_budget
        if budget is not None and self._report.budget_spent >= budget:
            return False
        self._report.budget_spent += 1
        return True

    def _repeat_fault(self, shard_index: int) -> bool:
        if self.fault_plan is None:
            return False
        spec = self.fault_plan.worker_fault(shard_index)
        return spec is not None and spec.repeat

    # ---------------------------------------------------------- plumbing

    def _reap(self, attempt: _Attempt, terminate: bool = False) -> None:
        if attempt.process is not None:
            if terminate and attempt.process.is_alive():
                attempt.process.terminate()
            attempt.process.join(timeout=5.0)
            if attempt.process.is_alive():  # terminate() ignored
                attempt.process.kill()
                attempt.process.join(timeout=5.0)
        if attempt.conn is not None:
            try:
                attempt.conn.close()
            except OSError:
                pass

    def _finalize(self) -> DegradationReport:
        report = self._report
        for state in self._state.values():
            report.attempts_histogram[state.attempts_used] = \
                report.attempts_histogram.get(state.attempts_used, 0) + 1
        if report.degraded:
            # Partial run: the journal outlives the run, so the report
            # does too (fleet-status renders it post-mortem).
            self.journal.write_degradation(report.to_dict())
        return report
