"""Live fleet run status: worker heartbeats and a driver-side reader.

Fleet workers run in separate processes for minutes at a time; until
they return, the coordinator (and the person watching it) knows nothing.
This module closes that gap with plain files, reusing the crash-safety
discipline of the shard journal:

* Worker side — :class:`ShardHeartbeat` writes a small JSON status file
  (``shard-0002.status.json``) into the journal dir after every
  pipeline: current phase, pipelines done/total, resident set size.
  Writes are temp-file + ``os.replace`` (never torn) and throttled to
  at most one per ``min_interval`` seconds so the hot loop pays a clock
  read, not an fsync.
* Driver side — :func:`collect_fleet_status` joins the journal's
  manifest + outcome entries with the status files into one
  :class:`FleetStatus`: per-shard state (``pending``/``running``/
  ``stalled``/``done``/``failed``), throughput, and an ETA. A worker
  whose status file stops updating for ``stall_after`` seconds is
  flagged ``stalled`` — the one signal a hung (not crashed) worker
  gives. ``repro fleet-status`` renders this, live or post-mortem.

Status files are advisory: a missing or half-legacy file degrades the
display, never the run. The journal outcome entries remain the source
of truth for ``--resume``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..faults.journal import degradation_path
from .resources import peak_rss_mb

__all__ = [
    "FleetStatus",
    "ShardHeartbeat",
    "ShardStatus",
    "collect_fleet_status",
    "read_status_file",
    "render_fleet_status",
    "status_path",
]

#: Seconds without a heartbeat before a running shard counts as stalled.
DEFAULT_STALL_AFTER = 30.0

#: Minimum seconds between heartbeat writes (per shard).
DEFAULT_MIN_INTERVAL = 0.5


def status_path(journal_dir: str | Path, shard_index: int) -> Path:
    """Where shard ``shard_index`` heartbeats under ``journal_dir``."""
    return Path(journal_dir) / f"shard-{shard_index:04d}.status.json"


class ShardHeartbeat:
    """Worker-side progress beacon for one shard.

    Example:
        >>> hb = ShardHeartbeat(tmp_dir, shard_index=0, total=40)
        >>> hb.beat(phase="simulate", done=12)          # throttled
        >>> hb.beat(phase="done", done=40, force=True)  # always writes
    """

    def __init__(self, journal_dir: str | Path, shard_index: int,
                 total: int, worker: str = "",
                 min_interval: float = DEFAULT_MIN_INTERVAL) -> None:
        self.path = status_path(journal_dir, shard_index)
        self.shard_index = shard_index
        self.total = total
        self.worker = worker or f"shard-{shard_index:04d}"
        self.min_interval = min_interval
        self.started_unix = time.time()
        self._last_write = 0.0

    def beat(self, phase: str, done: int, force: bool = False,
             error: str = "") -> bool:
        """Report progress; returns whether a write actually happened.

        ``phase="failed"`` (with an ``error``) is the worker's dying
        breath: written from the shard's exception path so the driver
        sees *failed* immediately instead of a silent stall that only
        crosses ``stall_after`` seconds later.
        """
        now = time.time()
        if not force and now - self._last_write < self.min_interval:
            return False
        self._last_write = now
        record = {
            "shard_index": self.shard_index,
            "worker": self.worker,
            "pid": os.getpid(),
            "phase": phase,
            "pipelines_done": done,
            "pipelines_total": self.total,
            "rss_mb": peak_rss_mb(),
            "started_unix": self.started_unix,
            "updated_unix": now,
        }
        if error:
            record["error"] = error
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(record))
            os.replace(tmp, self.path)
        except OSError:
            # Heartbeats are advisory; a full disk must not kill the
            # shard that is about to produce the actual payload.
            return False
        return True


def read_status_file(path: str | Path) -> dict | None:
    """One shard's last heartbeat, or ``None`` if absent or torn.

    Atomic writes mean torn files should not happen, but a status file
    from a dying worker or a foreign tool is still just skipped.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or "shard_index" not in payload:
        return None
    return payload


@dataclass
class ShardStatus:
    """One shard's combined journal + heartbeat view."""

    shard_index: int
    start: int
    stop: int
    # pending | running | stalled | done | failed | quarantined
    state: str = "pending"
    phase: str = ""
    worker: str = ""
    pipelines_done: int = 0
    rss_mb: float | None = None
    seconds_since_beat: float | None = None
    pipelines_per_sec: float | None = None
    crashes: int = 0
    error: str = ""
    attempt: int = 0

    @property
    def pipelines_total(self) -> int:
        """How many pipelines this shard owns."""
        return self.stop - self.start


@dataclass
class FleetStatus:
    """Whole-run roll-up consumed by ``repro fleet-status``."""

    journal_dir: Path
    exists: bool = True
    shards: list[ShardStatus] = field(default_factory=list)
    pipelines_total: int = 0
    pipelines_done: int = 0
    eta_seconds: float | None = None
    needs_resume: bool = False
    degradation: dict | None = None
    stall_after: float = DEFAULT_STALL_AFTER

    @property
    def complete(self) -> bool:
        """Every shard done (the run only awaits the final merge)."""
        return bool(self.shards) and all(s.state == "done"
                                         for s in self.shards)

    def counts(self) -> dict[str, int]:
        """Shard tally by state, e.g. ``{"done": 3, "running": 1}``."""
        tally: dict[str, int] = {}
        for shard in self.shards:
            tally[shard.state] = tally.get(shard.state, 0) + 1
        return tally

    def to_dict(self) -> dict:
        """JSON shape for ``repro fleet-status --json``."""
        return {
            "journal_dir": str(self.journal_dir),
            "exists": self.exists,
            "complete": self.complete,
            "needs_resume": self.needs_resume,
            "pipelines_total": self.pipelines_total,
            "pipelines_done": self.pipelines_done,
            "eta_seconds": self.eta_seconds,
            "stall_after": self.stall_after,
            "counts": self.counts(),
            "degradation": self.degradation,
            "shards": [{
                "shard_index": s.shard_index,
                "state": s.state,
                "phase": s.phase,
                "worker": s.worker,
                "pipelines_done": s.pipelines_done,
                "pipelines_total": s.pipelines_total,
                "rss_mb": s.rss_mb,
                "seconds_since_beat": s.seconds_since_beat,
                "pipelines_per_sec": s.pipelines_per_sec,
                "crashes": s.crashes,
                "error": s.error,
                "attempt": s.attempt,
            } for s in self.shards],
        }


def collect_fleet_status(journal_dir: str | Path,
                         stall_after: float | None = None,
                         now: float | None = None) -> FleetStatus:
    """Read a run's journal dir into a :class:`FleetStatus`.

    Works on live runs (heartbeats moving), interrupted runs (outcome
    entries say what ``--resume`` would redo), and absent/cleaned-up
    journals (``exists=False`` — the run finished and tidied up, or
    never started). ``now`` is injectable for tests.

    ``stall_after=None`` (the default) reads the threshold the run
    itself declared in the manifest's ``meta`` — so ``fleet-status``
    and the run's own supervisor agree on what counts as stalled —
    falling back to :data:`DEFAULT_STALL_AFTER` for older journals.
    Every attempt of a shard, process or inline, heartbeats into the
    one :func:`status_path`; a quarantined shard's last beat stays there.
    """
    journal_dir = Path(journal_dir)
    manifest_path = journal_dir / "manifest.json"
    if not manifest_path.exists():
        return FleetStatus(journal_dir=journal_dir, exists=False)
    try:
        manifest = json.loads(manifest_path.read_text())
        layout = [(int(i), int(a), int(b))
                  for i, a, b in manifest.get("shards", [])]
    except (json.JSONDecodeError, TypeError, ValueError):
        return FleetStatus(journal_dir=journal_dir, exists=False)
    if stall_after is None:
        meta = manifest.get("meta", {})
        meta = meta if isinstance(meta, dict) else {}
        try:
            stall_after = float(meta.get("stall_after",
                                         DEFAULT_STALL_AFTER))
        except (TypeError, ValueError):
            stall_after = DEFAULT_STALL_AFTER
    if now is None:
        now = time.time()

    status = FleetStatus(journal_dir=journal_dir,
                         stall_after=stall_after)
    try:
        degradation = json.loads(degradation_path(journal_dir).read_text())
        status.degradation = degradation \
            if isinstance(degradation, dict) else None
    except (OSError, json.JSONDecodeError):
        status.degradation = None
    rates: list[float] = []
    for shard_index, start, stop in layout:
        shard = ShardStatus(shard_index=shard_index, start=start, stop=stop)
        entry = _read_outcome(journal_dir, shard_index)
        beat = read_status_file(status_path(journal_dir, shard_index))
        if beat is not None:
            shard.phase = str(beat.get("phase", ""))
            shard.worker = str(beat.get("worker", ""))
            shard.pipelines_done = min(int(beat.get("pipelines_done", 0)),
                                       shard.pipelines_total)
            rss = beat.get("rss_mb")
            shard.rss_mb = float(rss) if rss is not None else None
            updated = float(beat.get("updated_unix", 0.0))
            shard.seconds_since_beat = max(0.0, now - updated)
            elapsed = updated - float(beat.get("started_unix", updated))
            if elapsed > 0 and shard.pipelines_done:
                shard.pipelines_per_sec = shard.pipelines_done / elapsed
        if entry is not None:
            shard.attempt = int(entry.get("attempt", 0) or 0)
        if entry is not None and entry.get("status") == "done":
            shard.state = "done"
            shard.pipelines_done = shard.pipelines_total
        elif entry is not None and entry.get("status") == "quarantined":
            shard.state = "quarantined"
            shard.crashes = int(entry.get("crashes", 0))
            shard.error = (entry.get("error_kind", "") or "quarantined")
        elif entry is not None and entry.get("status") == "failed":
            shard.state = "failed"
            shard.crashes = int(entry.get("crashes", 0))
            shard.error = (entry.get("error_kind", "") or "failed")
        elif beat is not None and beat.get("phase") == "failed":
            # The worker's dying-breath beat: failed *now*, not
            # "stalled until the threshold notices".
            shard.state = "failed"
            shard.error = str(beat.get("error", "") or "failed")
        elif beat is not None:
            stale = (shard.seconds_since_beat is not None
                     and shard.seconds_since_beat > stall_after)
            shard.state = "stalled" if stale else "running"
        status.shards.append(shard)
        status.pipelines_total += shard.pipelines_total
        status.pipelines_done += shard.pipelines_done
        if shard.state == "running" and shard.pipelines_per_sec:
            rates.append(shard.pipelines_per_sec)

    status.needs_resume = any(
        s.state in ("failed", "pending", "stalled", "quarantined")
        for s in status.shards)
    remaining = status.pipelines_total - status.pipelines_done
    if remaining > 0 and rates:
        # Active workers carry the remainder at their combined rate;
        # an idle fleet (no live heartbeats) yields no ETA rather than
        # a fictitious one.
        status.eta_seconds = remaining / sum(rates)
    elif remaining == 0:
        status.eta_seconds = 0.0
    return status


def _read_outcome(journal_dir: Path, shard_index: int) -> dict | None:
    path = journal_dir / f"shard-{shard_index:04d}.json"
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _bar(done: int, total: int, width: int = 20) -> str:
    filled = int(width * done / total) if total else width
    return "#" * filled + "-" * (width - filled)


def render_fleet_status(status: FleetStatus) -> str:
    """Human-readable status block (one line per shard + a summary)."""
    if not status.exists:
        return (f"no fleet journal at {status.journal_dir}\n"
                "(the run completed and cleaned up, or never started)")
    lines = [f"fleet journal: {status.journal_dir}"]
    for s in status.shards:
        detail = s.phase or s.state
        if s.state in ("failed", "quarantined") and s.error:
            detail = f"{s.state}: {s.error}"
            if s.crashes:
                detail += f" (crashes={s.crashes})"
        extras = []
        if s.attempt > 1:
            extras.append(f"attempt {s.attempt}")
        if s.pipelines_per_sec:
            extras.append(f"{s.pipelines_per_sec:.2f} pl/s")
        if s.rss_mb is not None:
            extras.append(f"rss={s.rss_mb:.0f}MiB")
        if s.state == "stalled" and s.seconds_since_beat is not None:
            extras.append(f"last beat {s.seconds_since_beat:.0f}s ago")
        suffix = f"  [{', '.join(extras)}]" if extras else ""
        lines.append(
            f"  shard {s.shard_index:>3} [{_bar(s.pipelines_done, s.pipelines_total)}] "
            f"{s.pipelines_done:>4}/{s.pipelines_total:<4} "
            f"{s.state:<8} {detail}{suffix}")
    counts = ", ".join(f"{state}={n}"
                       for state, n in sorted(status.counts().items()))
    lines.append(f"  total {status.pipelines_done}/{status.pipelines_total} "
                 f"pipelines  ({counts})")
    if status.complete:
        lines.append("  all shards done")
    elif status.eta_seconds is not None and status.eta_seconds > 0:
        lines.append(f"  eta ~{status.eta_seconds:.0f}s at current throughput")
    if status.degradation is not None:
        # Deferred import: the supervisor imports this module.
        from ..fleet.supervisor import (DegradationReport,
                                        render_degradation)
        lines.append(render_degradation(
            DegradationReport.from_dict(status.degradation)))
    if status.needs_resume:
        lines.append("  interrupted? re-run with --resume to finish "
                     "pending/failed/quarantined shards")
    return "\n".join(lines)
