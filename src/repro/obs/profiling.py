"""Sampling profiler with folded-stack export (flamegraph-ready).

A statistical profiler that needs neither signals (``SIGPROF`` breaks
under threads and is unavailable off the main thread / on Windows) nor
``sys.setprofile`` (whose per-call hook costs far more than the ≤5%
observability budget): a daemon thread wakes every ``interval`` seconds
and snapshots the stack of the thread that started it via
``sys._current_frames``. The program under measurement runs completely
unmodified — the only perturbation is the GIL time the sampler spends
walking frames, a few microseconds per sample.

Samples accumulate as *folded stacks* — the `flamegraph.pl` /
speedscope interchange format, one ``root;child;leaf count`` line per
distinct stack.

``repro profile <command ...>`` wraps any CLI command with a sampler
and writes the collapsed stacks; render them with any flamegraph tool
or read the built-in :func:`render_top` summary. A one-worker
``generate`` simulates its only shard in the driver thread, so
``repro profile generate --workers 1`` samples the exact per-shard
code a fleet worker runs.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

__all__ = [
    "StackSampler",
    "render_top",
    "write_folded",
]

#: Default seconds between stack snapshots (200 Hz).
DEFAULT_INTERVAL = 0.005

#: Frames deeper than this are truncated (runaway recursion guard).
MAX_DEPTH = 128


def _frame_label(frame) -> str:
    """One stack entry: ``filename:function`` with a short path.

    The last two path components identify a module unambiguously in
    this codebase (``obs/metrics.py``) without baking absolute build
    paths into checked-in profiles.
    """
    code = frame.f_code
    parts = code.co_filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else parts[-1]
    return f"{short}:{code.co_name}"


class StackSampler:
    """Periodic stack sampler of the thread that calls :meth:`start`.

    Only that thread is sampled, so helper threads (resource samplers,
    pools) never pollute the profile.

    Args:
        interval: Seconds between samples (default 5 ms).

    Example:
        >>> sampler = StackSampler(interval=0.001)
        >>> with sampler:
        ...     busy_work()
        >>> stacks = sampler.folded()   # {"a.py:main;b.py:inner": 412}
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._target: int | None = None
        self.samples = 0
        self.started_at = 0.0
        self.stopped_at = 0.0
        self._counts: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------ control

    def start(self) -> "StackSampler":
        """Start sampling this thread (idempotent)."""
        if self._thread is not None:
            return self
        self._target = threading.get_ident()
        self.started_at = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-stack-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> dict[str, int]:
        """Stop sampling; returns the folded-stack counts."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
            self.stopped_at = time.perf_counter()
        return self.folded()

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------- sampling

    def sample_once(self) -> None:
        """Snapshot the target thread's stack once."""
        frame = sys._current_frames().get(self._target)
        stack: list[str] = []
        while frame is not None and len(stack) < MAX_DEPTH:
            stack.append(_frame_label(frame))
            frame = frame.f_back
        if stack:
            key = ";".join(reversed(stack))
            self._counts[key] = self._counts.get(key, 0) + 1
        self.samples += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - never kill the host
                return

    # ------------------------------------------------------------- export

    def folded(self) -> dict[str, int]:
        """The folded-stack counts accumulated so far (a copy)."""
        return dict(self._counts)

    @property
    def wall_seconds(self) -> float:
        """Seconds between start and stop (0 before a full cycle)."""
        if not self.started_at or not self.stopped_at:
            return 0.0
        return self.stopped_at - self.started_at


# ------------------------------------------------------ folded-stack I/O


def write_folded(path: str | Path, counts: dict[str, int],
                 header: dict | None = None) -> None:
    """Write folded stacks in the flamegraph interchange format.

    One ``stack count`` line per entry, heaviest first. ``header``
    key/values are written as ``# key: value`` comment lines, which
    every flamegraph consumer skips.
    """
    lines: list[str] = []
    if header:
        lines += [f"# {key}: {value}" for key, value in header.items()]
    lines += [f"{stack} {count}" for stack, count in
              sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    Path(path).write_text("\n".join(lines) + "\n" if lines else "")


def render_top(counts: dict[str, int], k: int = 10) -> str:
    """A quick textual summary: the k hottest leaf frames.

    Attributes each sample to its leaf (self time, the flamegraph's
    tips); full stacks stay in the folded file for real rendering.
    """
    total = sum(counts.values())
    if not total:
        return "(no samples)"
    leaves: dict[str, int] = {}
    for stack, count in counts.items():
        leaf = stack.rsplit(";", 1)[-1]
        leaves[leaf] = leaves.get(leaf, 0) + count
    ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    width = max(len(leaf) for leaf, _ in ranked)
    lines = [f"top {len(ranked)} self-time frames "
             f"({total:,} samples, {len(counts):,} distinct stacks)"]
    lines += [f"  {leaf:<{width}}  {count:>7,}  {count / total:6.1%}"
              for leaf, count in ranked]
    return "\n".join(lines)
