"""Process resource observation: CPU, RSS, GC, and per-span attribution.

Timing alone says *that* a span was slow; this module says *why*. Three
pieces, all stdlib-only and graceful on platforms missing a probe:

* Readers — :func:`peak_rss_mb` (``ru_maxrss``, extracted from the
  fleet heartbeat), :func:`current_rss_mb` (``/proc/self/statm``),
  :func:`cpu_seconds`, :func:`gc_counts`. Every reader returns ``None``
  (never raises) when the platform cannot answer, so callers degrade to
  "unknown" instead of crashing a worker on an exotic OS.
* :class:`ResourceSampler` — a throttled daemon thread recording
  process CPU%, current/peak RSS, and GC collection counts as gauges
  into a :class:`~repro.obs.metrics.MetricsRegistry`, plus an RSS
  histogram so exports carry the growth distribution, not just the
  last sample. Started by the CLI whenever metrics are exported.
* Span attribution — :func:`span_probe` / :func:`attribute_span`
  capture a CPU-time delta (``time.process_time_ns``), a peak-RSS
  delta, and (when :mod:`tracemalloc` is tracing) an allocation delta
  across one span, written into the span's attrs (``cpu_ms``,
  ``rss_peak_mb``, ``alloc_kb``). ``Tracer(resources=True)`` applies it
  to every context-manager span; ``repro telemetry --timeline`` renders
  the columns so "slow" decomposes into CPU, memory growth and
  allocation.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

__all__ = [
    "ResourceSampler",
    "attribute_span",
    "cpu_seconds",
    "current_rss_mb",
    "gc_counts",
    "peak_rss_mb",
    "span_probe",
]

_PAGE_SIZE = None


def peak_rss_mb() -> float | None:
    """This process's peak resident set in MiB, if the platform says.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize
    both. Platforms without :mod:`resource` (Windows) report ``None``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if usage == 0:
        return None
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


def current_rss_mb() -> float | None:
    """The *current* resident set in MiB via ``/proc/self/statm``.

    Unlike :func:`peak_rss_mb` this can go down, which is what makes
    it useful for growth tracking. ``None`` on platforms without
    procfs (macOS, Windows) — callers fall back to the peak reader.
    """
    global _PAGE_SIZE
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        if _PAGE_SIZE is None:
            _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
        return int(fields[1]) * _PAGE_SIZE / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        return None


def cpu_seconds() -> float:
    """Process CPU time (user + system) in seconds."""
    return time.process_time()


def gc_counts() -> tuple[int, ...]:
    """Cumulative collection count per GC generation."""
    return tuple(s["collections"] for s in gc.get_stats())


class ResourceSampler:
    """Throttled background sampler of process-level resource gauges.

    Records into ``registry`` (default: the process-wide one):

    * ``proc.cpu_percent`` — CPU time delta over wall delta since the
      previous sample, in percent (can exceed 100 with threads).
    * ``proc.rss_mb`` / ``proc.peak_rss_mb`` — current and peak
      resident set (current falls back to peak without procfs).
    * ``proc.gc_collections{gen=N}`` — cumulative GC collections.
    * ``proc.rss_mb_sampled`` — histogram of RSS samples, so exports
      carry the growth distribution.

    The sampling thread is a daemon waking every ``interval`` seconds;
    each sample is a handful of clock/procfs reads, so even a 100 ms
    interval is far below the ≤5% observability overhead gate.

    Example:
        >>> with ResourceSampler(interval=0.2) as sampler:
        ...     do_work()
        >>> sampler.samples > 0
        True
    """

    def __init__(self, interval: float = 0.5, registry=None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        from .metrics import get_registry

        self.interval = interval
        self.registry = registry if registry is not None else get_registry()
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_cpu = 0.0
        self._last_wall = 0.0

    # ------------------------------------------------------------ control

    def start(self) -> "ResourceSampler":
        """Start the sampling thread (idempotent)."""
        if self._thread is not None:
            return self
        self._last_cpu = cpu_seconds()
        self._last_wall = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-resource-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and record one final sample."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------- sampling

    def sample_once(self) -> None:
        """Take one sample immediately (also used by the thread)."""
        now_wall = time.perf_counter()
        now_cpu = cpu_seconds()
        wall_delta = now_wall - self._last_wall
        if wall_delta > 0:
            self.registry.gauge("proc.cpu_percent").set(
                100.0 * (now_cpu - self._last_cpu) / wall_delta)
        self._last_cpu, self._last_wall = now_cpu, now_wall
        peak = peak_rss_mb()
        current = current_rss_mb()
        if current is None:
            current = peak
        if current is not None:
            self.registry.gauge("proc.rss_mb").set(current)
            self.registry.histogram("proc.rss_mb_sampled").record(current)
        if peak is not None:
            self.registry.gauge("proc.peak_rss_mb").set(peak)
        for gen, collections in enumerate(gc_counts()):
            self.registry.gauge("proc.gc_collections",
                                gen=str(gen)).set(collections)
        self.samples += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - never kill the host
                return


# -------------------------------------------------- per-span attribution


def span_probe() -> tuple:
    """Capture the resource state a span opens with.

    Cheap by design — two clock reads plus one ``getrusage``; the
    tracemalloc read is only taken when tracing is already on (it is
    never enabled here: whoever profiles allocations owns that switch).
    """
    import tracemalloc

    alloc = tracemalloc.get_traced_memory()[0] \
        if tracemalloc.is_tracing() else None
    return (time.process_time_ns(), peak_rss_mb(), alloc)


def attribute_span(span, probe: tuple) -> None:
    """Write the resource deltas since ``probe`` into ``span.attrs``.

    Sets ``cpu_ms`` always; ``rss_peak_mb`` (peak-RSS growth, MiB) when
    the platform reports it; ``alloc_kb`` (net tracemalloc delta, KiB
    — negative when the span freed more than it allocated) when
    tracemalloc was tracing at both ends.
    """
    import tracemalloc

    cpu0, rss0, alloc0 = probe
    span.set_attr(
        "cpu_ms", round((time.process_time_ns() - cpu0) / 1e6, 3))
    if rss0 is not None:
        rss1 = peak_rss_mb()
        if rss1 is not None:
            span.set_attr("rss_peak_mb", round(rss1 - rss0, 3))
    if alloc0 is not None and tracemalloc.is_tracing():
        delta = tracemalloc.get_traced_memory()[0] - alloc0
        span.set_attr("alloc_kb", round(delta / 1024.0, 3))
