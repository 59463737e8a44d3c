"""Process-wide metrics: counters, gauges, and streaming histograms.

The reproduction's whole premise is mining execution telemetry, so the
system emits its own: every hot path (store puts/gets, pipeline runs,
corpus generation, segmentation, policy training) reports into a shared
:class:`MetricsRegistry`. Instruments are cheap enough to leave enabled
permanently — a counter increment is one attribute add, a histogram
record is an append plus a bounded-reservoir check — so the registry is
always on and the CLI decides whether to export it.

Design notes:

* Instruments are identified by ``(name, labels)``; asking the registry
  for the same pair twice returns the same object, so call sites bind
  instruments once (e.g. in ``__init__``) and pay only the increment on
  the hot path.
* Histograms keep exact ``count/sum/min/max`` and a bounded reservoir
  (default 4096 values) for quantile estimates, so memory stays O(1) no
  matter how many observations stream through.
* Export is JSON Lines: one object per instrument, see
  :meth:`MetricsRegistry.export_jsonl` (schema documented in README
  "Observability").
"""

from __future__ import annotations

import json
import random
import threading
import time
import zlib
from pathlib import Path

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "get_registry",
    "set_registry",
]

#: Reservoir size bounding per-histogram memory.
RESERVOIR_SIZE = 4096

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, str]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count.

    :meth:`inc` is thread-safe. Single-threaded hot paths (the store's
    op counters) may keep mutating ``.value`` directly; parallel
    callers must go through :meth:`inc`.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter (thread-safe)."""
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        """The JSONL export record."""
        return {"kind": "counter", "name": self.name, "labels": self.labels,
                "value": self.value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Adjust the gauge by ``amount`` (thread-safe)."""
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        """The JSONL export record."""
        return {"kind": "gauge", "name": self.name, "labels": self.labels,
                "value": self.value}


class Histogram:
    """A streaming distribution with quantile summaries.

    Exact ``count``/``sum``/``min``/``max``; quantiles (p50/p95/p99)
    come from a fixed-size uniform reservoir so a histogram fed millions
    of observations stays bounded in memory.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max",
                 "_reservoir", "_reservoir_size", "_rng", "_lock")

    def __init__(self, name: str, labels: dict[str, str],
                 reservoir_size: int = RESERVOIR_SIZE) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: list[float] = []
        self._reservoir_size = reservoir_size
        # Seeded per-instrument so summaries are reproducible run-to-run
        # (str hashing is randomized per process, so not hash()).
        self._rng = random.Random(zlib.crc32(
            repr((name,) + _labels_key(labels)).encode()))
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._reservoir) < self._reservoir_size:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self._reservoir_size:
                    self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Approximate ``q``-th percentile (0..100) from the reservoir.

        Well-defined on the edges: ``None`` with zero observations (no
        percentile exists, and pretending it is 0.0 poisons downstream
        aggregation), the single value with one observation.
        """
        ordered = sorted(self._reservoir)
        if not ordered:
            return None
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> dict:
        """count/sum/mean/min/max plus p50/p95/p99.

        Percentiles are ``None`` on an empty histogram; min/max stay
        0.0 there to keep exports JSON-finite.
        """
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": None, "p95": None, "p99": None}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def to_dict(self) -> dict:
        """The JSONL export record."""
        return {"kind": "histogram", "name": self.name,
                "labels": self.labels, **self.summary()}

    def state(self) -> dict:
        """Mergeable state: exact aggregates plus the reservoir.

        Unlike :meth:`summary` (lossy percentiles), this is the
        cross-process wire format — a worker ships its histogram state
        home and the parent folds it with :meth:`merge_state` without
        losing the exact count/sum/min/max.
        """
        with self._lock:
            return {"kind": "histogram_state", "name": self.name,
                    "labels": self.labels, "count": self.count,
                    "sum": self.sum,
                    "min": self.min if self.count else None,
                    "max": self.max if self.count else None,
                    "reservoir": list(self._reservoir)}

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one.

        count/sum/min/max fold exactly. The reservoirs merge by keeping
        everything while both fit, then reservoir-sampling the overflow
        — quantiles stay an approximation, as they already were.
        """
        incoming_count = int(state["count"])
        if not incoming_count:
            return
        with self._lock:
            self.count += incoming_count
            self.sum += float(state["sum"])
            if state["min"] is not None and float(state["min"]) < self.min:
                self.min = float(state["min"])
            if state["max"] is not None and float(state["max"]) > self.max:
                self.max = float(state["max"])
            for value in state.get("reservoir", ()):
                value = float(value)
                if len(self._reservoir) < self._reservoir_size:
                    self._reservoir.append(value)
                else:
                    slot = self._rng.randrange(self.count)
                    if slot < self._reservoir_size:
                        self._reservoir[slot] = value


class Timer:
    """Context manager recording elapsed seconds into a histogram."""

    __slots__ = ("histogram", "_start", "elapsed")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
        self.histogram.record(self.elapsed)


class MetricsRegistry:
    """Get-or-create factory and export point for all instruments.

    Example:
        >>> registry = MetricsRegistry()
        >>> registry.counter("mlmd.ops", op="put_artifact").inc()
        >>> with registry.timer("corpus.pipeline_seconds"):
        ...     pass
        >>> [m["name"] for m in registry.snapshot()]
        ['mlmd.ops', 'corpus.pipeline_seconds']
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelsKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelsKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelsKey], Histogram] = {}
        # Guards get-or-create: two threads asking for the same new
        # instrument must receive the same object (a lost insert would
        # silently fork the metric). Lookups hit the fast path first and
        # only take the lock on a miss.
        self._lock = threading.Lock()

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``(name, labels)`` (thread-safe)."""
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(key)
                if instrument is None:
                    instrument = self._counters[key] = Counter(name, labels)
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``(name, labels)`` (thread-safe)."""
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(key)
                if instrument is None:
                    instrument = self._gauges[key] = Gauge(name, labels)
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create the histogram ``(name, labels)`` (thread-safe)."""
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(key)
                if instrument is None:
                    instrument = self._histograms[key] = Histogram(name,
                                                                   labels)
        return instrument

    def timer(self, name: str, **labels: str) -> Timer:
        """A context manager timing into histogram ``(name, labels)``."""
        return Timer(self.histogram(name, **labels))

    # ------------------------------------------------------------ export

    def snapshot(self) -> list[dict]:
        """All instruments as export records (counters, gauges, then
        histograms; insertion order within each kind)."""
        out = [c.to_dict() for c in self._counters.values()]
        out += [g.to_dict() for g in self._gauges.values()]
        out += [h.to_dict() for h in self._histograms.values()]
        return out

    def export_jsonl(self, path: str | Path) -> None:
        """Write one JSON object per instrument to ``path``."""
        with Path(path).open("w") as handle:
            for record in self.snapshot():
                handle.write(json.dumps(record) + "\n")

    # ------------------------------------------------- cross-process fold

    def state_records(self) -> list[dict]:
        """Every instrument as a *mergeable* record (the worker → parent
        wire format): counter/gauge export records plus
        ``histogram_state`` records carrying reservoirs."""
        out = [c.to_dict() for c in self._counters.values()]
        out += [g.to_dict() for g in self._gauges.values()]
        out += [h.state() for h in self._histograms.values()]
        return out

    def fold(self, records: list[dict]) -> None:
        """Fold another registry's :meth:`state_records` into this one.

        Counters add, gauges last-write-win, histogram states merge
        exactly (see :meth:`Histogram.merge_state`). Zero-valued
        counters are skipped so a worker that never touched an
        instrument doesn't materialize it here. Unknown kinds are
        ignored — older journal payloads stay loadable.
        """
        for record in records:
            if not isinstance(record, dict):
                continue
            kind = record.get("kind")
            labels = record.get("labels") or {}
            if kind == "counter":
                if record["value"]:
                    self.counter(record["name"], **labels).inc(
                        record["value"])
            elif kind == "gauge":
                self.gauge(record["name"], **labels).set(record["value"])
            elif kind == "histogram_state":
                self.histogram(record["name"],
                               **labels).merge_state(record)

    def reset(self) -> None:
        """Drop every instrument (tests and fresh CLI commands)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code reports into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (returns the previous one).

    Call sites bind instruments at construction time, so swap the
    registry *before* building the objects you want measured.
    """
    global _registry
    previous = _registry
    _registry = registry
    return previous

