"""The benchmark's own span recorder and its run-time layer wrappers.

Spans are opened by the benchmark around calls into each layer's public
functions. Layers that are only reachable through another layer are
wrapped at run time, for the duration of one traced chain:

* ``SpanDigest.from_properties`` and
  ``SpanPairCache.sequence_similarity`` -> ``similarity.self``
* ``RandomForestClassifier.fit`` -> ``ml.fit``
* ``FleetSupervisor.run`` -> ``fleet.simulate``, and the interval from
  its return to the return of ``generate_corpus_fleet`` -> ``fleet.merge``

Every span records wall time, CPU time of the process *and* its reaped
children (so fleet workers count), and the growth of the peak resident
set. Self time is a span's duration minus its direct children's. The
similarity calls, tens of thousands per chain, are summed per name as
leaves rather than kept one by one.
"""

from __future__ import annotations

import contextlib
import resource
import sys
import time
from collections import defaultdict

#: Every span name the traced chains can record, in report order.
SPAN_NAMES = (
    "corpus.generate",
    "fleet.simulate",
    "fleet.merge",
    "mlmd.save",
    "mlmd.load",
    "query.client_build",
    "query.segment_corpus",
    "query.lineage",
    "graphlets.segment",
    "similarity.self",
    "analysis.full_report",
    "waste.dataset",
    "waste.train",
    "waste.evaluate",
    "ml.fit",
)


_RSS_SCALE = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0


def probe() -> tuple[float, float]:
    """``(cpu_s, peak_rss_mb)`` of this process and its reaped children.

    CPU is user plus system time of both; peak RSS is the larger of the
    two ``ru_maxrss`` values (KiB on Linux, bytes on macOS).
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime,
            max(own.ru_maxrss, children.ru_maxrss) / _RSS_SCALE)


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count from its current RSS.

    Linux only (``/proc/self/clear_refs``); elsewhere the peak keeps
    counting from process start.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


class Span:
    """One closed (or still open) timed region."""

    __slots__ = ("name", "parent", "start", "end", "cpu0", "cpu1",
                 "rss0", "rss1", "child_s")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.cpu0, self.rss0 = probe()
        self.start = time.perf_counter()
        self.end = self.start
        self.cpu1 = self.cpu0
        self.rss1 = self.rss0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_s


class Recorder:
    """Keeps every span of one traced chain in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Summed ``[wall_s, cpu_s, rss_peak_mb]`` of leaf calls by name.
        self.leaves: dict[str, list[float]] = defaultdict(
            lambda: [0.0, 0.0, 0.0])
        #: A span a wrapper opened that the chain closes (fleet.merge).
        self.pending: Span | None = None

    def begin(self, name: str) -> Span:
        opened = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(opened)
        return opened

    def end(self, opened: Span) -> None:
        opened.end = time.perf_counter()
        opened.cpu1, opened.rss1 = probe()
        if self._stack.pop() is not opened:
            raise RuntimeError(f"span {opened.name} closed out of order")
        if opened.parent is not None:
            opened.parent.child_s += opened.wall_s
        self.spans.append(opened)

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield opened
        finally:
            self.end(opened)

    def leaf(self, name: str, call, *args):
        """``call(*args)`` timed as a leaf of the innermost open span.

        Layers called tens of thousands of times per chain (similarity)
        are summed per name instead of kept as span objects: one
        ``getrusage`` per end and no allocation keep the tracing
        overhead small. A leaf runs in this process, so its CPU and RSS
        come from ``RUSAGE_SELF`` alone.
        """
        own = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        try:
            return call(*args)
        finally:
            wall = time.perf_counter() - started
            after = resource.getrusage(resource.RUSAGE_SELF)
            totals = self.leaves[name]
            totals[0] += wall
            totals[1] += (after.ru_utime + after.ru_stime
                          - own.ru_utime - own.ru_stime)
            totals[2] += (after.ru_maxrss - own.ru_maxrss) / _RSS_SCALE
            if self._stack:
                self._stack[-1].child_s += wall

    def end_pending(self) -> None:
        """Close the span a wrapper left open, if any."""
        if self.pending is not None:
            self.end(self.pending)
            self.pending = None

    def totals(self) -> dict[str, float]:
        """``<span>.wall_s/self_s/cpu_s/rss_peak_mb`` summed per name.

        Every name in :data:`SPAN_NAMES` is present; a layer that did
        no work in this chain reads 0.
        """
        out = {}
        for name in SPAN_NAMES:
            for field in ("wall_s", "self_s", "cpu_s", "rss_peak_mb"):
                out[f"{name}.{field}"] = 0.0
        for closed in self.spans:
            out[f"{closed.name}.wall_s"] += closed.wall_s
            out[f"{closed.name}.self_s"] += closed.self_s
            out[f"{closed.name}.cpu_s"] += closed.cpu1 - closed.cpu0
            out[f"{closed.name}.rss_peak_mb"] += closed.rss1 - closed.rss0
        for name, (wall, cpu, rss) in self.leaves.items():
            out[f"{name}.wall_s"] += wall
            out[f"{name}.self_s"] += wall
            out[f"{name}.cpu_s"] += cpu
            out[f"{name}.rss_peak_mb"] += rss
        return out


class NullRecorder:
    """The untraced chain's recorder: every call is a no-op."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield None

    def end_pending(self) -> None:
        pass


@contextlib.contextmanager
def _patched(owner, attribute: str, replacement):
    # Restore the class's own descriptor, not the bound method getattr
    # returns, so a classmethod comes back as a classmethod.
    original = vars(owner)[attribute]
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextlib.contextmanager
def layer_wrappers(recorder: Recorder):
    """Wrap the layers reachable only through other layers."""
    from repro.fleet.supervisor import FleetSupervisor
    from repro.ml.forest import RandomForestClassifier
    from repro.similarity import SpanDigest, SpanPairCache

    from_properties = SpanDigest.from_properties
    sequence_similarity = SpanPairCache.sequence_similarity
    fit = RandomForestClassifier.fit
    supervise = FleetSupervisor.run

    def traced_similarity(cache, ids_a, seq_a, ids_b, seq_b):
        before = cache.size
        value = recorder.leaf("similarity.self", sequence_similarity,
                              cache, ids_a, seq_a, ids_b, seq_b)
        if seq_a and seq_b:
            recorder.counts["similarity.pairs_requested"] += min(
                len(seq_a), len(seq_b))
        recorder.counts["similarity.pairs_computed"] += cache.size - before
        return value

    def traced_digest(cls, properties):
        return recorder.leaf("similarity.self", from_properties,
                             properties)

    def traced_fit(model, *args, **kwargs):
        recorder.counts["ml.fits"] += 1
        with recorder.span("ml.fit"):
            return fit(model, *args, **kwargs)

    def traced_supervise(supervisor, *args, **kwargs):
        with recorder.span("fleet.simulate"):
            result = supervise(supervisor, *args, **kwargs)
        recorder.pending = recorder.begin("fleet.merge")
        return result

    with _patched(SpanDigest, "from_properties",
                  classmethod(traced_digest)), \
            _patched(SpanPairCache, "sequence_similarity",
                     traced_similarity), \
            _patched(RandomForestClassifier, "fit", traced_fit), \
            _patched(FleetSupervisor, "run", traced_supervise):
        yield
