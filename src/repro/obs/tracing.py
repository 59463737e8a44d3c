"""Lightweight span tracing with ``contextvars`` propagation.

A span is one timed region (a pipeline run, a node execution, a
segmentation pass). Spans nest: the tracer tracks the current span in a
:class:`contextvars.ContextVar`, so a span opened inside another span's
``with`` block records it as parent — across generators and coroutines,
not just the call stack.

Two implementations share the interface:

* :class:`Tracer` — records finished spans in memory and exports them as
  JSON Lines (one span object per line).
* :class:`NullTracer` — the default; ``span()`` returns a cached no-op
  context manager, so instrumented hot paths cost almost nothing when
  tracing is off.

Instrumented code calls the *module-level* :func:`span` helper (which
reads the current global tracer on every call) so enabling tracing
mid-process — as the CLI does — affects already-constructed objects.

Cross-process propagation: a coordinator hands each worker a
serializable :class:`TraceContext` (trace id + the span id the worker's
spans should parent under). The worker installs a fresh
``Tracer(context=...)``, records spans in its own clock domain, and the
coordinator folds them back with :meth:`Tracer.adopt_spans`, which
remaps span ids into the coordinator's id sequence, re-parents worker
root spans under the context's root span, and rebases timestamps
through each tracer's wall-clock ``epoch`` — producing one causally
ordered timeline with no orphan spans (see DESIGN "Distributed
tracing").
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
]


@dataclass(frozen=True)
class TraceContext:
    """The serializable link between a coordinator and a worker tracer.

    Wire format (``to_dict`` / ``from_dict``, also how it pickles):

    * ``trace_id`` — opaque id shared by every span of one distributed
      run.
    * ``root_span_id`` — the coordinator-side span id that the worker's
      *root* spans (spans with no local parent) parent under once
      adopted.
    * ``worker`` — label stamped on every adopted span's attrs (e.g.
      ``shard-0003``) so the merged timeline says who ran what.
    """

    trace_id: str
    root_span_id: int
    worker: str = ""

    def to_dict(self) -> dict:
        """The JSON wire format."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        """Rebuild a context from its wire format."""
        return cls(trace_id=str(payload["trace_id"]),
                   root_span_id=int(payload["root_span_id"]),
                   worker=str(payload.get("worker", "")))


class Span:
    """One timed region; finished spans are what the tracer exports."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs",
                 "error")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 start: float, attrs: dict) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.attrs = attrs
        self.error: str | None = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (0 until the span closes)."""
        return self.end - self.start

    def set_attr(self, key: str, value) -> None:
        """Attach an attribute after the span opened."""
        self.attrs[key] = value

    def to_dict(self) -> dict:
        """The JSONL export record."""
        record = {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


class _SpanContext:
    """Context manager opening/closing one span on a real tracer."""

    __slots__ = ("_tracer", "_span", "_token", "_probe")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._span = Span(name, tracer._next_id(), None,
                          time.perf_counter(), attrs)
        self._token = None
        self._probe = None

    def __enter__(self) -> Span:
        current = self._tracer._current
        parent = current.get()
        if parent is not None:
            self._span.parent_id = parent.span_id
        self._token = current.set(self._span)
        if self._tracer.resources:
            from .resources import span_probe

            self._probe = span_probe()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.end = time.perf_counter()
        if self._probe is not None:
            from .resources import attribute_span

            attribute_span(self._span, self._probe)
        if exc_type is not None:
            self._span.error = exc_type.__name__
        self._tracer._current.reset(self._token)
        self._tracer._finished.append(self._span)
        return False


class _NullSpan:
    """Inert span handed out by the no-op tracer."""

    __slots__ = ()
    span_id = 0
    parent_id = None

    def set_attr(self, key: str, value) -> None:
        """No-op."""

    @property
    def duration(self) -> float:
        """Always 0."""
        return 0.0


class _NullSpanContext:
    """Reusable no-op context manager (one instance per process)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled path: no allocation, no clock reads, no records."""

    __slots__ = ()
    enabled = False
    resources = False

    def span(self, name: str, **attrs) -> _NullSpanContext:
        """Return the shared no-op context manager."""
        return _NULL_SPAN_CONTEXT

    def record_span(self, name: str, start: float, end: float,
                    parent_id: int | None = None, **attrs) -> _NullSpan:
        """No-op."""
        return _NULL_SPAN

    def finished_spans(self) -> list[Span]:
        """Always empty."""
        return []

    def export_jsonl(self, path: str | Path) -> None:
        """Write an empty file (keeps ``--trace-out`` round-trippable)."""
        Path(path).write_text("")


class Tracer:
    """Records nested spans and exports them as JSON Lines.

    Example:
        >>> tracer = Tracer()
        >>> with tracer.span("run", kind="train"):
        ...     with tracer.span("node", node_id="trainer"):
        ...         pass
        >>> [s.name for s in tracer.finished_spans()]
        ['node', 'run']
        >>> tracer.finished_spans()[0].parent_id
        1
    """

    enabled = True

    def __init__(self, context: TraceContext | None = None,
                 resources: bool = False) -> None:
        # Opt-in per-span resource attribution: context-manager spans
        # additionally record cpu_ms / rss_peak_mb / alloc_kb deltas
        # (see repro.obs.resources). Off by default — the probe is two
        # clock reads plus a getrusage per span, cheap but not free,
        # and the hot-path record_span API stays untouched either way.
        self.resources = resources
        self._finished: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = \
            contextvars.ContextVar("repro_obs_span", default=None)
        self._id = 0
        # Guards the id sequence; ``contextvars`` already isolates the
        # parent chain per thread, and list.append is atomic under the
        # GIL, so ids are the only cross-thread mutable state.
        self._id_lock = threading.Lock()
        self.context = context
        # Span times are ``perf_counter`` readings — meaningless across
        # processes. The epoch anchors this tracer's perf domain to the
        # wall clock so adoption can rebase: wall = perf + epoch.
        self.epoch = time.time() - time.perf_counter()

    def _next_id(self) -> int:
        with self._id_lock:
            self._id += 1
            return self._id

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a span; use as ``with tracer.span("name", k=v) as s:``."""
        return _SpanContext(self, name, attrs)

    def record_span(self, name: str, start: float, end: float,
                    parent_id: int | None = None, **attrs) -> Span:
        """Record an already-timed span directly (the hot-path API).

        Skips the ``contextvars`` dance: the caller supplies the times
        and (optionally) the parent. Per-node instrumentation in the
        runner uses this — at tens of thousands of spans per corpus the
        context-manager path costs real percent.
        """
        finished = Span(name, self._next_id(), parent_id, start, attrs)
        finished.end = end
        self._finished.append(finished)
        return finished

    def finished_spans(self) -> list[Span]:
        """Closed spans, in completion order (children before parents)."""
        return list(self._finished)

    def span_records(self) -> list[dict]:
        """Finished spans as plain dicts — the shape workers ship home."""
        return [finished.to_dict() for finished in self._finished]

    def adopt_spans(self, records: list[dict], *, epoch: float | None = None,
                    default_parent_id: int | None = None,
                    worker: str = "") -> int:
        """Fold span records from another tracer into this one.

        Two-pass id remap: every foreign span gets a fresh id from this
        tracer's sequence (foreign ids collide — every worker counts
        from 1), then parents are rewritten through the map. Foreign
        *root* spans (no parent, or a parent not in the batch) parent
        under ``default_parent_id`` so the merged timeline has no
        orphans. When ``epoch`` (the foreign tracer's wall-clock anchor)
        is given, start/end are rebased into this tracer's perf domain;
        ``worker`` is stamped into each span's attrs. Returns the number
        of spans adopted.
        """
        id_map: dict[int, int] = {}
        for record in records:
            id_map[int(record["span_id"])] = self._next_id()
        shift = 0.0
        if epoch is not None:
            shift = epoch - self.epoch
        for record in records:
            attrs = dict(record.get("attrs") or {})
            if worker:
                attrs["worker"] = worker
            foreign_parent = record.get("parent_id")
            if foreign_parent is not None and int(foreign_parent) in id_map:
                parent_id = id_map[int(foreign_parent)]
            else:
                parent_id = default_parent_id
            adopted = Span(record["name"],
                           id_map[int(record["span_id"])],
                           parent_id,
                           float(record["start"]) + shift,
                           attrs)
            adopted.end = float(record["end"]) + shift
            if record.get("error") is not None:
                adopted.error = str(record["error"])
            self._finished.append(adopted)
        return len(records)

    def reset(self) -> None:
        """Drop recorded spans (the id sequence keeps counting)."""
        self._finished.clear()

    def export_jsonl(self, path: str | Path) -> None:
        """Write one JSON object per finished span to ``path``.

        When the tracer carries a :class:`TraceContext` the first line
        is a ``trace_header`` record naming the trace, the worker, and
        this tracer's epoch — everything the coordinator needs to adopt
        the spans that follow. Consumers that only understand spans
        (``repro telemetry``) skip unknown kinds.
        """
        with Path(path).open("w") as handle:
            if self.context is not None:
                header = {"kind": "trace_header", "epoch": self.epoch,
                          **self.context.to_dict()}
                handle.write(json.dumps(header) + "\n")
            for finished in self._finished:
                handle.write(json.dumps(finished.to_dict()) + "\n")


_tracer: Tracer | NullTracer = NullTracer()


def get_tracer() -> Tracer | NullTracer:
    """The process-wide tracer (a :class:`NullTracer` by default)."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Swap the process-wide tracer (returns the previous one)."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def span(name: str, **attrs):
    """Open a span on the *current* global tracer.

    The late lookup is what lets the CLI install a real tracer after
    long-lived objects (stores, runners) were built.
    """
    return _tracer.span(name, **attrs)
