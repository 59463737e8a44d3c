"""Self-instrumentation: metrics, span tracing, and structured logging.

The paper mines execution telemetry out of production ML pipelines; this
package makes the reproduction emit its own. Three pieces:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges, and streaming histograms (p50/p95/p99), with timer
  context managers.
* :mod:`repro.obs.tracing` — nested span tracing with ``contextvars``
  propagation and JSONL export; a :class:`NullTracer` keeps the
  disabled path near-free.
* :mod:`repro.obs.logging` — structured ``key=value`` logging on stdlib
  ``logging``.
* :mod:`repro.obs.fleetwatch` — live fleet run status: worker heartbeat
  files in the shard journal dir plus the driver-side reader behind
  ``repro fleet-status``.
* :mod:`repro.obs.resources` — process resource observation: CPU/RSS/GC
  readers, a throttled background :class:`ResourceSampler`, and per-span
  CPU/peak-RSS/allocation attribution (``Tracer(resources=True)``).
* :mod:`repro.obs.profiling` — a sampling profiler
  (:class:`StackSampler`) with folded-stack export behind
  ``repro profile``.
* :mod:`repro.obs.provenance` — a :class:`TelemetrySink` persisting
  per-node / per-run telemetry *into the MLMD store*, keyed by
  execution id (queryable through the provenance graph).
* :mod:`repro.obs.diagnosis` — the query layer over that joined view:
  critical paths, cost sinks, waste attribution, p95 regressions.

Everything exports as JSON Lines so ``repro telemetry`` (and any other
consumer) can read one schema; see README "Observability".

The provenance/diagnosis names are loaded lazily (module
``__getattr__``): they import :mod:`repro.mlmd`, which itself imports
``repro.obs.metrics``, and an eager import here would close that loop.
"""

from .logging import (
    StructuredLogger,
    configure_logging,
    format_fields,
    get_logger,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    get_registry,
    set_registry,
)
from .tracing import (
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    get_tracer,
    set_tracer,
    span,
)

_LAZY_EXPORTS = {
    "FleetStatus": "fleetwatch",
    "ShardHeartbeat": "fleetwatch",
    "ShardStatus": "fleetwatch",
    "collect_fleet_status": "fleetwatch",
    "render_fleet_status": "fleetwatch",
    "ResourceSampler": "resources",
    "attribute_span": "resources",
    "current_rss_mb": "resources",
    "peak_rss_mb": "resources",
    "span_probe": "resources",
    "StackSampler": "profiling",
    "render_top": "profiling",
    "write_folded": "profiling",
    "TelemetrySink": "provenance",
    "attach_sink": "provenance",
    "detach_sink": "provenance",
    "CostSplit": "diagnosis",
    "CriticalPath": "diagnosis",
    "OperatorStats": "diagnosis",
    "PipelineDiagnosis": "diagnosis",
    "RegressionFlag": "diagnosis",
    "ResourceUsage": "diagnosis",
    "critical_path": "diagnosis",
    "diagnose_pipeline": "diagnosis",
    "find_regressions": "diagnosis",
    "operator_stats": "diagnosis",
    "pipeline_cost_split": "diagnosis",
    "resource_attribution": "diagnosis",
    "top_cost_sinks": "diagnosis",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(
            f".{_LAZY_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "StructuredLogger",
    "Timer",
    "TraceContext",
    "Tracer",
    "configure_logging",
    "format_fields",
    "get_logger",
    "get_registry",
    "get_tracer",
    "set_registry",
    "set_tracer",
    "span",
    *sorted(_LAZY_EXPORTS),
]
