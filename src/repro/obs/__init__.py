"""Observability layer: metrics, traces and structured events (stdlib-only).

Three small, independent pieces:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges and
  fixed-bucket histograms (p50/p95/p99 readouts), rendered in Prometheus
  text format for ``GET /metrics`` and parsed back by ``an5d top``;
* :mod:`repro.obs.trace` — trace/span context propagated across the cluster
  wire as explicit envelope fields (``trace_id``/``span_id`` — never a
  timestamp, matching the receiver-stamped clock policy); every process
  records its own spans with locally measured durations;
* :mod:`repro.obs.events` — structured JSONL event logging with one
  process-wide sink (ring buffer, optionally mirrored to a file).

Nothing in here imports the rest of ``repro`` and nothing needs a
third-party package, so any layer — store, scheduler, cluster, service —
can instrument itself without import cycles or new dependencies.
"""

from repro.obs.cache import SingleFlightCache
from repro.obs.events import (
    EVENTS,
    EventLog,
    EventSubscription,
    emit_event,
    record_suppressed,
)
from repro.obs.profile import (
    PROFILER,
    SamplingProfiler,
    arm_profiler,
    profile_for,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    parse_prometheus,
    set_registry,
)
from repro.obs.trace import (
    SPANS,
    SpanStore,
    TraceContext,
    context_from_wire,
    context_to_wire,
    current_trace,
    new_span_id,
    new_trace_id,
    span,
)

__all__ = [
    "Counter",
    "EVENTS",
    "EventLog",
    "EventSubscription",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "PROFILER",
    "SPANS",
    "SamplingProfiler",
    "SingleFlightCache",
    "SpanStore",
    "TraceContext",
    "arm_profiler",
    "context_from_wire",
    "context_to_wire",
    "current_trace",
    "emit_event",
    "get_registry",
    "profile_for",
    "new_span_id",
    "new_trace_id",
    "parse_prometheus",
    "record_suppressed",
    "set_registry",
    "span",
]
