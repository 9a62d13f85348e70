"""``repro.telemetry`` — runtime metrics, request tracing, exposition.

The runtime counterpart of :mod:`repro.runs` (which observes *search*):
this package observes the *serving and training stack* at request and
epoch granularity.  Three pieces:

* **Metrics** (:mod:`.metrics`) — a thread-safe registry of counters,
  gauges and fixed-bucket histograms with labels.  Snapshots are plain
  JSON-able dicts and merge across shards by bucket-wise addition
  (:func:`merge_snapshots`), which is how ``/metrics`` joins the
  engine's registry with the process-global one.
* **Tracing** (:mod:`.tracing`) — lightweight spans with trace-id
  propagation (HTTP handler → engine batch → model forward, with
  optional per-op capture via :mod:`repro.tensor._profile`) and a
  JSONL :class:`EventSink` shared with structured access logging.
* **Exposition** (:mod:`.exposition`) — Prometheus text format
  rendering (the ``/metrics`` endpoint of
  :class:`repro.serving.ServingServer`) plus a parser used by tests
  and the ``repro metrics`` CLI.

Library-wide instruments (trainers, the trial scheduler, the profiler)
live on a process-global default registry reachable via
:func:`get_registry`; the serving engine keeps a private registry per
instance so co-resident engines never cross-count, and ``/metrics``
serves the merge of both.  See docs/OBSERVABILITY.md ("Runtime
telemetry") for the naming scheme and the trace JSONL schema.
"""

from __future__ import annotations

from .exposition import CONTENT_TYPE, parse_prometheus, render_prometheus
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    merge_snapshots,
    percentile_from_buckets,
)
from .tracing import (
    EventSink,
    Span,
    Tracer,
    current_trace_id,
    new_trace_id,
)

_default_registry = MetricsRegistry()
_default_tracer = Tracer(None)


def get_registry() -> MetricsRegistry:
    """The process-global default registry (trainers, tuner, profiler)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def get_tracer() -> Tracer:
    """The process-global tracer (disabled until one is configured)."""
    return _default_tracer


__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "current_trace_id",
    "get_registry",
    "get_tracer",
    "merge_snapshots",
    "new_trace_id",
    "parse_prometheus",
    "percentile_from_buckets",
    "render_prometheus",
    "set_registry",
]
