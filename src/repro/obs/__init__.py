"""Observability layer: metrics registry, span tracing, run reports.

The measurement substrate for the whole reproduction.  The paper's
core claims about SDDS signatures are accounting results (bytes not
shipped, pages not written, signatures computed); every subsystem
emits that accounting into one injectable :class:`MetricsRegistry`,
spans carry both the simulated and the wall clock and assemble into
per-operation trees in one :class:`TraceStore`, and :class:`RunReport`
renders both as human tables and stable JSON.

Quick tour::

    from repro.obs import get_registry, MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        ...  # run any workload: sdds ops, backups, parity updates
    print(registry.snapshot()["net.bytes"])
"""

from .registry import (
    COUNTERS,
    BucketedHistogram,
    Counter,
    Gauge,
    HandleCache,
    Histogram,
    HistogramBase,
    MetricError,
    MetricsRegistry,
    Snapshotable,
    get_registry,
    labels_to_str,
    registry_epoch,
    set_registry,
    use_registry,
)
from .report import SCHEMA, RunReport
from .trace import (
    TRACE_SCHEMA,
    SpanHandle,
    TraceContext,
    TraceError,
    TraceSpan,
    TraceStore,
    activate,
    active_store,
    span_if_active,
)
from .recorder import FlightRecorder, RecorderDump, frame_digest
from .prometheus import to_prometheus

__all__ = [
    "BucketedHistogram",
    "COUNTERS",
    "Counter",
    "Gauge",
    "HandleCache",
    "registry_epoch",
    "Histogram",
    "HistogramBase",
    "MetricError",
    "MetricsRegistry",
    "Snapshotable",
    "get_registry",
    "set_registry",
    "use_registry",
    "labels_to_str",
    "RunReport",
    "SCHEMA",
    "TRACE_SCHEMA",
    "SpanHandle",
    "TraceContext",
    "TraceError",
    "TraceSpan",
    "TraceStore",
    "activate",
    "active_store",
    "span_if_active",
    "FlightRecorder",
    "RecorderDump",
    "frame_digest",
    "to_prometheus",
]
