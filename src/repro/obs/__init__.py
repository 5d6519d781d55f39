"""repro.obs — the unified observability layer.

One versioned event schema, one :class:`Tracer` interface, one
:class:`MetricsRegistry`, shared by the simulator, the live runtime and
the harness; see docs/OBSERVABILITY.md for the span taxonomy, sink
catalogue and determinism contract.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bridge import DesBridge, attach_des_tracer
    from .metrics import Counter, Gauge, Histogram, MetricsRegistry
    from .profile import DesProfiler, LoopLagProbe, wall_now
    from .report import (
        PhaseStats,
        Span,
        TraceReport,
        build_report,
        load_events,
        pair_spans,
        report_from,
        round_spans,
        validate_file,
    )
    from .schema import (
        EVENT_TYPES,
        HOSTS,
        PHASES,
        SCHEMA_VERSION,
        SchemaError,
        TraceEvent,
        decode_event,
        encode_event,
        validate_event,
        validate_metrics_snapshot,
    )
    from .sinks import BroadcastSink, DashboardSink, JsonlSink, MemorySink, Subscription
    from .tracer import NULL_TRACER, NullTracer, Tracer

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "DesBridge": "bridge",
    "attach_des_tracer": "bridge",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "DesProfiler": "profile",
    "LoopLagProbe": "profile",
    "wall_now": "profile",
    "PhaseStats": "report",
    "Span": "report",
    "TraceReport": "report",
    "build_report": "report",
    "load_events": "report",
    "pair_spans": "report",
    "report_from": "report",
    "round_spans": "report",
    "validate_file": "report",
    "EVENT_TYPES": "schema",
    "HOSTS": "schema",
    "PHASES": "schema",
    "SCHEMA_VERSION": "schema",
    "SchemaError": "schema",
    "TraceEvent": "schema",
    "decode_event": "schema",
    "encode_event": "schema",
    "validate_event": "schema",
    "validate_metrics_snapshot": "schema",
    "BroadcastSink": "sinks",
    "DashboardSink": "sinks",
    "JsonlSink": "sinks",
    "MemorySink": "sinks",
    "Subscription": "sinks",
    "NULL_TRACER": "tracer",
    "NullTracer": "tracer",
    "Tracer": "tracer",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "BroadcastSink",
    "Counter",
    "DashboardSink",
    "DesBridge",
    "DesProfiler",
    "EVENT_TYPES",
    "Gauge",
    "HOSTS",
    "Histogram",
    "JsonlSink",
    "LoopLagProbe",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PHASES",
    "PhaseStats",
    "SCHEMA_VERSION",
    "SchemaError",
    "Span",
    "Subscription",
    "TraceEvent",
    "TraceReport",
    "Tracer",
    "attach_des_tracer",
    "build_report",
    "decode_event",
    "encode_event",
    "load_events",
    "pair_spans",
    "report_from",
    "round_spans",
    "validate_event",
    "validate_file",
    "validate_metrics_snapshot",
    "wall_now",
]
