"""repro.obs — the unified observability layer.

One versioned event schema, one :class:`Tracer` interface, one
:class:`MetricsRegistry`, shared by the simulator, the live runtime and
the harness; see docs/OBSERVABILITY.md for the span taxonomy, sink
catalogue and determinism contract.
"""

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
from .sinks import (
    BroadcastSink,
    DashboardSink,
    JsonlSink,
    MemorySink,
    Subscription,
)
from .tracer import NULL_TRACER, NullTracer, Tracer

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
