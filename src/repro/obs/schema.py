"""The versioned trace-event schema shared by every host.

One event vocabulary covers the simulator (``repro.core.host`` via the
DES bridge), the live runtime (``repro.live.host``) and the harness
(sweeps): an event is a flat JSON object with a schema version, an
event type, the emitting host kind, a process id and a
host-clock timestamp, plus type-specific fields.  Everything a sink
writes and everything ``repro trace report`` reads round-trips through
:func:`encode_event` / :func:`decode_event`, and
:func:`validate_event` rejects unknown event types, unknown span
phases, missing fields and version skew — the CI trace-smoke job fails
a run on the first invalid event.

Span taxonomy (the protocol phases of the paper):

==============  ==============================================================
``run``         one whole execution (experiment or live run)
``tentative``   tentative-take → finalization of one ``C_{i,k}`` at one pid
``round``       a global checkpoint round (CK_BGN/CK_REQ/CK_END traffic;
                derived per-csn across pids by the report)
``finalize``    the finalize/flush action itself (storage write of CT+log)
``flush``       one stable-storage write (arrive → finish)
``recovery``    crash → rolled-back-and-reconnected (live supervisor span)
==============  ==============================================================

:func:`validate_metrics_snapshot` checks a
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` (the payload of a
``metrics`` event).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: Bump on any incompatible event-shape change; decoders reject other
#: versions rather than guessing.
SCHEMA_VERSION = 1

#: Every legal event type.  ``span.start``/``span.end`` bracket a phase,
#: ``point`` is an instantaneous protocol occurrence, ``counter`` is a
#: single metric increment, ``metrics`` carries a full registry snapshot,
#: ``profile`` carries profiling samples (events/sec, heap size, loop lag).
EVENT_TYPES = ("span.start", "span.end", "point", "counter", "metrics",
               "profile")

#: The span taxonomy (see module docstring).
PHASES = ("run", "tentative", "round", "finalize", "flush", "recovery")

#: Host kinds an event can originate from.
HOSTS = ("des", "live", "harness")

#: The ``point`` name vocabulary — every instantaneous protocol
#: occurrence any host emits.  REP108 checks both directions statically:
#: every ``tracer.point(...)`` emission in the tree must be listed here
#: (or match a prefix below), and every name here must have a live
#: emission site — so reports and dashboards filtering by name can trust
#: the list.  ``validate_event`` deliberately does *not* enforce it at
#: runtime: third-party sinks may extend the vocabulary, the static
#: check is about *this* tree's emitters.
POINT_NAMES = (
    # protocol control traffic and checkpoint actions
    "ctl.send", "ctl.recv", "ckpt.rollback", "ckpt.anomaly",
    # injected faults (see repro.chaos)
    "chaos.drop", "chaos.duplicate", "chaos.delay", "chaos.reorder",
    "chaos.partition", "chaos.storage", "chaos.heal", "chaos.cell",
    "partition.begin", "partition.heal",
    # crash/recovery lifecycle
    "failure.crash", "recovery.complete",
    # live transport resilience
    "net.retry", "net.give_up",
    # harness
    "sweep.run",
)

#: Prefixes under which dynamically-composed point names may fall
#: (``f"chaos.{kind}"`` in the live injector).
POINT_NAME_PREFIXES = ("chaos.",)

#: The ``profile`` name vocabulary (see :mod:`repro.obs.profile`).
PROFILE_NAMES = ("des.engine", "live.loop_lag")

#: Fields every event must carry.
_COMMON_REQUIRED = ("v", "ev", "host", "pid", "t")

#: Extra required fields per event type.
_TYPE_REQUIRED: dict[str, tuple[str, ...]] = {
    "span.start": ("phase", "key"),
    "span.end": ("phase", "key"),
    "point": ("name",),
    "counter": ("name", "value"),
    "metrics": ("attrs",),
    "profile": ("name",),
}


class SchemaError(ValueError):
    """An event (or metrics snapshot) does not conform to the schema."""


@dataclass(frozen=True)
class TraceEvent:
    """One schema-conformant observability event.

    ``t`` is the emitting host's own clock — simulated seconds for
    ``host="des"``, ``loop.time()`` (CLOCK_MONOTONIC) seconds for
    ``host="live"`` — never mixed within one stream.  ``key`` correlates
    a ``span.start`` with its ``span.end`` (e.g. ``"2:5"`` for pid 2,
    csn 5); ``attrs`` carries free-form JSON-safe extras.
    """

    ev: str
    host: str
    pid: int
    t: float
    phase: str | None = None
    name: str | None = None
    key: str | None = None
    value: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


def encode_event(event: TraceEvent) -> dict[str, Any]:
    """Flatten a :class:`TraceEvent` into its versioned JSON object."""
    out: dict[str, Any] = {
        "v": SCHEMA_VERSION,
        "ev": event.ev,
        "host": event.host,
        "pid": event.pid,
        "t": event.t,
    }
    if event.phase is not None:
        out["phase"] = event.phase
    if event.name is not None:
        out["name"] = event.name
    if event.key is not None:
        out["key"] = event.key
    if event.value is not None:
        out["value"] = event.value
    if event.attrs:
        out["attrs"] = dict(event.attrs)
    return out


def validate_event(data: Mapping[str, Any]) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a legal event."""
    if not isinstance(data, Mapping):
        raise SchemaError(f"event must be an object, got {type(data).__name__}")
    missing = [k for k in _COMMON_REQUIRED if k not in data]
    if missing:
        raise SchemaError(f"event missing required fields {missing}: {data!r}")
    if data["v"] != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {data['v']!r} "
            f"(this reader speaks {SCHEMA_VERSION})")
    ev = data["ev"]
    if ev not in EVENT_TYPES:
        raise SchemaError(f"unknown event type {ev!r}; "
                          f"known: {sorted(EVENT_TYPES)}")
    if data["host"] not in HOSTS:
        raise SchemaError(f"unknown host kind {data['host']!r}; "
                          f"known: {sorted(HOSTS)}")
    if not isinstance(data["pid"], int) or isinstance(data["pid"], bool):
        raise SchemaError(f"pid must be an int, got {data['pid']!r}")
    if not isinstance(data["t"], (int, float)) or isinstance(data["t"], bool):
        raise SchemaError(f"t must be a number, got {data['t']!r}")
    missing = [k for k in _TYPE_REQUIRED[ev] if k not in data]
    if missing:
        raise SchemaError(f"{ev} event missing fields {missing}: {data!r}")
    phase = data.get("phase")
    if phase is not None and phase not in PHASES:
        raise SchemaError(f"unknown span phase {phase!r}; "
                          f"known: {sorted(PHASES)}")
    if ev == "counter" and not isinstance(data["value"], (int, float)):
        raise SchemaError(f"counter value must be a number: {data!r}")
    attrs = data.get("attrs", {})
    if not isinstance(attrs, Mapping):
        raise SchemaError(f"attrs must be an object, got {attrs!r}")


def decode_event(data: Mapping[str, Any]) -> TraceEvent:
    """Validate and rebuild a :class:`TraceEvent` from its JSON object."""
    validate_event(data)
    return TraceEvent(
        ev=data["ev"], host=data["host"], pid=data["pid"],
        t=float(data["t"]), phase=data.get("phase"), name=data.get("name"),
        key=data.get("key"),
        value=(None if data.get("value") is None else float(data["value"])),
        attrs=dict(data.get("attrs", {})))


# --------------------------------------------------------------------------
# metrics snapshot
# --------------------------------------------------------------------------

#: Required keys of one histogram summary in a metrics snapshot.
_HIST_REQUIRED = ("count", "sum", "min", "max", "mean")


def validate_metrics_snapshot(snapshot: Mapping[str, Any]) -> None:
    """Raise :class:`SchemaError` unless ``snapshot`` is a legal
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` payload."""
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            raise SchemaError(f"metrics snapshot missing {section!r}")
        if not isinstance(snapshot[section], Mapping):
            raise SchemaError(f"metrics {section} must be an object")
    for name in sorted(snapshot["counters"]):
        v = snapshot["counters"][name]
        if not isinstance(v, (int, float)):
            raise SchemaError(f"counter {name!r} must be a number, got {v!r}")
    for name in sorted(snapshot["gauges"]):
        v = snapshot["gauges"][name]
        if not isinstance(v, (int, float)):
            raise SchemaError(f"gauge {name!r} must be a number, got {v!r}")
    for name in sorted(snapshot["histograms"]):
        h = snapshot["histograms"][name]
        if not isinstance(h, Mapping):
            raise SchemaError(f"histogram {name!r} must be an object")
        missing = [k for k in _HIST_REQUIRED if k not in h]
        if missing:
            raise SchemaError(f"histogram {name!r} missing {missing}")
