"""Schema validation + encode/decode round-trips (hypothesis-driven).

The event vocabulary is the contract between both hosts and every
consumer (`repro trace report`, the CI smoke job, external tooling), so
the round-trip property is load-bearing: any event the Tracer can build
must survive encode → JSON → decode unchanged.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
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

# -- strategies ------------------------------------------------------------

_times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                   allow_infinity=False)
_pids = st.integers(min_value=-1, max_value=1000)
_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                           whitelist_characters=".:_-"),
    min_size=1, max_size=30)
_attr_values = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    st.booleans(),
    _names,
)
_attrs = st.dictionaries(_names, _attr_values, max_size=5)


@st.composite
def events(draw) -> TraceEvent:
    ev = draw(st.sampled_from(EVENT_TYPES))
    host = draw(st.sampled_from(HOSTS))
    pid = draw(_pids)
    t = draw(_times)
    attrs = draw(_attrs)
    if ev in ("span.start", "span.end"):
        return TraceEvent(ev=ev, host=host, pid=pid, t=t,
                          phase=draw(st.sampled_from(PHASES)),
                          key=draw(_names), attrs=attrs)
    if ev == "counter":
        value = draw(st.floats(min_value=0, max_value=1e9, allow_nan=False,
                               allow_infinity=False))
        return TraceEvent(ev=ev, host=host, pid=pid, t=t,
                          name=draw(_names), value=value, attrs=attrs)
    if ev == "metrics":
        # metrics events carry a registry snapshot as attrs; the "attrs"
        # key is required so force at least one entry.
        return TraceEvent(ev=ev, host=host, pid=pid, t=t,
                          attrs={"counters": {}, "gauges": {},
                                 "histograms": {}})
    return TraceEvent(ev=ev, host=host, pid=pid, t=t, name=draw(_names),
                      attrs=attrs)


# -- round-trip properties ---------------------------------------------------


@given(events())
def test_encode_decode_round_trip(event):
    decoded = decode_event(encode_event(event))
    assert decoded == event


@given(events())
def test_round_trip_survives_json(event):
    wire = json.loads(json.dumps(encode_event(event)))
    assert decode_event(wire) == event


@given(events())
def test_encoded_events_validate(event):
    validate_event(encode_event(event))  # must not raise


# -- rejection cases ---------------------------------------------------------


def _base(**over):
    data = {"v": SCHEMA_VERSION, "ev": "point", "host": "des", "pid": 0,
            "t": 1.0, "name": "x"}
    data.update(over)
    return data


class TestValidateEvent:
    def test_version_skew_rejected(self):
        with pytest.raises(SchemaError, match="version"):
            validate_event(_base(v=SCHEMA_VERSION + 1))

    def test_unknown_event_type_rejected(self):
        with pytest.raises(SchemaError, match="unknown event type"):
            validate_event(_base(ev="span.middle"))

    def test_unknown_host_rejected(self):
        with pytest.raises(SchemaError, match="host"):
            validate_event(_base(host="mainframe"))

    def test_unknown_phase_rejected(self):
        data = _base(ev="span.start", phase="warmup", key="0:1")
        del data["name"]
        with pytest.raises(SchemaError, match="phase"):
            validate_event(data)

    def test_missing_common_field_rejected(self):
        data = _base()
        del data["t"]
        with pytest.raises(SchemaError, match="missing"):
            validate_event(data)

    def test_missing_type_field_rejected(self):
        data = _base(ev="counter")  # no value
        with pytest.raises(SchemaError, match="missing"):
            validate_event(data)

    def test_bool_pid_rejected(self):
        with pytest.raises(SchemaError, match="pid"):
            validate_event(_base(pid=True))

    def test_non_numeric_counter_value_rejected(self):
        with pytest.raises(SchemaError, match="value"):
            validate_event(_base(ev="counter", value="lots"))


class TestMetricsSnapshot:
    def test_histogram_missing_aggregate_rejected(self):
        with pytest.raises(SchemaError, match="histogram"):
            validate_metrics_snapshot(
                {"counters": {}, "gauges": {},
                 "histograms": {"x": {"count": 1, "sum": 1.0}}})
