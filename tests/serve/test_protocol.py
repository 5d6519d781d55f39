"""``repro.serve/1`` schema: round-trips, strictness, exit codes.

Mirrors the obs schema-test style: hypothesis generates payloads across
the whole legal space and the properties assert that (a) every valid
payload survives JSON round-trip + re-validation unchanged, and (b) the
validators are *strict* — bad versions, unknown kinds, unknown fields
and type confusions are all rejected, never silently defaulted.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import TraceEvent, encode_event
from repro.serve import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    JOB_KINDS,
    SERVE_SCHEMA,
    ProtocolError,
    exit_code_for,
    validate_event,
    validate_job,
)
from repro.serve.protocol import (
    SPEC_FIELDS,
    TRANSITIONS,
    state_event,
    trace_event,
)

# -- strategies ------------------------------------------------------------

_job_ids = st.from_regex(r"j[0-9]{4}", fullmatch=True)
_seqs = st.integers(min_value=0, max_value=10_000)

_sweep_specs = st.fixed_dictionaries({
    "param": st.sampled_from(["n", "timeout", "checkpoint_interval"]),
    "values": st.lists(st.integers(min_value=2, max_value=64),
                       min_size=1, max_size=5),
}, optional={
    "protocols": st.lists(st.sampled_from(["optimistic", "koo-toueg"]),
                          min_size=1, max_size=2),
    "seed": st.integers(min_value=0, max_value=999),
    "jobs": st.integers(min_value=1, max_value=4),
    "horizon": st.floats(min_value=1.0, max_value=500.0,
                         allow_nan=False),
})

_live_specs = st.fixed_dictionaries({}, optional={
    "n": st.integers(min_value=2, max_value=6),
    "duration": st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    "seed": st.integers(min_value=0, max_value=999),
    "crash_at": st.one_of(st.none(),
                          st.floats(min_value=0.1, max_value=1.0,
                                    allow_nan=False)),
})


def _job(kind, spec, priority=0):
    return {"schema": SERVE_SCHEMA, "kind": kind, "spec": spec,
            "priority": priority}


# -- job round-trips -------------------------------------------------------


@given(spec=_sweep_specs, priority=st.integers(-5, 5))
def test_sweep_jobs_round_trip(spec, priority):
    normal = validate_job(_job("sweep", spec, priority))
    # Normal form: every field present, submitted values preserved.
    for key, value in spec.items():
        assert normal["spec"][key] == value
    assert set(normal["spec"]) == set(SPEC_FIELDS["sweep"])
    # JSON round-trip + re-validation is the identity on normal forms.
    again = validate_job(json.loads(json.dumps(normal)))
    assert again == normal


@given(spec=_live_specs)
def test_live_run_jobs_round_trip(spec):
    normal = validate_job(_job("live-run", spec))
    again = validate_job(json.loads(json.dumps(normal)))
    assert again == normal
    assert set(normal["spec"]) == set(SPEC_FIELDS["live-run"])


@given(kind=st.sampled_from(JOB_KINDS))
def test_defaults_validate_for_every_kind(kind):
    spec = {} if kind != "sweep" else {"param": "n", "values": [4]}
    normal = validate_job(_job(kind, spec))
    assert validate_job(normal) == normal


def test_every_kind_has_a_spec_table_and_a_scheduler_body():
    # Scheduler._run_body looks the body up by name; recover() fails
    # records of any other kind before they can reach it.
    from repro.serve import Scheduler
    assert set(SPEC_FIELDS) == set(JOB_KINDS)
    for kind in JOB_KINDS:
        assert callable(getattr(Scheduler,
                                "_body_" + kind.replace("-", "_")))


# -- job strictness --------------------------------------------------------


def test_bad_schema_version_is_rejected():
    with pytest.raises(ProtocolError, match="schema"):
        validate_job(_job("sweep", {"param": "n", "values": [4]})
                     | {"schema": "repro.serve/2"})
    with pytest.raises(ProtocolError, match="schema"):
        validate_job({"kind": "sweep",
                      "spec": {"param": "n", "values": [4]}})


def test_unknown_kind_is_rejected():
    with pytest.raises(ProtocolError, match="unknown job kind"):
        validate_job(_job("fuzz", {}))


def test_unknown_spec_field_is_rejected():
    with pytest.raises(ProtocolError, match="unknown sweep spec"):
        validate_job(_job("sweep", {"param": "n", "values": [4],
                                    "warp": 9}))


def test_unknown_top_level_field_is_rejected():
    with pytest.raises(ProtocolError, match="unknown job fields"):
        validate_job(_job("live-run", {}) | {"operator": "me"})


def test_missing_required_field_is_rejected():
    with pytest.raises(ProtocolError, match="requires field 'values'"):
        validate_job(_job("sweep", {"param": "n"}))


def test_type_confusion_is_rejected():
    with pytest.raises(ProtocolError, match="must be int"):
        validate_job(_job("sweep", {"param": "n", "values": [4],
                                    "seed": "zero"}))
    with pytest.raises(ProtocolError, match="got bool"):
        validate_job(_job("sweep", {"param": "n", "values": [4],
                                    "seed": True}))
    with pytest.raises(ProtocolError, match="must not be empty"):
        validate_job(_job("sweep", {"param": "n", "values": []}))
    with pytest.raises(ProtocolError, match="priority"):
        validate_job(_job("live-run", {}, priority="high"))


# -- events ----------------------------------------------------------------


@given(job_id=_job_ids, seq=_seqs,
       state=st.sampled_from(["queued", "running", "done", "failed",
                              "cancelled"]),
       error=st.one_of(st.none(), st.text(max_size=40)),
       ok=st.one_of(st.none(), st.booleans()))
def test_state_events_round_trip(job_id, seq, state, error, ok):
    event = state_event(job_id, seq, state, error=error, ok=ok)
    validate_event(json.loads(json.dumps(event)))


@given(job_id=_job_ids, seq=_seqs,
       t=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_trace_wrapper_events_round_trip(job_id, seq, t):
    inner = encode_event(TraceEvent(ev="point", host="harness", pid=-1,
                                    t=t, name="sweep.run",
                                    attrs={"n": 4}))
    event = trace_event(job_id, seq, inner)
    validate_event(json.loads(json.dumps(event)))
    # The wrapper carries the obs event byte-for-byte.
    assert event["event"] == inner


def test_event_strictness():
    good = state_event("j0001", 0, "queued")
    with pytest.raises(ProtocolError, match="schema"):
        validate_event(good | {"schema": "repro.serve/9"})
    with pytest.raises(ProtocolError, match="unknown event kind"):
        validate_event(good | {"ev": "job.started"})
    with pytest.raises(ProtocolError, match="unknown job state"):
        validate_event(good | {"state": "paused"})
    with pytest.raises(ProtocolError, match="'seq'"):
        validate_event(good | {"seq": -1})
    with pytest.raises(ProtocolError, match="'job'"):
        validate_event(good | {"job": ""})
    with pytest.raises(ProtocolError, match="unknown job.state fields"):
        validate_event(good | {"extra": 1})


def test_trace_event_with_invalid_inner_obs_event_is_rejected():
    with pytest.raises(ProtocolError, match="embedded obs event"):
        validate_event(trace_event("j0001", 3, {"ev": "nonsense"}))


# -- state machine + exit codes --------------------------------------------


def test_exit_codes_discriminate_outcomes():
    assert exit_code_for("done") == EXIT_OK == 0
    assert exit_code_for("failed") == EXIT_FAILURE == 1
    assert exit_code_for("cancelled") == EXIT_FAILURE == 1
    with pytest.raises(ProtocolError):
        exit_code_for("running")
    assert EXIT_USAGE == 2


def test_transition_table_is_a_dag_into_terminals():
    for state, nexts in TRANSITIONS.items():
        for nxt in nexts:
            assert nxt in TRANSITIONS
    for terminal in ("done", "failed", "cancelled"):
        assert TRANSITIONS[terminal] == ()
