"""The ``repro.serve/1`` wire schema: jobs, events, exit codes.

Everything crossing the server boundary — job submissions over
``POST /jobs``, lifecycle/trace events over the WebSocket — is a JSON
object stamped ``"schema": "repro.serve/1"`` and validated *strictly* on
both sides: unknown top-level keys, unknown job kinds, unknown spec
fields and type mismatches are all rejected with a
:class:`ProtocolError` rather than silently defaulted, mirroring the
discipline of :mod:`repro.obs.schema` (an old reader must fail loudly on
a new writer, never misread it).

Two payload families:

* **jobs** — ``{"schema", "kind", "spec", "priority"?}``; ``kind``
  selects one of :data:`JOB_KINDS` and ``spec`` is checked against that
  kind's field table (:data:`SPEC_FIELDS`), every field typed, defaulted
  and bounded here so the scheduler never sees a malformed spec;
* **events** — ``{"schema", "ev", "job", "seq", ...}``; ``job.state``
  carries a :data:`JOB_STATES` transition, ``trace`` wraps one
  schema-valid :mod:`repro.obs` event (so a client can extract the inner
  stream and feed it to ``repro trace validate`` unchanged).

Exit codes follow the repo-wide convention (:func:`exit_code_for`):
0 — the job finished and its own acceptance bar held; 1 — the job
failed, was cancelled, or an invariant broke; 2 — usage error (bad
spec, unknown kind, malformed request).
"""

from __future__ import annotations

import base64
import hashlib
from typing import Any, Mapping

#: Version stamp carried by every serve payload.
SERVE_SCHEMA = "repro.serve/1"

#: The job kinds the scheduler knows how to run.
JOB_KINDS = ("sweep", "chaos-matrix", "live-run")

#: Per-job state machine states (see :data:`TRANSITIONS`).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Legal state-machine moves; anything else is a scheduler bug.
TRANSITIONS: dict[str, tuple[str, ...]] = {
    "queued": ("running", "cancelled", "failed"),
    "running": ("done", "failed", "cancelled"),
    "done": (),
    "failed": (),
    "cancelled": (),
}

#: Event kinds on the serve stream.
EVENT_KINDS = ("job.state", "trace")

#: RFC 6455 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


def _ws_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value answering ``key`` (RFC 6455):
    the server sends it, the client checks it."""
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


# -- exit codes ------------------------------------------------------------

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def exit_code_for(state: str) -> int:
    """Map a terminal job state onto the CLI exit-code convention."""
    if state == "done":
        return EXIT_OK
    if state in ("failed", "cancelled"):
        return EXIT_FAILURE
    raise ProtocolError(f"job state {state!r} is not terminal")


class ProtocolError(ValueError):
    """A payload that violates the ``repro.serve/1`` schema."""


# -- job spec field tables -------------------------------------------------

#: ``field -> (allowed types, default)``; a ``REQUIRED`` default means the
#: submitter must supply the field.  Collection-valued fields additionally
#: constrain their element types in :func:`_check_field`.
REQUIRED = object()

_NUM = (int, float)

SPEC_FIELDS: dict[str, dict[str, tuple[tuple[type, ...], Any]]] = {
    "sweep": {
        "param": ((str,), REQUIRED),
        "values": ((list,), REQUIRED),
        "protocols": ((list,), ["optimistic"]),
        "n": ((int,), 6),
        "seed": ((int,), 0),
        "horizon": (_NUM, 120.0),
        "interval": (_NUM, 30.0),
        "jobs": ((int,), 1),
        "verify": ((bool,), True),
        "timeout_s": (_NUM, None),
    },
    "chaos-matrix": {
        "kinds": ((list,), ["drop", "crash"]),
        "runtimes": ((list,), ["des"]),
        "seed": ((int,), 0),
        "transport": ((str,), "local"),
        "duration": (_NUM, 2.5),
        "jobs": ((int,), 1),
        "timeout_s": (_NUM, None),
    },
    "live-run": {
        "n": ((int,), 3),
        "transport": ((str,), "local"),
        "duration": (_NUM, 2.0),
        "interval": (_NUM, 0.35),
        "timeout": (_NUM, 0.15),
        "rate": (_NUM, 30.0),
        "seed": ((int,), 0),
        "crash_at": (_NUM, None),
        "workload": ((str,), "uniform"),
        "timeout_s": (_NUM, None),
    },
}

#: Element types for the list-valued spec fields.
_LIST_ELEMENTS: dict[str, tuple[type, ...]] = {
    "values": (int, float, str),
    "protocols": (str,),
    "kinds": (str,),
    "runtimes": (str,),
}


def _check_field(kind: str, name: str, value: Any,
                 types: tuple[type, ...]) -> Any:
    """One typed spec field: exact type check (bool is not an int)."""
    if value is None and types == _NUM:
        return None          # optional numeric (crash_at, timeout_s)
    if isinstance(value, bool) and bool not in types:
        raise ProtocolError(
            f"{kind} spec field {name!r} must be "
            f"{'/'.join(t.__name__ for t in types)}, got bool")
    if not isinstance(value, types):
        raise ProtocolError(
            f"{kind} spec field {name!r} must be "
            f"{'/'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}")
    if name == "timeout_s" and value is not None and value <= 0:
        raise ProtocolError(
            f"{kind} spec field 'timeout_s' must be positive, "
            f"got {value!r}")
    if isinstance(value, list):
        elems = _LIST_ELEMENTS[name]
        if not value:
            raise ProtocolError(
                f"{kind} spec field {name!r} must not be empty")
        for item in value:
            if isinstance(item, bool) or not isinstance(item, elems):
                raise ProtocolError(
                    f"{kind} spec field {name!r} elements must be "
                    f"{'/'.join(t.__name__ for t in elems)}, "
                    f"got {item!r}")
    return value


def validate_job(data: Mapping[str, Any]) -> dict[str, Any]:
    """Strictly validate one job submission; return its normal form.

    The normal form has every spec field present (defaults applied) and
    exactly the keys ``schema``/``kind``/``spec``/``priority`` — the
    shape the scheduler persists and hashes.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError(f"job payload must be an object, got "
                            f"{type(data).__name__}")
    unknown = set(data) - {"schema", "kind", "spec", "priority"}
    if unknown:
        raise ProtocolError(f"unknown job fields {sorted(unknown)}")
    if data.get("schema") != SERVE_SCHEMA:
        raise ProtocolError(
            f"job schema is {data.get('schema')!r} "
            f"(this server speaks {SERVE_SCHEMA})")
    kind = data.get("kind")
    if kind not in JOB_KINDS:
        raise ProtocolError(f"unknown job kind {kind!r}; "
                            f"choices: {list(JOB_KINDS)}")
    priority = data.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ProtocolError(f"priority must be an int, got {priority!r}")
    raw_spec = data.get("spec", {})
    if not isinstance(raw_spec, Mapping):
        raise ProtocolError(f"spec must be an object, got "
                            f"{type(raw_spec).__name__}")
    table = SPEC_FIELDS[kind]
    unknown = set(raw_spec) - set(table)
    if unknown:
        raise ProtocolError(
            f"unknown {kind} spec fields {sorted(unknown)}; "
            f"known: {sorted(table)}")
    spec: dict[str, Any] = {}
    for name, (types, default) in table.items():
        if name in raw_spec:
            spec[name] = _check_field(kind, name, raw_spec[name], types)
        elif default is REQUIRED:
            raise ProtocolError(f"{kind} spec requires field {name!r}")
        else:
            spec[name] = default
    return {"schema": SERVE_SCHEMA, "kind": kind, "spec": spec,
            "priority": priority}


def validate_event(data: Mapping[str, Any]) -> None:
    """Strictly validate one serve stream event (raises on violation)."""
    if not isinstance(data, Mapping):
        raise ProtocolError(f"event must be an object, got "
                            f"{type(data).__name__}")
    if data.get("schema") != SERVE_SCHEMA:
        raise ProtocolError(
            f"event schema is {data.get('schema')!r} "
            f"(this reader speaks {SERVE_SCHEMA})")
    ev = data.get("ev")
    if ev not in EVENT_KINDS:
        raise ProtocolError(f"unknown event kind {ev!r}; "
                            f"choices: {list(EVENT_KINDS)}")
    if not isinstance(data.get("job"), str) or not data["job"]:
        raise ProtocolError("event field 'job' must be a non-empty string")
    seq = data.get("seq")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise ProtocolError(f"event field 'seq' must be an int >= 0, "
                            f"got {seq!r}")
    base = {"schema", "ev", "job", "seq"}
    if ev == "job.state":
        allowed = base | {"state", "error", "ok"}
        unknown = set(data) - allowed
        if unknown:
            raise ProtocolError(
                f"unknown job.state fields {sorted(unknown)}")
        if data.get("state") not in JOB_STATES:
            raise ProtocolError(f"unknown job state {data.get('state')!r}; "
                                f"choices: {list(JOB_STATES)}")
        if "error" in data and data["error"] is not None \
                and not isinstance(data["error"], str):
            raise ProtocolError("job.state field 'error' must be a string")
        if "ok" in data and not isinstance(data["ok"], bool):
            raise ProtocolError("job.state field 'ok' must be a bool")
    else:  # trace
        unknown = set(data) - (base | {"event"})
        if unknown:
            raise ProtocolError(f"unknown trace fields {sorted(unknown)}")
        inner = data.get("event")
        if not isinstance(inner, Mapping):
            raise ProtocolError("trace field 'event' must be an object")
        from ..obs.schema import SchemaError
        from ..obs.schema import validate_event as validate_obs_event
        try:
            validate_obs_event(inner)
        except SchemaError as exc:
            raise ProtocolError(f"embedded obs event invalid: {exc}") \
                from None


def state_event(job_id: str, seq: int, state: str, *,
                error: str | None = None,
                ok: bool | None = None) -> dict[str, Any]:
    """Build one ``job.state`` event in wire form."""
    out: dict[str, Any] = {"schema": SERVE_SCHEMA, "ev": "job.state",
                           "job": job_id, "seq": seq, "state": state}
    if error is not None:
        out["error"] = error
    if ok is not None:
        out["ok"] = ok
    return out


def trace_event(job_id: str, seq: int,
                obs_event: Mapping[str, Any]) -> dict[str, Any]:
    """Build one ``trace`` wrapper event around an encoded obs event."""
    return {"schema": SERVE_SCHEMA, "ev": "trace", "job": job_id,
            "seq": seq, "event": dict(obs_event)}
