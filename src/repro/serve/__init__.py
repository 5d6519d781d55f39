"""repro.serve — the asyncio job-server control plane.

A long-lived multi-client service that runs the repo's experiment farms
— sweeps, chaos matrices, live runs — as queued jobs over a
small HTTP/WebSocket protocol (``repro.serve/1``); see docs/SERVICE.md.

Layers:

* :mod:`.protocol`  — the versioned job/event wire schema + exit codes;
* :mod:`.state`     — durable job records under ``.repro-serve/``;
* :mod:`.queue`     — the priority FIFO;
* :mod:`.scheduler` — concurrency-capped dispatch onto the existing
  harness/chaos/live entry points, with cooperative cancellation;
* :mod:`.server`    — the asyncio streams HTTP/WebSocket front end;
* :mod:`.client`    — the synchronous client the CLI uses.
"""

from .client import ServeClient, ServeClientError
from .protocol import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    JOB_KINDS,
    JOB_STATES,
    SERVE_SCHEMA,
    TERMINAL_STATES,
    ProtocolError,
    exit_code_for,
    validate_event,
    validate_job,
)
from .queue import JobQueue
from .scheduler import Scheduler
from .server import ServeServer, serve_forever
from .state import DEFAULT_STATE_DIR, JobRecord, JobStore

__all__ = [
    "DEFAULT_STATE_DIR",
    "EXIT_FAILURE",
    "EXIT_OK",
    "EXIT_USAGE",
    "JOB_KINDS",
    "JOB_STATES",
    "JobQueue",
    "JobRecord",
    "JobStore",
    "ProtocolError",
    "SERVE_SCHEMA",
    "Scheduler",
    "ServeClient",
    "ServeClientError",
    "ServeServer",
    "TERMINAL_STATES",
    "exit_code_for",
    "serve_forever",
    "validate_event",
    "validate_job",
]
