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

Exports resolve on first use (:mod:`repro._lazy`): ``repro submit``
loads the client and the protocol, never the scheduler, and the server
loads the simulator only when its first sweep job runs.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
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

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "ServeClient": "client",
    "ServeClientError": "client",
    "EXIT_FAILURE": "protocol",
    "EXIT_OK": "protocol",
    "EXIT_USAGE": "protocol",
    "JOB_KINDS": "protocol",
    "JOB_STATES": "protocol",
    "ProtocolError": "protocol",
    "SERVE_SCHEMA": "protocol",
    "TERMINAL_STATES": "protocol",
    "exit_code_for": "protocol",
    "validate_event": "protocol",
    "validate_job": "protocol",
    "JobQueue": "queue",
    "Scheduler": "scheduler",
    "ServeServer": "server",
    "serve_forever": "server",
    "DEFAULT_STATE_DIR": "state",
    "JobRecord": "state",
    "JobStore": "state",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

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
