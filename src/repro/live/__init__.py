"""repro.live — a real asyncio runtime for the optimistic protocol.

Everything else in this repository exercises the Jiang–Manivannan
protocol inside a deterministic discrete-event simulator.  This package
runs the *same* pure :class:`repro.core.state_machine.OptimisticStateMachine`
outside the simulator: real wall-clock asyncio timers, real concurrency,
file-backed stable storage, and (optionally) real TCP sockets between
real OS processes — with SIGKILL crash injection and restart-from-disk
recovery.

Layout:

* :mod:`~repro.live.wire`        — length-prefixed binary frames
  carrying the piggyback ``(csn, stat, tentSet)`` via
  :mod:`repro.storage.serialize`;
* :mod:`~repro.live.transport`   — one broker routing wire bytes to
  in-process workers (a queue each) and TCP workers (a socket each);
* :mod:`~repro.live.storage`     — atomic file-backed stable storage and
  the on-disk recovery line (:func:`~repro.live.storage.durable_global_seq`);
* :mod:`~repro.live.journal`     — crash-safe per-worker event journals;
* :mod:`~repro.live.host`        — :class:`~repro.live.host.LiveHost`, the
  wall-clock executor for every protocol :class:`~repro.core.effects.Effect`;
* :mod:`~repro.live.workload`    — live realizations of the simulator's
  workload rate models;
* :mod:`~repro.live.worker`      — :class:`~repro.live.worker.LiveRunConfig`
  and the one worker body both backends run (journal, storage, endpoint
  stack, host, traffic), also as the ``python -m repro.live.worker``
  process entry point;
* :mod:`~repro.live.supervisor`  — start N workers, inject crashes,
  recover, report: one sequence over a local or a TCP backend;
* :mod:`~repro.live.conformance` — replay journals through
  :mod:`repro.causality` and assert Theorem 2 on the real run.

The names below load on first use (:mod:`repro._lazy`), because
``python -m repro.live.worker`` executes this file first: a worker
imports its host, journal, storage and transport — not the supervisor,
the conformance replay, numpy or the simulator.  A crashed worker's
restart is one Python start-up plus a reconnect, so what it imports *is*
the recovery time; ``repro verify --lint`` rule REP109 and
``tests/test_import_closure.py`` hold the closure.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .conformance import ConformanceReport, replay, supervisor_events
    from .host import LiveHost
    from .journal import Journal, iter_journal, read_journal, worker_events
    from .resilience import ResilienceConfig, ResilienceStats, ResilientEndpoint
    from .storage import FileStableStorage, durable_global_seq
    from .supervisor import (
        CrashOutcome,
        LiveRunReport,
        LiveSetupError,
        run_live,
        run_live_async,
    )
    from .transport import Broker, connect_tcp
    from .wire import MAX_INCARNATIONS, MAX_UID_COUNTER, SUPERVISOR, make_uid
    from .worker import LiveRunConfig
    from .workload import LIVE_WORKLOADS, LiveTraffic, drive, make_traffic

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "ConformanceReport": "conformance",
    "replay": "conformance",
    "supervisor_events": "conformance",
    "LiveHost": "host",
    "Journal": "journal",
    "iter_journal": "journal",
    "read_journal": "journal",
    "worker_events": "journal",
    "ResilienceConfig": "resilience",
    "ResilienceStats": "resilience",
    "ResilientEndpoint": "resilience",
    "FileStableStorage": "storage",
    "durable_global_seq": "storage",
    "CrashOutcome": "supervisor",
    "LiveRunReport": "supervisor",
    "LiveSetupError": "supervisor",
    "run_live": "supervisor",
    "run_live_async": "supervisor",
    "Broker": "transport",
    "connect_tcp": "transport",
    "MAX_INCARNATIONS": "wire",
    "MAX_UID_COUNTER": "wire",
    "SUPERVISOR": "wire",
    "make_uid": "wire",
    "LiveRunConfig": "worker",
    "LIVE_WORKLOADS": "workload",
    "LiveTraffic": "workload",
    "drive": "workload",
    "make_traffic": "workload",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "Broker",
    "ConformanceReport",
    "CrashOutcome",
    "FileStableStorage",
    "Journal",
    "LIVE_WORKLOADS",
    "LiveHost",
    "LiveRunConfig",
    "LiveRunReport",
    "LiveSetupError",
    "LiveTraffic",
    "MAX_INCARNATIONS",
    "MAX_UID_COUNTER",
    "ResilienceConfig",
    "ResilienceStats",
    "ResilientEndpoint",
    "SUPERVISOR",
    "connect_tcp",
    "drive",
    "durable_global_seq",
    "iter_journal",
    "make_traffic",
    "make_uid",
    "read_journal",
    "replay",
    "run_live",
    "run_live_async",
    "supervisor_events",
    "worker_events",
]
