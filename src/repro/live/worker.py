"""One live worker body, run by both backends.

:class:`Worker` is one process of a live run: journal, tracer, stable
storage, endpoint stack (:func:`build_endpoint`), a
:class:`~repro.live.host.LiveHost` (``start()`` or restart-from-disk
``resume(seq)``) and the traffic driver.  The local backend of
:mod:`repro.live.supervisor` runs workers as tasks beside the supervisor;
``python -m repro.live.worker --dir RUN_DIR --pid P --port PORT --inc INC
[--resume-seq SEQ]`` runs one in its own OS process, connected to the
supervisor's broker, with its :class:`LiveRunConfig` read from
``RUN_DIR/config.json``.

The worker never decides to stop or recover on its own: ``stop`` and
``recover`` frames from the supervisor drive the lifecycle, a dropped
broker connection ends the process, and a process stops itself
``duration`` + :data:`LIFETIME_SLACK` seconds after it started, so it can
never outlive a dead supervisor.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Sequence

from ..obs import JsonlSink, Tracer
from .host import LiveHost
from .journal import Journal
from .storage import FileStableStorage
from .transport import Endpoint, connect_tcp
from .workload import LIVE_WORKLOADS, drive, make_traffic

#: Run-directory file holding the run's serialized :class:`LiveRunConfig`.
CONFIG_FILE = "config.json"

#: Seconds a worker may outlive its run's ``duration`` before it stops.
LIFETIME_SLACK = 60.0


@dataclass
class LiveRunConfig:
    """Everything one live run needs (CLI flags map 1:1 onto fields)."""

    n: int = 4
    transport: str = "local"            # "local" | "tcp"
    duration: float = 5.0               # wall seconds of application work
    checkpoint_interval: float = 1.0    # initiation period (wall seconds)
    timeout: float = 0.5                # convergence timer (wall seconds)
    workload: str = "uniform"
    rate: float = 20.0                  # app msgs / process / second
    msg_size: int = 256
    seed: int = 0
    crash_at: float | None = None       # inject a crash this far into the run
    crash_pid: int | None = None        # victim (default: highest pid)
    run_dir: str | None = None          # default: .repro-live/run-...
    stop_grace: float = 10.0            # max wait for clean worker shutdown
    trace: bool = False                 # repro.obs tracing (per-worker JSONL)
    # -- connection establishment -------------------------------------------
    connect_timeout: float = 10.0       # per-attempt worker→broker timeout
    connect_attempts: int = 5           # worker→broker connection retries
    connect_wait: float = 30.0          # supervisor wait for all workers
    # -- resilient transport layer (repro.live.resilience) ------------------
    resilience: bool = True             # bounded-retry send + ack/dedup
    max_retries: int = 6                # retransmissions per frame
    retry_base: float = 0.05            # first and least timeout (seconds)
    retry_max: float = 1.0              # timeout ceiling (seconds)
    # -- fault injection (repro.chaos) --------------------------------------
    chaos: Any = None                   # FaultPlan | None
    # -- cooperative early stop (repro.serve cancellation hook) -------------
    #: A ``threading.Event`` settable from any thread: once set, the
    #: supervisor cuts the remaining application-work window short and
    #: runs the normal clean-stop path (stop broadcast, worker drain,
    #: conformance replay) — a checkpoint-cancel, not an abort.
    stop_event: Any = None

    def validate(self) -> None:
        """Reject configurations that cannot run."""
        if self.n < 2:
            raise ValueError("live runs need at least 2 workers")
        if self.transport not in ("local", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.workload not in LIVE_WORKLOADS:
            raise ValueError(f"unknown live workload {self.workload!r}; "
                             f"choices: {sorted(LIVE_WORKLOADS)}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.crash_at is not None and not (
                0 < self.crash_at < self.duration):
            raise ValueError("crash_at must fall inside the run duration")
        if self.crash_pid is not None and not (0 <= self.crash_pid < self.n):
            raise ValueError(f"crash_pid {self.crash_pid} out of range")
        if self.connect_wait <= 0 or self.connect_timeout <= 0:
            raise ValueError("connection timeouts must be positive")
        if self.connect_attempts < 1:
            raise ValueError("connect_attempts must be at least 1")
        if self.chaos is not None:
            self.chaos.validate()

    @property
    def victim(self) -> int:
        """The pid a crash injection kills (never P_0, the coordinator,
        unless explicitly requested — killing the highest pid exercises the
        general path; crashing P_0 is a separate experiment)."""
        return self.crash_pid if self.crash_pid is not None else self.n - 1

    def to_json(self) -> str:
        """The ``config.json`` text, the fault plan in its ``as_dict``
        form.  ``run_dir`` (the worker's ``--dir``) and ``stop_event`` (a
        ``threading.Event``) stay with the supervisor."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("run_dir", "stop_event")}
        if self.chaos is not None:
            data["chaos"] = self.chaos.as_dict()
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LiveRunConfig":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        if data.get("chaos") is not None:
            from ..chaos.plan import FaultPlan
            data["chaos"] = FaultPlan.from_dict(data["chaos"])
        return cls(**data)


# --------------------------------------------------------------------------
# the worker body
# --------------------------------------------------------------------------


def build_endpoint(inner: Endpoint, storage: FileStableStorage,
                   cfg: LiveRunConfig, *, incarnation: int = 0,
                   tracer: Tracer | None = None
                   ) -> tuple[Endpoint, Any, Any, Any]:
    """Stack the chaos and resilience layers around a raw endpoint.

    Order matters: chaos sits *below* resilience
    (``host -> resilient -> chaos -> wire``) so retransmissions traverse
    the faulty wire again.  Returns ``(endpoint, chaos, chaos_storage,
    resilient)`` — the wrappers are exposed so the run-end evidence
    (:meth:`Worker.journal_chaos_evidence`) can read their counters.  A
    worker without a layer never imports it.
    """
    chaos = chaos_store = resilient = None
    if cfg.chaos is not None and cfg.chaos:
        from ..chaos.live import ChaosEndpoint, chaos_storage
        chaos = ChaosEndpoint(inner, cfg.chaos, seed=cfg.seed,
                              tracer=tracer)
        chaos_store = chaos_storage(storage, cfg.chaos, seed=cfg.seed)
        inner = chaos
    if cfg.resilience:
        from .resilience import ResilienceConfig, ResilientEndpoint
        resilient = ResilientEndpoint(
            inner,
            ResilienceConfig(max_retries=cfg.max_retries,
                             base_delay=cfg.retry_base,
                             max_delay=cfg.retry_max),
            incarnation=incarnation, tracer=tracer)
        inner = resilient
    return inner, chaos, chaos_store, resilient


class Worker:
    """One worker incarnation, running on the current event loop.

    Construction starts it: ``task`` dispatches frames until a ``stop``
    frame or a closed transport, and ``driver`` sends the workload's
    traffic meanwhile.  Whoever runs the worker then ends it with
    :meth:`finish` (clean stop) or :meth:`kill` (crash).
    """

    def __init__(self, cfg: LiveRunConfig, run_dir: str | Path, pid: int,
                 incarnation: int, raw: Endpoint,
                 resume_seq: int | None = None) -> None:
        self.journal = Journal(run_dir, pid, incarnation)
        self.tracer: Tracer | None = None
        if cfg.trace:
            self.tracer = Tracer(
                [JsonlSink(Path(run_dir)
                           / f"trace-P{pid}-{incarnation}.jsonl")],
                host="live", pid=pid)
        self.storage = FileStableStorage(run_dir, pid)
        self.endpoint, self.chaos, self.chaos_storage, self.resilient = (
            build_endpoint(raw, self.storage, cfg, incarnation=incarnation,
                           tracer=self.tracer))
        # Journal-before-send through a batched wire: flush buffered
        # journal records (the "send" events, REP107) before every write.
        self.endpoint.set_pre_flush(self.journal.flush)
        self.host = LiveHost(
            pid, cfg.n, self.endpoint, self.storage, self.journal,
            checkpoint_interval=cfg.checkpoint_interval,
            timeout=cfg.timeout, epoch=self.endpoint.epoch,
            incarnation=incarnation, tracer=self.tracer)
        if resume_seq is not None:
            self.host.resume(resume_seq)
        else:
            self.host.start()
        traffic = make_traffic(cfg.workload, cfg.n, pid, rate=cfg.rate,
                               msg_size=cfg.msg_size, seed=cfg.seed,
                               incarnation=incarnation)
        self.task = asyncio.ensure_future(self.host.run())
        self.driver = asyncio.ensure_future(drive(self.host, traffic))

    async def finish(self) -> None:
        """Clean stop: end the traffic, journal the chaos evidence, drain
        the wire and close everything."""
        self.driver.cancel()
        await asyncio.gather(self.driver, return_exceptions=True)
        self.journal_chaos_evidence()
        await self.endpoint.drain()
        self._close()

    def journal_chaos_evidence(self) -> None:
        """Journal the run-end ``chaos`` event when a chaos or resilience
        layer ran: faults injected vs recovery actions that healed them.
        Pure evidence for the chaos matrix and ``repro trace report`` —
        the conformance replay ignores the event kind."""
        if self.chaos is None and self.resilient is None:
            return
        injected = dict(self.chaos.injected) if self.chaos else {}
        if self.chaos_storage is not None:
            for kind, count in self.chaos_storage.injected.items():
                injected[kind] = injected.get(kind, 0) + count
        data: dict[str, Any] = {
            "injected": injected,
            "retried_writes": self.storage.retried_writes,
            "dup_dropped": self.host.dup_dropped,
        }
        if self.resilient is not None:
            data["resilience"] = self.resilient.stats.as_dict()
        self.journal.log("chaos", **data)

    async def kill(self) -> None:
        """Fail-stop crash: cancel both tasks and abandon all in-memory
        state; a crash journals nothing more and sends nothing more."""
        self.task.cancel()
        self.driver.cancel()
        await asyncio.gather(self.task, self.driver, return_exceptions=True)
        self._close()

    def _close(self) -> None:
        self.endpoint.close()
        self.journal.close()
        if self.tracer is not None:
            self.tracer.close()


# --------------------------------------------------------------------------
# process entry point (the TCP backend)
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Worker argv schema (the supervisor is the only intended caller)."""
    p = argparse.ArgumentParser(
        prog="repro-live-worker",
        description=f"One live worker process; the run's configuration "
                    f"is <dir>/{CONFIG_FILE}.")
    p.add_argument("--dir", required=True, help="run directory")
    p.add_argument("--pid", type=int, required=True)
    p.add_argument("--port", type=int, required=True, help="broker port")
    p.add_argument("--inc", type=int, default=0,
                   help="incarnation number (0 = first spawn)")
    p.add_argument("--resume-seq", type=int, default=None,
                   help="restart-from-disk: roll forward from this "
                        "finalized generation")
    return p


async def _serve(cfg: LiveRunConfig, args: argparse.Namespace) -> int:
    """Connect to the broker, then run one :class:`Worker` to its end."""
    try:
        raw = await connect_tcp(args.port, args.pid, args.inc,
                                timeout=cfg.connect_timeout,
                                attempts=cfg.connect_attempts)
    except ConnectionError as exc:
        print(f"repro-live-worker: {exc}", file=sys.stderr)
        return 1
    worker = Worker(cfg, args.dir, args.pid, args.inc, raw, args.resume_seq)
    try:
        await asyncio.wait_for(worker.task,
                               timeout=cfg.duration + LIFETIME_SLACK)
    except asyncio.TimeoutError:
        worker.host.stop()
    finally:
        await worker.finish()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Process entry point; returns the exit code."""
    args = build_parser().parse_args(argv)
    # Read the config (and import what its fault plan needs) *before*
    # connecting: the broker's connect marks this worker ready, and the
    # supervisor's run window starts once all workers are.
    cfg = LiveRunConfig.from_json(
        (Path(args.dir) / CONFIG_FILE).read_text(encoding="utf-8"))
    return asyncio.run(_serve(cfg, args))


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
