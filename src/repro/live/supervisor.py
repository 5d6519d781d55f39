"""Live run supervisor: spawn workers, inject crashes, verify the run.

``run_live`` is the one entry point (the CLI's ``repro live run`` is a
thin veneer over it).  It drives a complete live execution:

1. create a run directory (stable-storage subdirectories + journals);
2. start N workers — asyncio tasks over queue pairs (``transport="local"``)
   or real OS processes over localhost TCP (``transport="tcp"``);
3. let the configured workload run for ``duration`` wall seconds while the
   optimistic protocol checkpoints on real timers;
4. optionally inject one fail-stop crash (SIGKILL for TCP workers, task
   kill for local ones) at ``crash_at`` and execute the paper's recovery:
   compute the recovery line from the on-disk finalized generations
   (:func:`~repro.live.storage.durable_global_seq` — the live analogue of
   :class:`repro.recovery.restart.RecoveryManager`), broadcast a
   ``recover`` order bumping the epoch, and respawn the dead worker
   through the restart-from-disk path;
5. stop everything cleanly and replay the journals through
   :mod:`repro.live.conformance` to assert Theorem 2 on the real run.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..api import MetricsView
from ..obs import JsonlSink, LoopLagProbe, Tracer
from .conformance import ConformanceReport, replay
from .host import LiveHost
from .journal import Journal
from .resilience import ResilienceConfig, ResilientEndpoint
from .storage import FileStableStorage, durable_global_seq
from .transport import Endpoint, LocalTransport, TcpBroker
from .wire import recover_frame, stop_frame
from .workload import LIVE_WORKLOADS, drive, make_traffic

#: Default parent directory for run artifacts (gitignored).
DEFAULT_RUN_ROOT = ".repro-live"

#: File the supervisor writes a fault plan to for TCP workers to pick up.
CHAOS_PLAN_FILE = "chaos-plan.json"


class LiveSetupError(RuntimeError):
    """A live run could not even start (workers never connected, …).

    Distinct from a protocol failure: the CLI turns this into a clear
    one-line error and exit code 1 instead of a raw traceback.
    """


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
    # -- connection establishment (satellite: no more hard-coded timeouts) --
    connect_timeout: float = 10.0       # per-attempt worker→broker timeout
    connect_attempts: int = 5           # worker→broker connection retries
    connect_wait: float = 30.0          # supervisor wait for all workers
    # -- resilient transport layer (repro.live.resilience) ------------------
    resilience: bool = True             # bounded-retry send + ack/dedup
    max_retries: int = 6                # retransmissions per frame
    retry_base: float = 0.05            # first backoff delay (seconds)
    retry_max: float = 1.0              # backoff ceiling (seconds)
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


@dataclass
class CrashOutcome:
    """What one injected crash-and-recovery actually did."""

    pid: int
    killed_after: float          # wall seconds into the run
    recovered_seq: int           # the recovery line rolled back to
    recovery_seconds: float      # kill → dead worker reconnected
    epoch: int                   # post-recovery epoch


@dataclass
class LiveRunReport:
    """Outcome of one live run: conformance verdict + runtime stats."""

    config: LiveRunConfig
    conformance: ConformanceReport
    wall_seconds: float
    crash: CrashOutcome | None = None
    dropped_frames: int = 0
    #: Itemized transport losses: no_route / park_overflow / superseded.
    drop_causes: dict[str, int] = field(default_factory=dict)
    worker_exits: dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Acceptance: consistent, ≥1 finalized global checkpoint, and —
        when a crash was injected — a completed recovery."""
        recovered = self.config.crash_at is None or self.crash is not None
        return (self.conformance.consistent
                and len(self.conformance.rounds_completed) >= 1
                and recovered)

    @property
    def consistent(self) -> bool:
        """Theorem 2 on the real run (RunOutcome surface): the journal
        replay found every complete global checkpoint orphan-free."""
        return self.conformance.consistent

    @property
    def msgs_per_sec(self) -> float:
        """Delivered application messages per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.conformance.receives / self.wall_seconds

    @property
    def metrics(self) -> MetricsView:
        """Flat metrics record (RunOutcome surface), same shape idea as
        the simulator's ``RunMetrics.as_dict()``: scalar keys only."""
        return MetricsView({
            "protocol": "optimistic-live",
            "n": self.config.n,
            "wall_seconds": self.wall_seconds,
            "msgs_per_sec": self.msgs_per_sec,
            "app_messages": self.conformance.receives,
            "sends": self.conformance.sends,
            "rollbacks": self.conformance.rollbacks,
            "rounds_completed": len(self.conformance.rounds_completed),
            "orphans": sum(len(o)
                           for o in self.conformance.orphans.values()),
            "dropped_frames": self.dropped_frames,
            "recovery_seconds": (self.crash.recovery_seconds
                                 if self.crash else 0.0),
        })

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary (CLI ``--format json`` / CI assertions)."""
        out = {
            "transport": self.config.transport,
            "n": self.config.n,
            "duration": self.config.duration,
            "wall_seconds": round(self.wall_seconds, 3),
            "msgs_per_sec": round(self.msgs_per_sec, 1),
            "dropped_frames": self.dropped_frames,
            "dropped_by_cause": dict(sorted(self.drop_causes.items())),
            "ok": self.ok,
            "conformance": self.conformance.as_dict(),
        }
        if self.crash is not None:
            out["crash"] = {
                "pid": self.crash.pid,
                "killed_after": round(self.crash.killed_after, 3),
                "recovered_seq": self.crash.recovered_seq,
                "recovery_seconds": round(self.crash.recovery_seconds, 3),
                "epoch": self.crash.epoch,
            }
        return out

    def render(self) -> str:
        """Human-readable run summary."""
        lines = [
            f"live run — transport={self.config.transport} "
            f"n={self.config.n} duration={self.config.duration}s",
            f"  throughput:         {self.msgs_per_sec:.1f} msgs/s "
            f"({self.conformance.receives} delivered)",
        ]
        if self.crash is not None:
            lines.append(
                f"  crash/recovery:     P{self.crash.pid} killed at "
                f"t={self.crash.killed_after:.2f}s, rolled back to "
                f"S_{self.crash.recovered_seq}, recovered in "
                f"{self.crash.recovery_seconds:.3f}s")
        lines.append(self.conformance.render())
        lines.append(f"  RESULT:             {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


class _SupervisorLog:
    """The supervisor's own journal (``supervisor.jsonl``)."""

    def __init__(self, run_dir: Path) -> None:
        self._fh = (run_dir / "supervisor.jsonl").open("a", encoding="utf-8")

    def log(self, ev: str, **data: Any) -> None:
        """Append one supervisor event with a wall timestamp."""
        self._fh.write(json.dumps(
            {"ev": ev, "wall": time.time(), **data}, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Flush and close (idempotent)."""
        if not self._fh.closed:
            self._fh.close()


_run_counter = 0


def _new_run_dir(cfg: LiveRunConfig) -> Path:
    """Allocate a fresh run directory under :data:`DEFAULT_RUN_ROOT`."""
    global _run_counter
    if cfg.run_dir is not None:
        path = Path(cfg.run_dir)
    else:
        _run_counter += 1
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = Path(DEFAULT_RUN_ROOT) / (
            f"run-{stamp}-{os.getpid()}-{_run_counter}")
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_live(cfg: LiveRunConfig) -> LiveRunReport:
    """Execute one complete live run and verify it (blocking wrapper)."""
    return asyncio.run(run_live_async(cfg))


async def run_live_async(cfg: LiveRunConfig) -> LiveRunReport:
    """Async body of :func:`run_live` (tests drive this directly)."""
    cfg.validate()
    run_dir = _new_run_dir(cfg)
    sup = _SupervisorLog(run_dir)
    sup.log("run.start", n=cfg.n, transport=cfg.transport,
            duration=cfg.duration, seed=cfg.seed, workload=cfg.workload,
            crash_at=cfg.crash_at)
    # Supervisor-side tracing: its own JSONL stream (run span, recovery
    # span, event-loop-lag profile) next to the per-worker trace files.
    tracer: Tracer | None = None
    probe: LoopLagProbe | None = None
    loop = asyncio.get_running_loop()
    if cfg.trace:
        tracer = Tracer([JsonlSink(run_dir / "trace-supervisor.jsonl")],
                        host="live")
        probe = LoopLagProbe(tracer)
        probe.start()
        tracer.span_start("run", f"live:{cfg.transport}:{cfg.seed}",
                          loop.time(), n=cfg.n, transport=cfg.transport,
                          seed=cfg.seed)
    started = time.monotonic()
    try:
        if cfg.transport == "local":
            crash, dropped, causes, exits = await _run_local(cfg, run_dir,
                                                             sup, tracer)
        else:
            crash, dropped, causes, exits = await _run_tcp(cfg, run_dir,
                                                           sup, tracer)
    finally:
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.span_end("run", f"live:{cfg.transport}:{cfg.seed}",
                            loop.time())
            tracer.close()
        sup.log("run.end")
        sup.close()
    wall = time.monotonic() - started
    conformance = replay(run_dir, cfg.n)
    report = LiveRunReport(config=cfg, conformance=conformance,
                           wall_seconds=wall, crash=crash,
                           dropped_frames=dropped, drop_causes=causes,
                           worker_exits=exits)
    # Executor thread: the report write happens while worker loops may
    # still be draining; a sync write here would stall them (REP101).
    report_json = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    await loop.run_in_executor(
        None, lambda: (run_dir / "report.json").write_text(
            report_json, encoding="utf-8"))
    return report


#: Poll period for the external stop event (wall seconds).
_STOP_POLL = 0.05


async def _work_window(seconds: float, stop_event: Any) -> None:
    """Let the application run for ``seconds``, or less if ``stop_event``
    (a cross-thread ``threading.Event``) is set — the serve scheduler's
    cooperative checkpoint-cancel hook.  Plain sleep when no event is
    configured, so normal runs cost nothing extra."""
    if stop_event is None:
        await asyncio.sleep(seconds)
        return
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not stop_event.is_set():
        await asyncio.sleep(min(_STOP_POLL, seconds))


# --------------------------------------------------------------------------
# endpoint stack (shared by local workers here and TCP workers in worker.py)
# --------------------------------------------------------------------------


def build_endpoint(inner: Endpoint, storage: FileStableStorage,
                   cfg: LiveRunConfig, *, incarnation: int = 0,
                   tracer: Tracer | None = None
                   ) -> tuple[Endpoint, Any, Any, Any]:
    """Stack the chaos and resilience layers around a raw endpoint.

    Order matters: chaos sits *below* resilience
    (``host -> resilient -> chaos -> wire``) so retransmissions traverse
    the faulty wire again.  Returns ``(endpoint, chaos, chaos_storage,
    resilient)`` — the wrappers are exposed so run-end evidence
    (:func:`journal_chaos_evidence`) can read their counters.
    """
    chaos = chaos_store = resilient = None
    if cfg.chaos is not None and cfg.chaos:
        # Imported lazily: repro.chaos.live itself imports live modules.
        from ..chaos.live import ChaosEndpoint, chaos_storage
        chaos = ChaosEndpoint(inner, cfg.chaos, seed=cfg.seed,
                              tracer=tracer)
        chaos_store = chaos_storage(storage, cfg.chaos, seed=cfg.seed)
        inner = chaos
    if cfg.resilience:
        resilient = ResilientEndpoint(
            inner,
            ResilienceConfig(max_retries=cfg.max_retries,
                             base_delay=cfg.retry_base,
                             max_delay=cfg.retry_max),
            incarnation=incarnation, seed=cfg.seed, tracer=tracer)
        inner = resilient
    return inner, chaos, chaos_store, resilient


def journal_chaos_evidence(journal: Journal, chaos: Any, chaos_store: Any,
                           resilient: Any, storage: FileStableStorage,
                           host: LiveHost) -> None:
    """Journal one run-end ``chaos`` event with injection/recovery counts.

    The conformance replay ignores unknown event kinds, so this is pure
    evidence for the chaos matrix (and ``repro trace report``): how many
    faults were injected vs how many recovery actions healed them.
    """
    if chaos is None and chaos_store is None and resilient is None:
        return
    injected: dict[str, int] = dict(chaos.injected) if chaos else {}
    if chaos_store is not None:
        for kind, count in chaos_store.injected.items():
            injected[kind] = injected.get(kind, 0) + count
    data: dict[str, Any] = {
        "injected": injected,
        "retried_writes": storage.retried_writes,
        "dup_dropped": host.dup_dropped,
    }
    if resilient is not None:
        data["resilience"] = resilient.stats.as_dict()
    journal.log("chaos", **data)


# --------------------------------------------------------------------------
# local (in-process) backend
# --------------------------------------------------------------------------


class _LocalWorker:
    """One in-process worker: host + run task + workload driver."""

    def __init__(self, cfg: LiveRunConfig, run_dir: Path,
                 transport: LocalTransport, pid: int, incarnation: int,
                 epoch: int, resume_seq: int | None) -> None:
        self.journal = Journal(run_dir, pid, incarnation)
        self.tracer: Tracer | None = None
        if cfg.trace:
            self.tracer = Tracer(
                [JsonlSink(run_dir / f"trace-P{pid}-{incarnation}.jsonl")],
                host="live", pid=pid)
        storage = FileStableStorage(run_dir, pid)
        endpoint, self.chaos, self.chaos_storage, self.resilient = (
            build_endpoint(transport.endpoint(pid), storage, cfg,
                           incarnation=incarnation, tracer=self.tracer))
        self.storage = storage
        self.host = LiveHost(
            pid, cfg.n, endpoint, storage, self.journal,
            checkpoint_interval=cfg.checkpoint_interval,
            timeout=cfg.timeout, epoch=epoch, incarnation=incarnation,
            tracer=self.tracer)
        if resume_seq is not None:
            self.host.resume(resume_seq)
        else:
            self.host.start()
        traffic = make_traffic(cfg.workload, cfg.n, pid, rate=cfg.rate,
                               msg_size=cfg.msg_size, seed=cfg.seed,
                               incarnation=incarnation)
        self.task = asyncio.ensure_future(self.host.run())
        self.driver = asyncio.ensure_future(drive(self.host, traffic))

    async def kill(self) -> None:
        """Fail-stop: cancel both tasks, abandon all in-memory state."""
        self.driver.cancel()
        self.task.cancel()
        await asyncio.gather(self.task, self.driver,
                             return_exceptions=True)
        # No chaos-evidence event: a fail-stop crash journals nothing.
        self.journal.close()
        if self.tracer is not None:
            self.tracer.close()

    async def join(self, grace: float) -> None:
        """Wait for a clean stop (the host saw a ``stop`` frame)."""
        try:
            await asyncio.wait_for(
                asyncio.gather(self.task, self.driver), timeout=grace)
        except asyncio.TimeoutError:
            await self.kill()
            return
        journal_chaos_evidence(self.journal, self.chaos,
                               self.chaos_storage, self.resilient,
                               self.storage, self.host)
        self.journal.close()
        if self.tracer is not None:
            self.tracer.close()


async def _run_local(cfg: LiveRunConfig, run_dir: Path, sup: _SupervisorLog,
                     tracer: Tracer | None = None
                     ) -> tuple[CrashOutcome | None, int, dict[str, int],
                                dict[int, int]]:
    """Local backend: every worker an asyncio task on this loop."""
    transport = LocalTransport(cfg.n)
    epoch = 0
    workers = {pid: _LocalWorker(cfg, run_dir, transport, pid, 0, epoch,
                                 None)
               for pid in range(cfg.n)}
    loop = asyncio.get_running_loop()
    started = time.monotonic()
    crash: CrashOutcome | None = None
    if cfg.crash_at is not None:
        await asyncio.sleep(cfg.crash_at)
        victim = cfg.victim
        kill_started = time.monotonic()
        sup.log("crash.inject", pid=victim,
                at=kill_started - started)
        if tracer is not None:
            tracer.span_start("recovery", f"{victim}:1", loop.time(),
                              pid=victim)
        await workers[victim].kill()
        transport.disconnect(victim)
        seq = durable_global_seq(run_dir, cfg.n)
        epoch += 1
        transport.broadcast(recover_frame(epoch, seq))
        workers[victim] = _LocalWorker(cfg, run_dir, transport, victim, 1,
                                       epoch, seq)
        recovery_seconds = time.monotonic() - kill_started
        crash = CrashOutcome(pid=victim,
                             killed_after=kill_started - started,
                             recovered_seq=seq,
                             recovery_seconds=recovery_seconds,
                             epoch=epoch)
        if tracer is not None:
            tracer.span_end("recovery", f"{victim}:1", loop.time(),
                            pid=victim, seq=seq, epoch=epoch)
        sup.log("crash.recovered", pid=victim, seq=seq, epoch=epoch,
                recovery_seconds=recovery_seconds)
        await _work_window(max(0.0, cfg.duration - cfg.crash_at),
                           cfg.stop_event)
    else:
        await _work_window(cfg.duration, cfg.stop_event)
    transport.broadcast(stop_frame())
    for pid in sorted(workers):
        await workers[pid].join(cfg.stop_grace)
    exits = {pid: 0 for pid in sorted(workers)}
    return crash, transport.dropped, dict(transport.dropped_by_cause), exits


# --------------------------------------------------------------------------
# TCP (multi-process) backend
# --------------------------------------------------------------------------


def _worker_env() -> dict[str, str]:
    """Subprocess environment with ``repro`` importable from source."""
    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src if not existing
                         else src + os.pathsep + existing)
    return env


def _spawn_worker(cfg: LiveRunConfig, run_dir: Path, port: int, pid: int,
                  incarnation: int,
                  resume_seq: int | None) -> subprocess.Popen:
    """Start one ``python -m repro.live.worker`` OS process."""
    cmd = [sys.executable, "-m", "repro.live.worker",
           "--pid", str(pid), "--n", str(cfg.n), "--port", str(port),
           "--dir", str(run_dir), "--inc", str(incarnation),
           "--interval", str(cfg.checkpoint_interval),
           "--timeout", str(cfg.timeout), "--workload", cfg.workload,
           "--rate", str(cfg.rate), "--msg-size", str(cfg.msg_size),
           "--seed", str(cfg.seed),
           "--max-lifetime", str(cfg.duration + 60.0),
           "--connect-timeout", str(cfg.connect_timeout),
           "--connect-attempts", str(cfg.connect_attempts),
           "--max-retries", str(cfg.max_retries),
           "--retry-base", str(cfg.retry_base),
           "--retry-max", str(cfg.retry_max)]
    if not cfg.resilience:
        cmd.append("--no-resilience")
    if cfg.chaos is not None and cfg.chaos:
        cmd += ["--chaos-plan", str(run_dir / CHAOS_PLAN_FILE)]
    if cfg.trace:
        cmd.append("--trace")
    if resume_seq is not None:
        cmd += ["--resume-seq", str(resume_seq)]
    log = (run_dir / f"worker-P{pid}-{incarnation}.log").open("wb")
    return subprocess.Popen(cmd, env=_worker_env(), stdout=log, stderr=log)


async def _wait_proc(proc: subprocess.Popen, grace: float) -> int:
    """Await a subprocess exit without blocking the loop; kill on timeout."""
    loop = asyncio.get_running_loop()
    try:
        return await asyncio.wait_for(
            loop.run_in_executor(None, proc.wait), timeout=grace)
    except asyncio.TimeoutError:
        proc.kill()
        return await loop.run_in_executor(None, proc.wait)


async def _await_workers(broker: TcpBroker, cfg: LiveRunConfig,
                         run_dir: Path) -> None:
    """Wait for every worker to connect, or fail with a clear setup error."""
    try:
        await broker.wait_connected(cfg.n, timeout=cfg.connect_wait)
    except asyncio.TimeoutError:
        connected = broker.connected_pids
        raise LiveSetupError(
            f"only {len(connected)}/{cfg.n} workers connected within "
            f"{cfg.connect_wait:g}s (connected pids: {connected}); "
            f"see worker logs under {run_dir}") from None


async def _run_tcp(cfg: LiveRunConfig, run_dir: Path, sup: _SupervisorLog,
                   tracer: Tracer | None = None
                   ) -> tuple[CrashOutcome | None, int, dict[str, int],
                              dict[int, int]]:
    """TCP backend: real worker processes over localhost sockets."""
    broker = TcpBroker(epoch=0)
    port = await broker.start()
    sup.log("broker.listening", port=port)
    loop = asyncio.get_running_loop()
    if cfg.chaos is not None and cfg.chaos:
        plan_json = json.dumps(cfg.chaos.as_dict(), indent=2,
                               sort_keys=True)
        await loop.run_in_executor(
            None, lambda: (run_dir / CHAOS_PLAN_FILE).write_text(
                plan_json, encoding="utf-8"))
    procs = {pid: _spawn_worker(cfg, run_dir, port, pid, 0, None)
             for pid in range(cfg.n)}
    crash: CrashOutcome | None = None
    try:
        await _await_workers(broker, cfg, run_dir)
        started = time.monotonic()
        if cfg.crash_at is not None:
            await asyncio.sleep(cfg.crash_at)
            victim = cfg.victim
            kill_started = time.monotonic()
            sup.log("crash.inject", pid=victim, at=kill_started - started)
            if tracer is not None:
                tracer.span_start("recovery", f"{victim}:1", loop.time(),
                                  pid=victim)
            procs[victim].kill()   # SIGKILL — a true fail-stop crash
            await _wait_proc(procs[victim], grace=10.0)
            # Its EOF may not have been read yet; the wait below must
            # count the new incarnation's handshake, not the dead socket.
            broker.disconnect(victim)
            # The recovery line comes from what actually hit the disk.
            seq = durable_global_seq(run_dir, cfg.n)
            broker.epoch += 1
            broker.broadcast(recover_frame(broker.epoch, seq))
            procs[victim] = _spawn_worker(cfg, run_dir, port, victim, 1,
                                          seq)
            await _await_workers(broker, cfg, run_dir)
            recovery_seconds = time.monotonic() - kill_started
            crash = CrashOutcome(pid=victim,
                                 killed_after=kill_started - started,
                                 recovered_seq=seq,
                                 recovery_seconds=recovery_seconds,
                                 epoch=broker.epoch)
            if tracer is not None:
                tracer.span_end("recovery", f"{victim}:1", loop.time(),
                                pid=victim, seq=seq, epoch=broker.epoch)
            sup.log("crash.recovered", pid=victim, seq=seq,
                    epoch=broker.epoch,
                    recovery_seconds=recovery_seconds)
            await _work_window(max(0.0, cfg.duration - cfg.crash_at),
                               cfg.stop_event)
        else:
            await _work_window(cfg.duration, cfg.stop_event)
        broker.broadcast(stop_frame())
        exits = {}
        for pid in sorted(procs):
            exits[pid] = await _wait_proc(procs[pid], cfg.stop_grace)
        return crash, broker.dropped, dict(broker.dropped_by_cause), exits
    finally:
        for pid in sorted(procs):
            if procs[pid].poll() is None:
                procs[pid].kill()
        await broker.close()
