"""Live run supervisor: spawn workers, inject crashes, verify the run.

``run_live`` is the one entry point (the CLI's ``repro live run`` is a
thin veneer over it).  It drives a complete live execution:

1. create a run directory (stable-storage subdirectories + journals) and
   write the run's :class:`~repro.live.worker.LiveRunConfig` to
   ``config.json`` in it;
2. start N :class:`~repro.live.worker.Worker` bodies attached to one
   :class:`~repro.live.transport.Broker` — asyncio tasks on this loop
   (``transport="local"``) or ``python -m repro.live.worker`` OS processes
   over localhost TCP (``transport="tcp"``);
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

Steps 2–5 are one sequence (:func:`_supervise`) over a backend that
starts, kills and joins workers, so both transports crash, recover, stop
and lose frames the same way: one broker routes both.
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
from .resilience import ResilienceStats
from .storage import durable_global_seq
from .transport import Broker
from .wire import recover_frame, stop_frame
from .worker import CONFIG_FILE, LiveRunConfig, Worker

#: Default parent directory for run artifacts (gitignored).
DEFAULT_RUN_ROOT = ".repro-live"


class LiveSetupError(RuntimeError):
    """A live run could not even start (workers never connected, …).

    Distinct from a protocol failure: the CLI turns this into a clear
    one-line error and exit code 1 instead of a raw traceback.
    """


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
    #: Itemized transport losses: no_route / park_overflow / superseded.
    drop_causes: dict[str, int] = field(default_factory=dict)
    worker_exits: dict[int, int] = field(default_factory=dict)

    @property
    def dropped_frames(self) -> int:
        """Transport losses, all causes."""
        return sum(self.drop_causes.values())

    @property
    def resilience(self) -> ResilienceStats:
        """Every cleanly stopped worker's resilience counters, summed (a
        killed incarnation journals none)."""
        return ResilienceStats(**self.conformance.resilience)

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
            "resilience": self.resilience.as_dict(),
            "retransmits_per_frame": round(
                self.resilience.retransmits_per_frame, 4),
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
    # Executor thread for every write on the loop (REP101).  TCP workers
    # read their whole configuration from this file.
    config_json = cfg.to_json()
    await loop.run_in_executor(
        None, lambda: (run_dir / CONFIG_FILE).write_text(
            config_json, encoding="utf-8"))
    started = time.monotonic()
    # The start barrier: no TCP worker is welcomed, and so none sends,
    # before all n have connected.
    hub = Broker(barrier=cfg.n)
    try:
        if cfg.transport == "local":
            backend: _LocalBackend | _TcpBackend = _LocalBackend(
                cfg, run_dir, hub)
        else:
            port = await hub.start()
            sup.log("broker.listening", port=port)
            backend = _TcpBackend(cfg, run_dir, port)
        try:
            crash, exits = await _supervise(backend, hub, sup, tracer)
        finally:
            await backend.close()
            await hub.close()
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
                           drop_causes=dict(hub.dropped_by_cause),
                           worker_exits=exits)
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


async def _supervise(backend: _LocalBackend | _TcpBackend, hub: Broker,
                     sup: _SupervisorLog, tracer: Tracer | None
                     ) -> tuple[CrashOutcome | None, dict[int, int]]:
    """Start, optionally crash and recover, stop and join every worker;
    returns the crash outcome and every worker's exit status."""
    cfg = backend.cfg
    loop = asyncio.get_running_loop()

    async def all_connected() -> None:
        try:
            await hub.wait_connected(cfg.n, timeout=cfg.connect_wait)
        except asyncio.TimeoutError:
            connected = hub.connected_pids
            raise LiveSetupError(
                f"only {len(connected)}/{cfg.n} workers connected within "
                f"{cfg.connect_wait:g}s (connected pids: {connected}); see "
                f"worker logs under {backend.run_dir}") from None

    for pid in range(cfg.n):
        backend.start(pid, 0, None)
    await all_connected()
    started = time.monotonic()
    crash: CrashOutcome | None = None
    window = cfg.duration
    if cfg.crash_at is not None:
        await asyncio.sleep(cfg.crash_at)
        victim = cfg.victim
        kill_started = time.monotonic()
        sup.log("crash.inject", pid=victim, at=kill_started - started)
        if tracer is not None:
            tracer.span_start("recovery", f"{victim}:1", loop.time(),
                              pid=victim)
        await backend.kill(victim)
        # A reaped worker's connection may not have hit EOF yet; the wait
        # below must count the new incarnation's handshake, not the dead
        # connection, and frames for the victim must park meanwhile.
        hub.disconnect(victim)
        # The recovery line comes from what actually hit the disk.
        seq = durable_global_seq(backend.run_dir, cfg.n)
        hub.epoch += 1
        hub.broadcast(recover_frame(hub.epoch, seq))
        backend.start(victim, 1, seq)
        await all_connected()
        recovery_seconds = time.monotonic() - kill_started
        crash = CrashOutcome(pid=victim, killed_after=kill_started - started,
                             recovered_seq=seq,
                             recovery_seconds=recovery_seconds,
                             epoch=hub.epoch)
        if tracer is not None:
            tracer.span_end("recovery", f"{victim}:1", loop.time(),
                            pid=victim, seq=seq, epoch=hub.epoch)
        sup.log("crash.recovered", pid=victim, seq=seq, epoch=hub.epoch,
                recovery_seconds=recovery_seconds)
        window = max(0.0, cfg.duration - cfg.crash_at)
    await _work_window(window, cfg.stop_event)
    hub.broadcast(stop_frame())
    return crash, {pid: await backend.join(pid, cfg.stop_grace)
                   for pid in range(cfg.n)}


class _LocalBackend:
    """Every worker a :class:`Worker` on this loop, attached to the
    broker in-process."""

    def __init__(self, cfg: LiveRunConfig, run_dir: Path,
                 hub: Broker) -> None:
        self.cfg = cfg
        self.run_dir = run_dir
        self.hub = hub
        self.workers: dict[int, Worker] = {}

    def start(self, pid: int, incarnation: int,
              resume_seq: int | None) -> None:
        """Start one worker incarnation as tasks on this loop."""
        self.workers[pid] = Worker(self.cfg, self.run_dir, pid, incarnation,
                                   self.hub.endpoint(pid), resume_seq)

    async def kill(self, pid: int) -> None:
        """Fail-stop: cancel the worker's tasks."""
        await self.workers[pid].kill()

    async def join(self, pid: int, grace: float) -> int:
        """Wait for a clean stop; kill a worker that misses ``grace``."""
        worker = self.workers[pid]
        try:
            await asyncio.wait_for(worker.task, grace)
        except asyncio.TimeoutError:
            await worker.kill()
            return -9       # what Popen reports for a SIGKILLed child
        await worker.finish()
        return 0

    async def close(self) -> None:
        """Kill whatever still runs (a supervision that raised)."""
        for pid in sorted(self.workers):
            if not self.workers[pid].task.done():
                await self.workers[pid].kill()


def worker_argv(run_dir: Path, port: int, pid: int, incarnation: int,
                resume_seq: int | None) -> list[str]:
    """The command line of one ``python -m repro.live.worker`` process;
    everything else it needs is in ``run_dir/config.json``."""
    cmd = [sys.executable, "-m", "repro.live.worker", "--dir", str(run_dir),
           "--pid", str(pid), "--port", str(port), "--inc", str(incarnation)]
    if resume_seq is not None:
        cmd += ["--resume-seq", str(resume_seq)]
    return cmd


class _TcpBackend:
    """Every worker its own OS process, connected to the broker's port."""

    def __init__(self, cfg: LiveRunConfig, run_dir: Path, port: int) -> None:
        self.cfg = cfg
        self.run_dir = run_dir
        self.port = port
        self.procs: dict[int, subprocess.Popen] = {}
        # Workers import ``repro`` from this source tree.
        src = str(Path(__file__).resolve().parents[2])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def start(self, pid: int, incarnation: int,
              resume_seq: int | None) -> None:
        """Spawn one worker process (output to its own log file)."""
        log_path = self.run_dir / f"worker-P{pid}-{incarnation}.log"
        with log_path.open("wb") as log:
            self.procs[pid] = subprocess.Popen(
                worker_argv(self.run_dir, self.port, pid, incarnation,
                            resume_seq),
                env=self.env, stdout=log, stderr=log)

    async def kill(self, pid: int) -> None:
        """SIGKILL — a true fail-stop crash — and reap the process."""
        self.procs[pid].kill()
        await self.join(pid, grace=10.0)

    async def join(self, pid: int, grace: float) -> int:
        """Await the process's exit without blocking the loop; SIGKILL it
        after ``grace``."""
        proc = self.procs[pid]
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(None, proc.wait), timeout=grace)
        except asyncio.TimeoutError:
            proc.kill()
            return await loop.run_in_executor(None, proc.wait)

    async def close(self) -> None:
        """Kill leftover processes."""
        for pid in sorted(self.procs):
            if self.procs[pid].poll() is None:
                self.procs[pid].kill()
