"""DES host for the optimistic checkpointing protocol.

:class:`OptimisticProcess` is the simulator's adapter over the shared
:class:`~repro.core.driver.ProtocolDriver`: the driver runs the state
machine, interprets its effects and keeps the ``logSet`` / window
bookkeeping; this module supplies what only the simulator has —
``Network.send`` with the interned piggyback, the volatile
:class:`~repro.storage.local_store.LocalStore` and stable-storage flushes
(:class:`~repro.core.config.FlushPolicy`, space ledger, garbage
collection), the initiation phase and horizon, and ``sim.trace``.
:class:`OptimisticRuntime` is the per-run context shared by all hosts
(network, storage, config) plus the verification surface experiments
consume.
"""

from __future__ import annotations

from typing import Any

from ..causality.consistency import (
    CheckpointRecord,
    ConsistencyVerifier,
    Orphan,
    chain,
    complete_cuts,
    round_latencies,
)
from ..des.engine import Simulator
from ..des.process import SimProcess
from ..net.message import Message
from ..net.network import Network
from ..storage.local_store import LocalStore
from ..storage.stable_storage import StableStorage
from .config import OptimisticConfig
from .driver import ProtocolDriver, RuntimePort
from .types import (
    ControlMessage,
    FinalizedCheckpoint,
    TentativeCheckpoint,
    piggyback_bytes,
)

class OptimisticRuntime:
    """Shared context for one simulated run of the optimistic protocol."""

    def __init__(self, sim: Simulator, network: Network,
                 storage: StableStorage, config: OptimisticConfig,
                 horizon: float | None = None) -> None:
        config.validate(network.n)
        self.sim = sim
        self.network = network
        self.storage = storage
        self.config = config
        #: Simulated time after which no *new* checkpoint rounds or app work
        #: start (in-flight rounds still converge, so the event queue drains).
        self.horizon = horizon
        self.hosts: dict[int, "OptimisticProcess"] = {}

    @property
    def n(self) -> int:
        return self.network.n

    def build(self, apps: dict[int, Any] | None = None
              ) -> list["OptimisticProcess"]:
        """Create one host per topology node (optionally with app behaviours).

        ``apps`` maps pid -> an object with ``on_start(host)`` and
        ``on_message(host, msg)`` (see :mod:`repro.workload.app`).
        """
        hosts = []
        for pid in range(self.n):
            app = apps.get(pid) if apps else None
            host = OptimisticProcess(pid, self.sim, self, app=app)
            self.network.add_process(host)
            self.hosts[pid] = host
            hosts.append(host)
        return hosts

    def start(self) -> None:
        """Start every process (emits initial checkpoints, arms timers)."""
        self.network.start_all()

    # -- verification surface -------------------------------------------------

    def finalized_seqs(self) -> list[int]:
        """Sequence numbers finalized by *every* process (complete S_k)."""
        return list(self.global_records())

    def global_records(self) -> dict[int, dict[int, CheckpointRecord]]:
        """Every process's :class:`CheckpointRecord` per complete S_k."""
        return complete_cuts({pid: host.checkpoint_records()
                              for pid, host in self.hosts.items()})

    def verify_consistency(self) -> dict[int, list[Orphan]]:
        """Run the independent trace-based verifier over every complete S_k."""
        verifier = ConsistencyVerifier(self.sim.trace)
        return verifier.verify_all(self.global_records())

    def assert_consistent(self) -> int:
        """Raise on any orphan; returns the number of cuts checked."""
        verifier = ConsistencyVerifier(self.sim.trace)
        return verifier.assert_consistent(self.global_records())

    def anomalies(self) -> list[str]:
        """All protocol anomalies observed across hosts."""
        out: list[str] = []
        for pid in sorted(self.hosts):
            out.extend(self.hosts[pid].anomalies)
        return out

    def control_message_count(self, ctype: str | None = None) -> int:
        """Control messages sent (optionally one of CK_BGN/CK_REQ/CK_END)."""
        total = 0
        for host in self.hosts.values():
            if ctype is None:
                total += sum(host.ctl_sent.values())
            else:
                total += host.ctl_sent.get(ctype, 0)
        return total

    # -- metric surface (mirrors BaselineRuntime where meaningful) ---------------

    def total_checkpoints(self) -> int:
        """Tentative checkpoints taken across all processes (excl. initial)."""
        return sum(len(h.tentatives) for h in self.hosts.values())

    def total_blocked_time(self) -> float:
        """The optimistic protocol never blocks the application."""
        return 0.0

    def response_delays(self) -> list[float]:
        """Pre-processing delays per app message — always zero here (the
        paper's no-checkpoint-before-processing property)."""
        delivered = self.network.delivered_by_kind.get("app", 0)
        return [0.0] * delivered

    def total_log_bytes(self) -> int:
        """Bytes of selective message logs across all finalized checkpoints."""
        return sum(fc.log_bytes for h in self.hosts.values()
                   for fc in h.finalized.values())

    def total_logged_messages(self) -> int:
        """Messages captured in selective logs across all finalized checkpoints."""
        return sum(len(fc.log_entries) for h in self.hosts.values()
                   for fc in h.finalized.values())

    def convergence_latencies(self) -> dict[int, float]:
        """Per complete S_k: time from the first tentative checkpoint with
        sequence k to the last finalization of k (the round's span)."""
        return round_latencies(self.global_records())

    def max_local_buffer_bytes(self) -> int:
        """High-water mark of tentative-state + log bytes held in local
        memory — the optimism's memory cost."""
        return max((h.local.max_bytes for h in self.hosts.values()),
                   default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OptimisticRuntime(n={self.n}, "
                f"finalized_seqs={self.finalized_seqs()})")


class OptimisticProcess(SimProcess, RuntimePort):
    """One simulated process: a :class:`ProtocolDriver` bound to the DES
    substrates (and the driver's :class:`~repro.core.driver.RuntimePort`)."""

    def __init__(self, pid: int, sim: Simulator, runtime: OptimisticRuntime,
                 app: Any = None) -> None:
        super().__init__(pid, sim)
        self.runtime = runtime
        self.config = config = runtime.config
        self.driver = driver = ProtocolDriver(
            pid, runtime.n, self, config.machine,
            log_all=config.log_all_messages, strict=config.strict,
            reset_schedule=config.reset_schedule_on_checkpoint)
        self.machine = driver.machine
        self.app = app
        self._local = LocalStore(pid)
        # Checkpoint objects ---------------------------------------------------
        self.tentatives: dict[int, TentativeCheckpoint] = {}
        self.finalized: dict[int, FinalizedCheckpoint] = {}
        # Hot-path constants (per-run invariants, hoisted out of app_send):
        # the piggyback wire cost and the bound network send (one attribute
        # chain less per message).
        self._pb_bytes = piggyback_bytes(runtime.n)
        self._net_send = runtime.network.send
        # Interned (piggyback, meta-dict) pair: between protocol transitions
        # every outgoing app message carries the same {"pb": pb}, so the
        # dict is built once per transition (nothing writes into a sent
        # message's meta: a gate's verdict is its return value).
        self._pb_meta: tuple[Any, Any] = (None, None)
        # App delivery callback, resolved once: None when the behaviour
        # inherits the base no-op (marked ``app_noop``) so per-delivery
        # dispatch costs nothing for send-only workloads.
        on_msg = getattr(app, "on_message", None)
        if on_msg is not None and getattr(on_msg, "app_noop", False):
            on_msg = None
        self._app_on_message = on_msg
        self._flush_submitted: set[int] = set()
        #: Checkpoint generations still held on stable storage (GC state).
        self._held_gens: set[int] = set()
        # Timers ----------------------------------------------------------------
        self._conv_timer = sim.timer(self._on_conv_timer)
        self._init_timer = sim.timer(self._on_init_timer)
        # Diagnostics (the driver's tallies, shared by reference) ------------------
        self.anomalies = driver.anomalies
        self.ctl_sent = driver.ctl_sent
        self.finalize_reasons = driver.finalize_reasons

    def detach(self) -> None:
        """End of run: drop every reference that points back into the run
        — the runtime (which owns this host), the network, the driver's
        port (this host) and the two timers (whose callbacks are this
        host's methods).  Checkpoints, tallies and the driver's state
        stay."""
        super().detach()
        del self.runtime, self._net_send
        del self._conv_timer, self._init_timer
        del self.driver.port

    @property
    def local(self) -> LocalStore:
        """The volatile store, with the message log's size settled in.

        Held bytes only grow while messages are being logged, so the
        high-water mark stays exact when the log's running size is written
        through each time the store is touched or read — no per-message
        accounting.
        """
        nbytes = self.driver.log_bytes
        if nbytes:
            self._local.put("log", nbytes, self.sim.now)
        return self._local

    # -- lifecycle -------------------------------------------------------------

    def on_start(self) -> None:
        # The paper's initial checkpoint C_{i,0} (sequence number 0); it is
        # not written to the shared file server so t=0 does not register as
        # artificial contention in any protocol's statistics.
        initial_ct = TentativeCheckpoint(pid=self.pid, csn=0,
                                         taken_at=self.sim.now,
                                         state_bytes=0, flushed_at=self.sim.now)
        self.finalized[0] = FinalizedCheckpoint(
            pid=self.pid, csn=0, tentative=initial_ct,
            finalized_at=self.sim.now, reason="initial")
        if self.app is not None:
            self.app.on_start(self)
        self.arm_initiation_timer(first=True)

    def arm_initiation_timer(self, first: bool = False) -> None:
        """Schedule the next basic checkpoint one interval out (RuntimePort);
        the ``first`` one of an execution adds the configured phase offset.
        Nothing is scheduled past the horizon."""
        interval = self.config.checkpoint_interval
        if interval is None:
            return
        horizon = self.runtime.horizon
        if horizon is not None and self.sim.now + interval > horizon:
            self._init_timer.cancel()
            return
        phase = self.config.initiation_phase
        if not first or phase == "aligned":
            offset = 0.0
        elif phase == "staggered":
            offset = interval * self.pid / self.runtime.n
        else:  # jittered
            rng = self.sim.rng.stream(f"init.{self.pid}")
            offset = float(rng.uniform(0.0, interval))
        self._init_timer.start(interval + offset)

    def _on_init_timer(self) -> None:
        if not self.halted:
            self.driver.on_initiation_timer()

    def _on_conv_timer(self) -> None:
        if not self.halted:
            self.driver.on_timer()

    def initiate_checkpoint(self) -> bool:
        """Manually initiate a consistent global checkpoint (scenarios use
        this).  Returns whether a tentative checkpoint was actually taken."""
        return self.driver.initiate()

    # -- application-facing API ---------------------------------------------------

    def app_send(self, dst: int, payload: Any = None,
                 size: int = 0) -> Message:
        """Send an application message with the protocol piggyback (§3.4.2)."""
        pb = self.machine.piggyback()
        cached = self._pb_meta
        if cached[0] is pb:
            meta = cached[1]
        else:
            meta = {"pb": pb}
            self._pb_meta = (pb, meta)
        msg = self._net_send(self.pid, dst, payload, size, "app",
                             meta, self._pb_bytes)
        self.driver.app_sent(msg.uid, size + self._pb_bytes)
        return msg

    # -- message dispatch -----------------------------------------------------------

    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        if kind == "app":
            # Paper §3.4.3: "it processes the message first and then takes
            # the following actions" — the application sees the message
            # before any checkpointing action (no forced checkpoint delays
            # the response).
            app_on_message = self._app_on_message
            if app_on_message is not None:
                app_on_message(self, msg)
            self.driver.app_received(msg.meta["pb"], msg.uid,
                                     msg.size + msg.overhead_bytes)
            return
        if kind == "ctl":
            cm: ControlMessage = msg.payload
            tr = self.sim.trace
            if tr.enabled:
                tr.record(self.sim.now, "ctl.recv", self.pid,
                          ctype=cm.ctype.value, csn=cm.csn, src=msg.src)
            self.driver.on_control(cm, msg.src)
            return
        raise ValueError(f"unexpected message kind {kind!r}")

    # -- RuntimePort: what the driver asks of the simulator ------------------------------

    def send_control(self, dst: int, cm: ControlMessage) -> None:
        tr = self.sim.trace
        if tr.enabled:
            tr.record(self.sim.now, "ctl.send", self.pid,
                      ctype=cm.ctype.value, csn=cm.csn, dst=dst)
        self.network.send(self.pid, dst, cm, kind="ctl",
                          overhead_bytes=ControlMessage.ENCODED_BYTES)

    def arm_convergence_timer(self) -> None:
        self._conv_timer.start(self.config.timeout)

    def cancel_convergence_timer(self) -> None:
        self._conv_timer.cancel()

    def report_anomaly(self, description: str) -> None:
        self.trace("ckpt.anomaly", description=description)

    def capture_tentative(self, csn: int, digest: int) -> TentativeCheckpoint:
        state_bytes = self.config.capture_bytes_for(self.pid, csn)
        ckpt = TentativeCheckpoint(pid=self.pid, csn=csn,
                                   taken_at=self.sim.now,
                                   state_bytes=state_bytes, digest=digest,
                                   full=self.config.is_full_checkpoint(csn))
        self.tentatives[csn] = ckpt
        self.local.put("ct", state_bytes, self.sim.now)
        self.trace("ckpt.tentative", csn=csn, bytes=state_bytes)
        self.config.flush_policy.on_tentative(self, ckpt)
        return ckpt

    def _claim_ct_flush(self, ckpt: TentativeCheckpoint) -> Any:
        """First flush of ``CT_{i,k}`` only: claim its stable space and
        return the write-completion callback (``None`` if already flushed)."""
        if ckpt.csn in self._flush_submitted:
            return None
        self._flush_submitted.add(ckpt.csn)
        self.runtime.storage.space.retain(self.pid, f"ct:{ckpt.csn}",
                                          ckpt.state_bytes, self.sim.now)

        def done(req) -> None:
            ckpt.flushed_at = req.finish
            self.local.discard("ct")

        return done

    def flush_tentative(self, ckpt: TentativeCheckpoint) -> None:
        """Write ``CT_{i,k}`` to stable storage (idempotent; §3.1: "usually
        saved in memory first and then flushed to stable storage")."""
        done = self._claim_ct_flush(ckpt)
        if done is None:
            return
        self.trace("ckpt.flush.ct", csn=ckpt.csn, bytes=ckpt.state_bytes)
        self.runtime.storage.write(self.pid, ckpt.state_bytes,
                                   label=f"ct:{self.pid}:{ckpt.csn}",
                                   callback=done)

    def store_finalized(self, fc: FinalizedCheckpoint,
                        exclude_uid: int | None) -> None:
        ckpt = fc.tentative
        self.finalized[fc.csn] = fc
        # Flush: the message log always goes to stable storage now; the
        # tentative state is bundled in unless a FlushPolicy already sent it.
        space = self.runtime.storage.space
        nbytes = fc.log_bytes
        callback = self._claim_ct_flush(ckpt)
        if callback is not None:
            nbytes += ckpt.state_bytes
        space.retain(self.pid, f"log:{ckpt.csn}", fc.log_bytes, self.sim.now)
        # Garbage collection (paper §1): finalizing C_{i,k} certifies that
        # S_{k-1} is committed system-wide, so generations that can never
        # again be a recovery line are deleted.  With full checkpoints the
        # floor is simply k-1 (delete k-2 and older); with incremental
        # checkpointing, restoring S_{k-1} needs the delta chain back to
        # the last FULL capture at or before k-1, so the chain stays.
        self._held_gens.add(fc.csn)
        floor = fc.csn - 1
        while floor >= 1 and not self.config.is_full_checkpoint(floor):
            floor -= 1
        released = sorted(g for g in self._held_gens if 0 < g < floor)
        for g in released:
            self._held_gens.discard(g)
            space.release(self.pid, f"ct:{g}", self.sim.now)
            space.release(self.pid, f"log:{g}", self.sim.now)
            self.trace("ckpt.gc", csn=g)
        self.local.discard("log")
        self.trace("ckpt.finalize", csn=fc.csn, reason=fc.reason,
                   log_msgs=len(fc.log_entries), log_bytes=fc.log_bytes,
                   flush_bytes=nbytes)
        self.runtime.storage.write(self.pid, nbytes,
                                   label=f"fin:{self.pid}:{fc.csn}",
                                   callback=callback)

    # -- rollback recovery ------------------------------------------------------------------

    def rollback_to(self, csn: int, restart_app: bool = True) -> None:
        """Restore this process to its finalized checkpoint ``C_{i,csn}``.

        :meth:`ProtocolDriver.rollback` restores the protocol; here
        everything the simulator holds for the discarded execution goes
        too: later tentative/finalized checkpoints and their stable-space
        claims, the volatile store, and the initiation schedule.  Called
        on *every* process by :class:`repro.recovery.restart.RecoveryManager`
        (system-wide rollback to the last committed global checkpoint, §1).
        """
        if csn not in self.finalized:
            raise ValueError(
                f"P{self.pid} has no finalized checkpoint {csn}")
        self.halted = False
        # Kill every continuation chain of the discarded execution (app
        # send loops, flush polls, ...).
        self.incarnation += 1
        # The store first: clearing it settles the log the driver is about
        # to drop into the high-water mark.
        self.local.clear()
        self.driver.rollback(self.finalized[csn])
        # Discard rolled-back checkpoints and their stable-space claims.
        space = self.runtime.storage.space
        for k in [k for k in self.finalized if k > csn]:
            del self.finalized[k]
            self._held_gens.discard(k)
            space.release(self.pid, f"ct:{k}", self.sim.now)
            space.release(self.pid, f"log:{k}", self.sim.now)
        for k in [k for k in self.tentatives if k > csn]:
            del self.tentatives[k]
            if k in self._flush_submitted:
                self._flush_submitted.discard(k)
                space.release(self.pid, f"ct:{k}", self.sim.now)
        self.trace("ckpt.rollback", csn=csn,
                   digest=self.driver.state_digest)
        # Resume: scheduled checkpointing restarts; the application is
        # restarted from the recovered state (re-execution of lost work).
        self.arm_initiation_timer(first=True)
        if restart_app and self.app is not None:
            self.app.on_start(self)

    # -- verification ---------------------------------------------------------------------

    def checkpoint_records(self) -> dict[int, CheckpointRecord]:
        """One chained :class:`CheckpointRecord` per finalized checkpoint.

        ``C_{i,k}`` records everything ``C_{i,k-1}`` does plus its own
        window, so each record carries that window as its increment and
        points at its predecessor; nothing is copied or accumulated here.
        """
        return chain(self.pid, (
            (csn, fc.tentative.taken_at, fc.finalized_at, fc.new_sent_uids,
             fc.new_recv_uids, fc.tentative.state_bytes, fc.log_bytes)
            for csn, fc in sorted(self.finalized.items())))

    @property
    def status(self) -> str:
        """Convenience: the machine's status as a string (for tests/examples)."""
        return self.machine.stat.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OptimisticProcess(P{self.pid}, csn={self.machine.csn}, "
                f"{self.status}, finalized={sorted(self.finalized)})")
