"""The protocol driver: one effect interpreter for every runtime.

:class:`ProtocolDriver` is everything about running the paper's protocol
that does not depend on *where* it runs.  It owns one
:class:`~repro.core.state_machine.OptimisticStateMachine` and executes
every :class:`~repro.core.effects.Effect` the machine emits; it keeps the
bookkeeping the theorems are stated over:

* the selective message log (``logSet`` — §3.1), a column store
  (:class:`~repro.core.types.LogSet`) with a running byte size;
* the send/receive *windows*: for each finalized ``C_{i,k}`` exactly which
  application-message uids the checkpoint captures (everything between
  ``CFE_{i,k-1}`` and ``CFE_{i,k}``, minus the paper's excluded trigger
  message ``M``, which belongs to the *next* window);
* the application-state digest (:func:`~repro.core.types.fold_digest`);
* the rule that a checkpoint taken for *any* reason satisfies the
  scheduled-checkpoint requirement (paper §1: at most one per interval).

A runtime plugs in through :class:`RuntimePort`; the three ports are
:class:`repro.core.host.OptimisticProcess` (simulator),
:class:`repro.live.host.LiveHost` and the model checker's
:class:`repro.verify.explore.ModelProcess`.
"""

from __future__ import annotations

from typing import Protocol

from .effects import (
    Anomaly,
    ArmTimer,
    BroadcastControl,
    CancelTimer,
    Effect,
    Finalize,
    SendControl,
    TakeTentative,
)
from .state_machine import MachineConfig, OptimisticStateMachine, receive_case
from .types import (
    ControlMessage,
    FinalizedCheckpoint,
    LogSet,
    Piggyback,
    Status,
    TentativeCheckpoint,
    fold_digest,
)

_TENTATIVE = Status.TENTATIVE


class ProtocolAnomalyError(RuntimeError):
    """Raised in strict mode when a proven-impossible message arrives."""


class RuntimePort(Protocol):
    """What a runtime provides to the driver (every member is required)."""

    @property
    def now(self) -> float:
        """The runtime's clock (simulated or wall)."""

    def send_control(self, dst: int, cm: ControlMessage) -> None:
        """Deliver ``cm`` to process ``dst`` over the runtime's transport."""

    def arm_convergence_timer(self) -> None:
        """(Re)arm the §3.5.1 timer; expiry calls :meth:`ProtocolDriver.on_timer`."""

    def cancel_convergence_timer(self) -> None:
        """Disarm the §3.5.1 timer if armed."""

    def arm_initiation_timer(self) -> None:
        """(Re)arm the scheduled-initiation timer one full interval out; its
        expiry calls :meth:`ProtocolDriver.on_initiation_timer`."""

    def capture_tentative(self, csn: int, digest: int) -> TentativeCheckpoint:
        """Capture the process state as ``CT_{i,csn}`` and return its record
        (size, capture time and early flushing are the runtime's business)."""

    def store_finalized(self, fc: FinalizedCheckpoint,
                        exclude_uid: int | None) -> None:
        """Make ``C_{i,csn}`` permanent.  Called while the driver's log and
        windows still hold the round being finalized."""

    def report_anomaly(self, description: str) -> None:
        """Record a proven-impossible message in the runtime's own trace."""


class ProtocolDriver:
    """State machine + effect interpreter + ``logSet`` bookkeeping."""

    def __init__(self, pid: int, n: int, port: RuntimePort,
                 machine_config: MachineConfig | None = None, *,
                 log_all: bool = False, strict: bool = False,
                 reset_schedule: bool = True) -> None:
        self.port = port
        self.machine = OptimisticStateMachine(pid, n, config=machine_config)
        #: ``OptimisticConfig.log_all_messages`` (the E12 ablation).
        self.log_all = log_all
        #: Raise :class:`ProtocolAnomalyError` on an :class:`Anomaly`.
        self.strict = strict
        #: ``OptimisticConfig.reset_schedule_on_checkpoint``.
        self.reset_schedule = reset_schedule
        self.current_tentative: TentativeCheckpoint | None = None
        # Selective message log + verification windows ------------------------
        #: The open round's ``logSet`` (handed to ``C_{i,k}`` at finalize).
        self.log_entries = LogSet()
        self.window_sent: list[int] = []
        self.window_recv: list[int] = []
        #: Simulated application state: a fold over processed message uids —
        #: makes recovery's restore-and-replay semantics checkable.
        self.state_digest = 0
        # Diagnostics ------------------------------------------------------------
        self.anomalies: list[str] = []
        self.ctl_sent: dict[str, int] = {}
        self.finalize_reasons: dict[str, int] = {}
        #: §3.4.3 receive-case histogram, populated only when a harness
        #: (the fuzzer's coverage map) switches it on by assigning a dict.
        self.case_counts: dict[str, int] | None = None

    def clone(self, port: RuntimePort) -> "ProtocolDriver":
        """Independent copy bound to ``port`` (the model checker takes one
        per explored transition)."""
        new = ProtocolDriver.__new__(ProtocolDriver)
        new.port = port
        new.machine = self.machine.clone()
        new.log_all = self.log_all
        new.strict = self.strict
        new.reset_schedule = self.reset_schedule
        new.current_tentative = self.current_tentative
        new.log_entries = self.log_entries.copy()
        new.window_sent = list(self.window_sent)
        new.window_recv = list(self.window_recv)
        new.state_digest = self.state_digest
        new.anomalies = list(self.anomalies)
        new.ctl_sent = dict(self.ctl_sent)
        new.finalize_reasons = dict(self.finalize_reasons)
        new.case_counts = (None if self.case_counts is None
                           else dict(self.case_counts))
        return new

    @property
    def log_bytes(self) -> int:
        """Bytes held in the open ``logSet``."""
        return self.log_entries.total_bytes

    # -- inputs ----------------------------------------------------------------

    def initiate(self) -> bool:
        """Start a consistent global checkpoint (§3.4.1); returns whether a
        tentative checkpoint was actually taken (not while one is open)."""
        effects = self.machine.initiate()
        self._execute(effects)
        return bool(effects)

    def on_initiation_timer(self) -> None:
        """Scheduled basic-checkpoint initiation, then the next period."""
        self.initiate()
        self.port.arm_initiation_timer()

    def app_sent(self, uid: int, nbytes: int) -> None:
        """An application message left with the current piggyback (§3.4.2)."""
        self.window_sent.append(uid)
        if self.machine.stat is _TENTATIVE or self.log_all:
            self._log(uid, nbytes, "sent")

    def app_received(self, pb: Piggyback, uid: int, nbytes: int) -> None:
        """An application message was processed (§3.4.3: "it processes the
        message first and then takes the following actions")."""
        self.state_digest = fold_digest(self.state_digest, uid)
        self.window_recv.append(uid)
        machine = self.machine
        if machine.stat is _TENTATIVE or self.log_all:
            self._log(uid, nbytes, "recv")
        counts = self.case_counts
        if counts is not None:
            label = receive_case(machine.stat, pb.stat, pb.csn, machine.csn)
            counts[label] = counts.get(label, 0) + 1
        effects = machine.on_app_receive(pb, uid)
        if effects:
            self._execute(effects)

    def on_control(self, cm: ControlMessage, sender: int) -> None:
        """A §3.5.1 control message arrived from ``sender``."""
        self._execute(self.machine.on_control(cm, sender))

    def on_timer(self) -> None:
        """The convergence timer expired."""
        self._execute(self.machine.on_timer())

    def rollback(self, fc: FinalizedCheckpoint) -> None:
        """Restore the protocol to "just finalized ``fc``".

        The paper's recovery at one process: the stable state ``CT`` plus a
        replay of ``logSet`` reconstructs the state at ``CFE``; the open
        tentative checkpoint, the current log and windows, and control-plane
        memory of later rounds are discarded.  Stored checkpoints newer than
        ``fc`` and the initiation schedule are the runtime's to reset.
        """
        self.machine.rollback(fc.csn)
        self.current_tentative = None
        self.log_entries = LogSet()
        self.window_sent = []
        self.window_recv = []
        self.port.cancel_convergence_timer()
        self.state_digest = fc.replay_digest()

    # -- the effect interpreter ----------------------------------------------------

    def _execute(self, effects: list[Effect]) -> None:
        for eff in effects:
            if isinstance(eff, TakeTentative):
                self._take_tentative(eff.csn)
            elif isinstance(eff, Finalize):
                self._finalize(eff)
            elif isinstance(eff, SendControl):
                self._send_control(eff.dst, ControlMessage(eff.ctype, eff.csn))
            elif isinstance(eff, BroadcastControl):
                cm = ControlMessage(eff.ctype, eff.csn)
                for dst in range(self.machine.n):
                    if dst != self.machine.pid:
                        self._send_control(dst, cm)
            elif isinstance(eff, ArmTimer):
                self.port.arm_convergence_timer()
            elif isinstance(eff, CancelTimer):
                self.port.cancel_convergence_timer()
            elif isinstance(eff, Anomaly):
                self.anomalies.append(eff.description)
                self.port.report_anomaly(eff.description)
                if self.strict:
                    raise ProtocolAnomalyError(eff.description)
            else:  # pragma: no cover - REP006 keeps this unreachable
                raise TypeError(f"unknown effect {eff!r}")

    def _send_control(self, dst: int, cm: ControlMessage) -> None:
        ctype = cm.ctype.value
        self.ctl_sent[ctype] = self.ctl_sent.get(ctype, 0) + 1
        self.port.send_control(dst, cm)

    def _log(self, uid: int, nbytes: int, direction: str) -> None:
        self.log_entries.append(uid, nbytes, direction, self.port.now)

    def _take_tentative(self, csn: int) -> None:
        if not self.log_all:
            self.log_entries = LogSet()
        # A checkpoint taken for any reason satisfies the scheduled
        # requirement (paper §1: at most one checkpoint per interval).
        if self.reset_schedule:
            self.port.arm_initiation_timer()
        self.current_tentative = self.port.capture_tentative(
            csn, self.state_digest)

    def _finalize(self, eff: Finalize) -> None:
        ckpt = self.current_tentative
        assert ckpt is not None and ckpt.csn == eff.csn, (
            f"P{self.machine.pid} finalizing csn={eff.csn} but current "
            f"tentative is {ckpt}")
        exclude = eff.exclude_uid
        log = self.log_entries
        fc = FinalizedCheckpoint(
            pid=self.machine.pid, csn=eff.csn, tentative=ckpt,
            finalized_at=self.port.now,
            log_entries=log if exclude is None else log.without(exclude),
            new_sent_uids=frozenset(self.window_sent),
            new_recv_uids=frozenset(self.window_recv) - {exclude},
            reason=eff.reason)
        self.finalize_reasons[eff.reason] = (
            self.finalize_reasons.get(eff.reason, 0) + 1)
        self.port.store_finalized(fc, exclude)
        # The excluded message belongs to the *next* checkpoint's window (it
        # is part of the state at CT_{i,k+1}).  Selective logging restarts
        # at the next CT; pessimistic (ablation) logging keeps the excluded
        # entry alive for the next log.
        self.window_sent = []
        self.window_recv = [] if exclude is None else [exclude]
        self.log_entries = (LogSet(e for e in log if e.uid == exclude)
                            if self.log_all else LogSet())
        self.current_tentative = None
