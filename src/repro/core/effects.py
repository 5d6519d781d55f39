"""Effect commands emitted by the protocol state machine.

The state machine (:mod:`repro.core.state_machine`) is pure logic: it never
touches the simulator, network or storage.  Every handler returns a list of
effects; the one interpreter, :class:`repro.core.driver.ProtocolDriver`,
executes them against whichever runtime it is bound to.  This command
split is what makes the Figure 3/4 case analysis unit-testable in isolation
— the protocol tests assert on effect lists, not on simulated side effects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import ControlType


class Effect:
    """Marker base class for protocol effects."""

    __slots__ = ()


@dataclass(frozen=True)
class TakeTentative(Effect):
    """Capture process state as ``CT_{i,csn}`` (procedure of §3.4.1)."""

    csn: int


@dataclass(frozen=True)
class Finalize(Effect):
    """Flush ``CT_{i,csn}`` + message log to stable storage (§3.4.4).

    ``exclude_uid`` is the paper's ``logSet_i - {M}`` rule: the message that
    *revealed* a peer's finalization is not part of this checkpoint (it will
    be recorded by the next one).  ``None`` when no exclusion applies.
    ``reason`` tags which protocol case fired, for experiment breakdowns.
    """

    csn: int
    exclude_uid: int | None
    reason: str


@dataclass(frozen=True)
class SendControl(Effect):
    """Send ``CM(ctype, csn)`` to ``dst``."""

    dst: int
    ctype: ControlType
    csn: int


@dataclass(frozen=True)
class BroadcastControl(Effect):
    """Send ``CM(ctype, csn)`` to every other process (P_0's CK_END duty)."""

    ctype: ControlType
    csn: int


@dataclass(frozen=True)
class ArmTimer(Effect):
    """(Re)arm the convergence timer for the current tentative checkpoint."""

    csn: int


@dataclass(frozen=True)
class CancelTimer(Effect):
    """Cancel the convergence timer (finalized, or a control wave exists)."""


@dataclass(frozen=True)
class Anomaly(Effect):
    """A message that the paper proves impossible arrived anyway.

    Emitted instead of crashing so failure-injection experiments (where the
    impossibility proofs' assumptions are deliberately broken) can observe
    and count these; normal runs assert zero anomalies.
    """

    description: str
