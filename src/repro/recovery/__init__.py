"""Failure injection, recovery-cost analysis (E8), and live rollback
recovery for the optimistic protocol.

A crash halts a process, and the network refuses every delivery to a
halted one.  A network partition is not a recovery concern: it is a
``partition`` :class:`~repro.chaos.plan.Fault`, held until its heal by
:class:`~repro.chaos.des.DesChaosInjector`.
"""

from .failure import CrashPlan, FailureInjector
from .restart import RecoveryEvent, RecoveryManager
from .rollback import (
    NoRecoveryPoint,
    RecoveryOutcome,
    interval_messages_at,
    recover_coordinated,
    recover_optimistic,
    recover_optimistic_no_log,
    recover_uncoordinated,
)

__all__ = [
    "CrashPlan",
    "FailureInjector",
    "NoRecoveryPoint",
    "RecoveryEvent",
    "RecoveryManager",
    "RecoveryOutcome",
    "interval_messages_at",
    "recover_coordinated",
    "recover_optimistic",
    "recover_optimistic_no_log",
    "recover_uncoordinated",
]
