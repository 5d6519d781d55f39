"""Failure injection, recovery-cost analysis (E8), and live rollback
recovery for the optimistic protocol."""

from .failure import CrashPlan, FailureInjector
from .partition import Partition, PartitionInjector
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
    "Partition",
    "PartitionInjector",
    "RecoveryEvent",
    "RecoveryManager",
    "RecoveryOutcome",
    "interval_messages_at",
    "recover_coordinated",
    "recover_optimistic",
    "recover_optimistic_no_log",
    "recover_uncoordinated",
]
