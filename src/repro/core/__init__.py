"""The paper's contribution: optimistic checkpointing with selective logging.

* :mod:`~repro.core.state_machine` — Figures 3 & 4 as a pure state machine;
* :mod:`~repro.core.driver` — the one effect interpreter plus the selective
  log / window bookkeeping, shared by every runtime;
* :mod:`~repro.core.host` — the DES binding (network, flushes, timers);
* :mod:`~repro.core.config` — run configuration incl. flush policies;
* :mod:`~repro.core.types` — ``Status`` / ``Piggyback`` / checkpoints.
"""

from .config import (
    FlushAtFinalize,
    FlushImmediately,
    FlushOpportunistic,
    FlushPolicy,
    FlushUniformDelay,
    OptimisticConfig,
)
from .driver import ProtocolAnomalyError, ProtocolDriver
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
from .host import OptimisticProcess, OptimisticRuntime
from .invariants import InvariantMonitor, InvariantViolation
from .state_machine import COORDINATOR, MachineConfig, OptimisticStateMachine
from .types import (
    ControlMessage,
    ControlType,
    FinalizedCheckpoint,
    LogEntry,
    Piggyback,
    Status,
    TentativeCheckpoint,
)

__all__ = [
    "Anomaly",
    "ArmTimer",
    "BroadcastControl",
    "COORDINATOR",
    "CancelTimer",
    "ControlMessage",
    "ControlType",
    "Effect",
    "Finalize",
    "FinalizedCheckpoint",
    "FlushAtFinalize",
    "FlushImmediately",
    "FlushOpportunistic",
    "FlushPolicy",
    "FlushUniformDelay",
    "InvariantMonitor",
    "InvariantViolation",
    "LogEntry",
    "MachineConfig",
    "OptimisticConfig",
    "OptimisticProcess",
    "OptimisticRuntime",
    "OptimisticStateMachine",
    "Piggyback",
    "ProtocolAnomalyError",
    "ProtocolDriver",
    "SendControl",
    "Status",
    "TakeTentative",
    "TentativeCheckpoint",
]
