"""The paper's contribution: optimistic checkpointing with selective logging.

* :mod:`~repro.core.state_machine` — Figures 3 & 4 as a pure state machine;
* :mod:`~repro.core.driver` — the one effect interpreter plus the selective
  log / window bookkeeping, shared by every runtime;
* :mod:`~repro.core.host` — the DES binding (network, flushes, timers);
* :mod:`~repro.core.config` — run configuration incl. flush policies;
* :mod:`~repro.core.types` — ``Status`` / ``Piggyback`` / checkpoints.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
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
    from .state_machine import COORDINATOR, MachineConfig, OptimisticStateMachine
    from .types import (
        ControlMessage,
        ControlType,
        FinalizedCheckpoint,
        LogEntry,
        LogSet,
        Piggyback,
        Status,
        TentativeCheckpoint,
    )

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "FlushAtFinalize": "config",
    "FlushImmediately": "config",
    "FlushOpportunistic": "config",
    "FlushPolicy": "config",
    "FlushUniformDelay": "config",
    "OptimisticConfig": "config",
    "ProtocolAnomalyError": "driver",
    "ProtocolDriver": "driver",
    "Anomaly": "effects",
    "ArmTimer": "effects",
    "BroadcastControl": "effects",
    "CancelTimer": "effects",
    "Effect": "effects",
    "Finalize": "effects",
    "SendControl": "effects",
    "TakeTentative": "effects",
    "OptimisticProcess": "host",
    "OptimisticRuntime": "host",
    "COORDINATOR": "state_machine",
    "MachineConfig": "state_machine",
    "OptimisticStateMachine": "state_machine",
    "ControlMessage": "types",
    "ControlType": "types",
    "FinalizedCheckpoint": "types",
    "LogEntry": "types",
    "LogSet": "types",
    "Piggyback": "types",
    "Status": "types",
    "TentativeCheckpoint": "types",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

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
    "LogEntry",
    "LogSet",
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
