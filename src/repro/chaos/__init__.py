"""repro.chaos — the unified fault-injection engine.

One fault-plan vocabulary (:mod:`~repro.chaos.plan`), two interposers —
the DES delivery-gate injector (:mod:`~repro.chaos.des`) and the live
endpoint/storage injector (:mod:`~repro.chaos.live`) — and the
conformance matrix (:mod:`~repro.chaos.matrix`) that runs every fault
kind through both runtimes and proves, per cell, that the optimistic
protocol stayed consistent (Theorem 2: no orphans) and recovered
(Theorem 1: checkpoint rounds keep finalizing after the faults end).

See docs/ROBUSTNESS.md for the fault-plan format and the matrix's
acceptance semantics; ``repro chaos`` is the CLI entry point.

Everything outside :mod:`~repro.chaos.plan` loads on first use
(:mod:`repro._lazy`): live worker processes import ``repro.chaos.live``
on their startup path and must not pay for the simulator/harness import
chain they never use — ``repro verify --lint`` rule REP109 enforces it.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .plan import (
    ALL_KINDS,
    CRASH_KINDS,
    PARTITION_KINDS,
    STORAGE_KINDS,
    WIRE_KINDS,
    ChaosError,
    Fault,
    FaultPlan,
    fault_plan_key,
    single_fault_plan,
)

if TYPE_CHECKING:
    from .des import DesChaosInjector, default_des_plan, run_des_cell
    from .live import ChaosEndpoint, ChaosStorage, chaos_storage, lost_messages
    from .matrix import (
        DEFAULT_KINDS,
        CellResult,
        MatrixReport,
        default_live_plan,
        run_live_cell,
        run_matrix,
    )

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "DesChaosInjector": "des",
    "default_des_plan": "des",
    "run_des_cell": "des",
    "ChaosEndpoint": "live",
    "ChaosStorage": "live",
    "chaos_storage": "live",
    "lost_messages": "live",
    "DEFAULT_KINDS": "matrix",
    "CellResult": "matrix",
    "MatrixReport": "matrix",
    "default_live_plan": "matrix",
    "run_live_cell": "matrix",
    "run_matrix": "matrix",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "ALL_KINDS",
    "CRASH_KINDS",
    "CellResult",
    "ChaosEndpoint",
    "ChaosError",
    "ChaosStorage",
    "DEFAULT_KINDS",
    "DesChaosInjector",
    "Fault",
    "FaultPlan",
    "MatrixReport",
    "PARTITION_KINDS",
    "STORAGE_KINDS",
    "WIRE_KINDS",
    "chaos_storage",
    "default_des_plan",
    "default_live_plan",
    "fault_plan_key",
    "lost_messages",
    "run_des_cell",
    "run_live_cell",
    "run_matrix",
    "single_fault_plan",
]
