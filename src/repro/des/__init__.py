"""Deterministic discrete-event simulation kernel.

The substrate every experiment runs on: an event heap with a total order
(:mod:`~repro.des.engine`), cancellable timers (:mod:`~repro.des.events`),
named reproducible RNG streams (:mod:`~repro.des.rng`), structured traces
(:mod:`~repro.des.trace`) and the sequential-process base class
(:mod:`~repro.des.process`).

The paper assumes an asynchronous message-passing system; this kernel plus
:mod:`repro.net` realizes exactly that model in simulation.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .engine import Simulator, run_all
    from .errors import SchedulingError, SimulationError, SimulationLimitExceeded
    from .events import Event, EventPriority, Timer
    from .process import SimProcess
    from .rng import RngRegistry
    from .trace import TraceRecord, TraceRecorder

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "Simulator": "engine",
    "run_all": "engine",
    "SchedulingError": "errors",
    "SimulationError": "errors",
    "SimulationLimitExceeded": "errors",
    "Event": "events",
    "EventPriority": "events",
    "Timer": "events",
    "SimProcess": "process",
    "RngRegistry": "rng",
    "TraceRecord": "trace",
    "TraceRecorder": "trace",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "Event",
    "EventPriority",
    "RngRegistry",
    "SchedulingError",
    "SimProcess",
    "SimulationError",
    "SimulationLimitExceeded",
    "Simulator",
    "Timer",
    "TraceRecord",
    "TraceRecorder",
    "run_all",
]
