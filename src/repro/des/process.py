"""Base class for simulated sequential processes.

The paper's system model (§2.1): *N* sequential processes, no shared memory,
no global clock, message passing only, asynchronous execution, channels with
finite but arbitrary delay, not necessarily FIFO.

:class:`SimProcess` gives each process an id, access to the simulator (clock,
timers, RNG) and hooks the network layer calls on delivery.  Subclasses
implement ``on_message``; the application/workload layer and every
checkpointing protocol build on this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from .engine import Simulator
from .events import Event, EventPriority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.message import Message
    from ..net.network import Network


class SimProcess:
    """A sequential process attached to a simulator and (later) a network.

    Subclass contract
    -----------------
    * ``on_message(msg)`` — invoked once per delivered message, in delivery
      order.  The process model is sequential: the kernel never interleaves
      two handlers of the same process at the same instant (total event
      order guarantees this).
    * ``on_start()`` — invoked when the simulation host starts the process
      (time 0 by default); override to arm timers / send first messages.
    """

    def __init__(self, pid: int, sim: Simulator) -> None:
        if pid < 0:
            raise ValueError(f"process ids must be non-negative, got {pid}")
        self.pid = pid
        self.sim = sim
        self.network: "Network | None" = None
        #: Count of handler invocations, useful for sanity checks in tests.
        self.delivered_count = 0
        #: Set by the failure injector: a halted (crashed) process neither
        #: receives deliveries nor fires timers armed via ``set_timeout``.
        self.halted = False
        #: Bumped on rollback recovery; timeouts armed under an older
        #: incarnation are silently dropped (their continuation chains
        #: belong to the discarded execution).
        self.incarnation = 0

    # -- lifecycle ---------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Bind this process to a network (called by ``Network.add_process``)."""
        self.network = network

    def detach(self) -> None:
        """Let go of the run's wiring once the run is over.

        Called by :meth:`Network.unwire` on every process in its roster.
        The network keeps the roster, so the process drops its way back
        to the network, and a per-instance ``on_message`` shim
        (:func:`repro.storage.networked.install_ack_shim`) that closes
        over the process.  Subclasses drop their other references back
        into the run (runtime, driver port, timers) and call this.  What
        is left is a tree that reference counting frees (DESIGN.md "Who
        owns whom"); the process's records stay readable.
        """
        self.network = None
        self.__dict__.pop("on_message", None)

    def on_start(self) -> None:
        """Hook invoked at process start; default does nothing."""

    def on_message(self, msg: "Message") -> None:
        """Handle a delivered message; subclasses must override."""
        raise NotImplementedError

    # -- conveniences ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    def send(self, dst: int, payload: Any = None, *, size: int = 0,
             kind: str = "app") -> "Message":
        """Send a message through the attached network.

        Thin wrapper over :meth:`Network.send`; raises if the process was
        never attached (a programming error the message names explicitly).
        """
        if self.network is None:
            raise RuntimeError(
                f"process {self.pid} is not attached to a network")
        return self.network.send(self.pid, dst, payload, size=size, kind=kind)

    def set_timeout(self, delay: float, fn: Callable[[], None]) -> Event:
        """Arm a fresh one-shot timeout firing ``delay`` from now.

        The callback is skipped if the process has been halted (crashed) by
        the failure injector, or rolled back to an earlier incarnation, in
        the meantime.  Returns the scheduled :class:`Event` (supports
        ``cancel()`` / ``active`` like the ``Timer`` it used to wrap —
        scheduling directly avoids a Timer allocation per arm on the
        workload hot path).
        """
        inc = self.incarnation

        def guarded() -> None:
            if not self.halted and self.incarnation == inc:
                fn()
        return self.sim.schedule(delay, guarded, priority=EventPriority.TIMER)

    def trace(self, kind: str, **data: Any) -> None:
        """Record a trace entry attributed to this process."""
        tr = self.sim.trace
        if tr.enabled:
            tr.record(self.sim.now, kind, self.pid, **data)

    # -- internal ----------------------------------------------------------

    def _deliver(self, msg: "Message") -> None:
        """Network-facing delivery entry point (counts, then dispatches)."""
        if self.halted:
            return
        self.delivered_count += 1
        self.on_message(msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(pid={self.pid})"
