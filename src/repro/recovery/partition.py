"""Network partition injection.

The paper's system model promises *finite but arbitrary* delays — a
temporary partition is the extreme case: messages across the cut are
delayed until the partition heals, but never lost.  Theorem 1 (convergence)
must therefore survive partitions: a round started before or during one
finalizes after the heal.

:class:`PartitionInjector` installs a delivery gate that holds messages
crossing the cut: each goes back in flight (:meth:`Network.redeliver`)
to arrive just after the heal, in original arrival order.  A held
message stays the network's, so a rollback flushes it with the rest.
Multiple sequential partitions are supported; overlapping ones are
rejected for clarity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..des.engine import Simulator
from ..net.message import Message
from ..net.network import REDELIVERY_SPACING, Network


@dataclass
class Partition:
    """One scheduled partition: two groups, a start and an end."""

    group_a: frozenset[int]
    group_b: frozenset[int]
    start: float
    end: float
    #: Messages this partition held (each arrives just after the heal).
    held: int = 0
    healed: bool = False

    def separates(self, src: int, dst: int) -> bool:
        """Whether the (src, dst) channel crosses this partition's cut."""
        return ((src in self.group_a and dst in self.group_b)
                or (src in self.group_b and dst in self.group_a))


class PartitionInjector:
    """Schedules partitions and holds cross-cut messages until heal."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.partitions: list[Partition] = []
        self._active: Partition | None = None
        self._prev_gate = network.delivery_gate
        network.delivery_gate = self._gate

    def partition(self, group_a, group_b, start: float,
                  end: float) -> Partition:
        """Split the system into two groups over ``[start, end)``."""
        a, b = frozenset(group_a), frozenset(group_b)
        if not a or not b:
            raise ValueError("both groups must be non-empty")
        if a & b:
            raise ValueError(f"groups overlap: {sorted(a & b)}")
        if end <= start:
            raise ValueError("end must be after start")
        for p in self.partitions:
            if start < p.end and p.start < end:
                raise ValueError("overlapping partitions are not supported")
        part = Partition(group_a=a, group_b=b, start=start, end=end)
        self.partitions.append(part)
        self.sim.schedule_at(start, lambda: self._begin(part))
        self.sim.schedule_at(end, lambda: self._heal(part))
        return part

    # -- internals ------------------------------------------------------------

    def _begin(self, part: Partition) -> None:
        self._active = part
        self.sim.trace.record(self.sim.now, "partition.begin", -1,
                              a=sorted(part.group_a), b=sorted(part.group_b))

    def _heal(self, part: Partition) -> None:
        part.healed = True
        if self._active is part:
            self._active = None
        self.sim.trace.record(self.sim.now, "partition.heal", -1,
                              released=part.held)

    def _gate(self, msg: Message) -> bool:
        part = self._active
        if part is not None and not part.healed \
                and part.separates(msg.src, msg.dst):
            part.held += 1
            arrival = part.end + part.held * REDELIVERY_SPACING
            self.network.redeliver(msg, arrival - self.sim.now)
            self.sim.trace.record(self.sim.now, "msg.held", msg.dst,
                                  uid=msg.uid, src=msg.src, kind=msg.kind)
            return False
        if self._prev_gate is not None:
            return self._prev_gate(msg)
        return True

    def holds(self) -> int:
        """Messages held across every partition so far."""
        return sum(p.held for p in self.partitions)

    def held_count(self) -> int:
        """Messages held by partitions that have not healed yet."""
        return sum(p.held for p in self.partitions if not p.healed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PartitionInjector(partitions={len(self.partitions)}, "
                f"held={self.held_count()})")
