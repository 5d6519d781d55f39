"""The message-passing network tying processes, topology and channels together.

``Network.send`` is the single entry point every protocol uses.  It

1. validates the destination and (optionally) topology connectivity —
   messages between non-adjacent processes are *routed* along a shortest
   path with per-hop latency, so protocols that logically assume full
   connectivity (like the paper's, whose control messages go to ``P_0``)
   still run over sparse physical topologies;
2. stamps and traces the message (``msg.send`` record);
3. schedules the delivery event at the channel-computed arrival time
   (``msg.deliver`` record, then the destination's handler).

A ``delivery_gate`` hook lets the failure injector suppress delivery to
crashed processes without the network knowing anything about failures.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Any, Callable, Iterable

from ..des.engine import Simulator
from ..des.events import Event, EventPriority
from ..des.process import SimProcess
from .channel import Channel
from .latency import ConstantLatency, LatencyModel, UniformLatency
from .message import Message, _next_uid
from .topology import Topology, complete

#: Plain int of the delivery priority band — heap tuples compare faster
#: with ints than IntEnum members, and the value is fixed.
_DELIVERY = int(EventPriority.DELIVERY)


class Network:
    """Point-to-point network over a topology.

    Parameters
    ----------
    sim:
        The simulator providing the clock, RNG registry and trace.
    topology:
        Connectivity graph; defaults to a complete graph once the first
        process set is known (pass explicitly for sparse experiments).
    latency:
        Shared latency model (per-channel RNG streams keep draws independent).
    fifo:
        Delivery discipline for *all* channels.  The paper's model is
        non-FIFO (default); Chandy-Lamport runs demand ``fifo=True``.
    """

    def __init__(self, sim: Simulator, topology: Topology | None = None,
                 latency: LatencyModel | None = None, *, fifo: bool = False,
                 n: int | None = None,
                 nic_bandwidth: float | None = None,
                 medium_bandwidth: float | None = None,
                 app_n: int | None = None) -> None:
        if topology is None:
            if n is None:
                raise ValueError("pass a topology or n (for a complete graph)")
            topology = complete(n)
        if nic_bandwidth is not None and nic_bandwidth <= 0:
            raise ValueError(f"nic_bandwidth must be > 0, got {nic_bandwidth}")
        if medium_bandwidth is not None and medium_bandwidth <= 0:
            raise ValueError(
                f"medium_bandwidth must be > 0, got {medium_bandwidth}")
        if app_n is not None and not (1 <= app_n <= topology.n):
            raise ValueError(
                f"app_n must be in [1, {topology.n}], got {app_n}")
        self.sim = sim
        self.topology = topology
        #: Number of *application* processes (pids ``0..app_n-1``).  Extra
        #: topology nodes beyond this are infrastructure (e.g. a networked
        #: file server) — excluded from ``n``, broadcasts and workloads.
        self.app_n = app_n if app_n is not None else topology.n
        self.latency = latency if latency is not None else UniformLatency()
        self.fifo = fifo
        #: Bytes/second each process's network interface can transmit;
        #: ``None`` = unlimited (pure latency model).  With a bandwidth,
        #: each sender's outgoing messages serialize at its NIC: a message
        #: departs only when the NIC is free, and occupies it for
        #: ``total_bytes / nic_bandwidth``.
        self.nic_bandwidth = nic_bandwidth
        self._nic_free_at: dict[int, float] = {}
        #: Bytes/second of a *shared* transmission medium (classic shared
        #: fabric/uplink): every message, regardless of endpoints, occupies
        #: it for ``total_bytes / medium_bandwidth``.  This is where bulk
        #: checkpoint transfers visibly delay application traffic (E17) —
        #: per-sender NICs alone cannot show it, since every protocol ships
        #: the same per-sender volume.  ``None`` = no shared bottleneck.
        self.medium_bandwidth = medium_bandwidth
        self._medium_free_at = 0.0
        self.processes: dict[int, SimProcess] = {}
        self._channels: dict[tuple[int, int], Channel] = {}
        #: Hot-path mirror of ``_channels`` keyed by ``src * n + dst`` —
        #: an int dict lookup per send instead of building + hashing a
        #: tuple key.
        self._chan_fast: dict[int, Channel] = {}
        self._tn = topology.n
        #: With a ConstantLatency model every direct-channel draw is the
        #: same constant (the model ignores the RNG), so the per-send
        #: sample() call can be skipped entirely.
        self._const_delay = (self.latency.delay
                             if type(self.latency) is ConstantLatency
                             else None)
        #: uid -> pending delivery event, for in-flight flushing on rollback.
        self._pending_deliveries: dict[int, "Event"] = {}
        #: Whether sends must create *cancellable* delivery events.  Off by
        #: default: a failure-free run never cancels an in-flight message,
        #: so deliveries ride the heap as bare callables (no Event object,
        #: no pending-dict bookkeeping — measurable per message).  Flipped
        #: on for good the moment a delivery gate is installed, which every
        #: fault mechanism (failure/partition/chaos injectors — and thus
        #: every ``drop_in_flight`` caller) does before the run starts.
        self._track_deliveries = False
        self._delivery_gate: Callable[[Message], bool] | None = None
        # Aggregate counters (per message kind).
        self.sent_by_kind: dict[str, int] = {}
        self.bytes_by_kind: dict[str, int] = {}
        self.overhead_by_kind: dict[str, int] = {}
        self.delivered_by_kind: dict[str, int] = {}

    # -- membership --------------------------------------------------------

    def add_process(self, proc: SimProcess) -> None:
        """Register ``proc``; its pid must be a node of the topology."""
        if proc.pid >= self.topology.n:
            raise ValueError(
                f"pid {proc.pid} outside topology of size {self.topology.n}")
        if proc.pid in self.processes:
            raise ValueError(f"duplicate pid {proc.pid}")
        self.processes[proc.pid] = proc
        proc.attach(self)

    def add_processes(self, procs: Iterable[SimProcess]) -> None:
        """Register several processes (pid order irrelevant)."""
        for p in procs:
            self.add_process(p)

    def unwire(self) -> None:
        """End of run: drop every reference that points back into the run.

        Every process in the roster detaches
        (:meth:`~repro.des.process.SimProcess.detach`) and the delivery
        gate goes (an interposer that holds this network, such as a fault
        injector's bound ``_gate``).  The roster, the channels and every
        counter stay, so the finished run stays readable, and it is a
        tree that reference counting frees
        (:func:`repro.harness.runner.run_experiment` calls this last).
        """
        for proc in self.processes.values():
            proc.detach()
        self._delivery_gate = None

    def start_all(self) -> None:
        """Invoke ``on_start`` on every process (in pid order, at t=now)."""
        for pid in sorted(self.processes):
            self.processes[pid].on_start()

    @property
    def n(self) -> int:
        """Number of application processes (see ``app_n``)."""
        return self.app_n

    @property
    def delivery_gate(self) -> Callable[[Message], bool] | None:
        """Called before delivery; return False to silently drop (used by
        the failure/partition/chaos injectors)."""
        return self._delivery_gate

    @delivery_gate.setter
    def delivery_gate(self, gate: Callable[[Message], bool] | None) -> None:
        self._delivery_gate = gate
        if gate is not None:
            # A gate means faults are in play: from here on every delivery
            # must be cancellable so drop_in_flight can flush the channels.
            self._track_deliveries = True

    # -- channels ----------------------------------------------------------

    def channel(self, src: int, dst: int) -> Channel:
        """The directed channel object for ``(src, dst)`` (created lazily)."""
        key = (src, dst)
        ch = self._channels.get(key)
        if ch is None:
            rng = self.sim.rng.stream(f"net.{src}->{dst}")
            ch = Channel(src, dst, rng, fifo=self.fifo,
                         direct=self.topology.connected(src, dst))
            self._channels[key] = ch
            self._chan_fast[src * self._tn + dst] = ch
        return ch

    def channels(self) -> list[Channel]:
        """All channels used so far."""
        return [self._channels[k] for k in sorted(self._channels)]

    # -- sending -----------------------------------------------------------

    def send(self, src: int, dst: int, payload: Any = None, size: int = 0,
             kind: str = "app", meta: dict[str, Any] | None = None,
             overhead_bytes: int = 0) -> Message:
        """Send one message; returns the envelope (already scheduled).

        Hot path (once per message in every experiment): locals are
        hoisted, channel stats and counters are updated inline, the trace
        call is guarded so a disabled recorder costs nothing, the ``meta``
        dict is adopted (not copied), and the delivery event is pushed
        onto the simulator heap directly — the ``schedule_at`` frame is
        measurable at one call per message.  Parameters are positional
        (not keyword-only) so hot callers skip keyword packing.
        """
        if dst not in self.processes:
            raise ValueError(f"unknown destination process {dst}")
        if src == dst:
            raise ValueError(f"process {src} cannot send to itself")
        sim = self.sim
        now = sim.now
        total = size + overhead_bytes
        # Message.__init__ inlined (keep the stores in sync with it): one
        # envelope per send, and the constructor frame is measurable.
        msg = Message.__new__(Message)
        msg.src = src
        msg.dst = dst
        msg.kind = kind
        msg.payload = payload
        msg.meta = {} if meta is None else meta
        msg.size = size
        msg.overhead_bytes = overhead_bytes
        msg.send_time = now
        msg.deliver_time = None
        msg.uid = _next_uid()
        try:
            ch = self._chan_fast[src * self._tn + dst]
        except KeyError:
            ch = self.channel(src, dst)
        if ch.direct:
            delay = self._const_delay
            if delay is None:
                delay = self.latency.sample(ch.rng, src, dst, total)
        else:
            delay = self._path_latency(src, dst, total, ch)
        # NIC serialization: the message departs when the sender's NIC is
        # free and occupies it for its transmission time.
        if self.nic_bandwidth is not None:
            tx = total / self.nic_bandwidth
            depart = max(now, self._nic_free_at.get(src, 0.0))
            self._nic_free_at[src] = depart + tx
            delay += (depart - now) + tx
        # Shared-medium serialization: every message contends for one
        # fabric, so bulk transfers delay unrelated traffic.
        if self.medium_bandwidth is not None:
            tx = total / self.medium_bandwidth
            depart = max(now, self._medium_free_at)
            self._medium_free_at = depart + tx
            delay += (depart - now) + tx
        # Non-FIFO arrival is simply now + delay; only FIFO channels need
        # the clamping logic in Channel.arrival_time.
        if ch.fifo:
            arrival = ch.arrival_time(now, delay)
        else:
            arrival = now + delay
        stats = ch.stats
        stats.messages += 1
        stats.bytes += total
        flight = stats.in_flight + 1
        stats.in_flight = flight
        if flight > stats.max_in_flight:
            stats.max_in_flight = flight
        # try/except beats .get(): the key exists on every send but the
        # kind's first, and the happy path is two subscripts, no method call.
        counts = self.sent_by_kind
        try:
            counts[kind] += 1
        except KeyError:
            counts[kind] = 1
        counts = self.bytes_by_kind
        try:
            counts[kind] += total
        except KeyError:
            counts[kind] = total
        counts = self.overhead_by_kind
        try:
            counts[kind] += overhead_bytes
        except KeyError:
            counts[kind] = overhead_bytes
        tr = sim.trace
        if tr.enabled:
            tr.record(now, "msg.send", src, uid=msg.uid, dst=dst, kind=kind,
                      bytes=total)
        # Inlined Simulator.schedule_at (arrival >= now by construction:
        # every latency model draws a positive delay and the serialization
        # terms only add).  partial beats a lambda here: fewer allocations
        # (no closure cells) and a C-level call.
        sim._seq = seq = sim._seq + 1
        heap = sim._heap
        if self._track_deliveries:
            # Faults in play: wrap in a cancellable Event and track it so
            # drop_in_flight can flush the channel.
            ev = Event(arrival, _DELIVERY, seq, partial(self._deliver, msg, ch))
            ev._owner = sim
            heappush(heap, (arrival, _DELIVERY, seq, ev))
            self._pending_deliveries[msg.uid] = ev
        else:
            heappush(heap, (arrival, _DELIVERY, seq,
                            partial(self._deliver, msg, ch)))
        if len(heap) > sim.peak_pending:
            sim.peak_pending = len(heap)
        return msg

    def broadcast(self, src: int, payload: Any = None, *, size: int = 0,
                  kind: str = "app", meta: dict[str, Any] | None = None,
                  overhead_bytes: int = 0) -> list[Message]:
        """Send the same content to every other process (N-1 messages)."""
        out = []
        for dst in sorted(self.processes):
            if dst != src:
                out.append(self.send(src, dst, payload, size=size, kind=kind,
                                     meta=dict(meta) if meta else None,
                                     overhead_bytes=overhead_bytes))
        return out

    # -- internals ---------------------------------------------------------

    def _path_latency(self, src: int, dst: int, nbytes: int,
                      ch: Channel) -> float:
        """Latency for the (possibly multi-hop) path from src to dst."""
        if self.topology.connected(src, dst):
            return self.latency.sample(ch.rng, src, dst, nbytes)
        # Route along a shortest path; per-hop draws from the direct
        # channel's stream keep determinism without materializing channels
        # for every hop pair.
        path = self.topology.shortest_path(src, dst)
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += self.latency.sample(ch.rng, u, v, nbytes)
        return total

    def _deliver(self, msg: Message, ch: Channel) -> None:
        sim = self.sim
        now = sim.now
        if self._track_deliveries:
            self._pending_deliveries.pop(msg.uid, None)
        gate = self._delivery_gate
        if gate is not None and not gate(msg):
            # Gates attribute their refusal by stamping meta["drop_cause"]
            # (failure injector: "crashed"; partitions: "partition"; chaos:
            # "chaos.*"); an unstamped refusal is a generic gate drop.
            cause = msg.meta.get("drop_cause", "gate")
            ch.stats.on_drop(msg, cause=cause)
            tr = sim.trace
            if tr.enabled:
                tr.record(now, "msg.drop", msg.dst, uid=msg.uid,
                          src=msg.src, kind=msg.kind, cause=cause)
            return
        msg.deliver_time = now
        stats = ch.stats
        stats.in_flight -= 1
        stats.delivered += 1
        kind = msg.kind
        counts = self.delivered_by_kind
        try:
            counts[kind] += 1
        except KeyError:
            counts[kind] = 1
        tr = sim.trace
        if tr.enabled:
            tr.record(now, "msg.deliver", msg.dst, uid=msg.uid,
                      src=msg.src, kind=kind,
                      bytes=msg.size + msg.overhead_bytes)
        # SimProcess._deliver inlined (halted check + count + dispatch):
        # one call frame per delivered message.  Keep in sync with
        # SimProcess._deliver, which remains the entry point for direct
        # callers.
        proc = self.processes[msg.dst]
        if proc.halted:
            return
        proc.delivered_count += 1
        proc.on_message(msg)

    @staticmethod
    def _bump(counter: dict[str, int], kind: str) -> None:
        counter[kind] = counter.get(kind, 0) + 1

    # -- summaries ---------------------------------------------------------

    def total_sent(self, kind: str | None = None) -> int:
        """Messages sent, optionally restricted to one kind."""
        if kind is None:
            return sum(self.sent_by_kind.values())
        return self.sent_by_kind.get(kind, 0)

    def total_bytes(self, kind: str | None = None) -> int:
        """Wire bytes sent, optionally restricted to one kind."""
        if kind is None:
            return sum(self.bytes_by_kind.values())
        return self.bytes_by_kind.get(kind, 0)

    def total_overhead_bytes(self, kind: str | None = None) -> int:
        """Protocol-added bytes (piggybacks + control payloads)."""
        if kind is None:
            return sum(self.overhead_by_kind.values())
        return self.overhead_by_kind.get(kind, 0)

    def in_flight(self) -> int:
        """Messages currently in flight across all channels."""
        return sum(ch.stats.in_flight for ch in self._channels.values())

    def drop_in_flight(self) -> int:
        """Discard every message currently in flight; returns the count.

        Used by rollback recovery: messages in the channels belong to the
        rolled-back execution and must not be delivered into the recovered
        one (channel-flushing, the standard recovery assumption).  Each
        dropped message is traced as ``msg.drop``.
        """
        dropped = 0
        for uid, ev in list(self._pending_deliveries.items()):
            if ev.active:
                ev.cancel()
                dropped += 1
                self.sim.trace.record(self.sim.now, "msg.drop", -1,
                                      uid=uid, reason="rollback",
                                      cause="rollback")
            self._pending_deliveries.pop(uid, None)
        for ch in self._channels.values():
            if ch.stats.in_flight:
                ch.stats.dropped_by_cause["rollback"] = (
                    ch.stats.dropped_by_cause.get("rollback", 0)
                    + ch.stats.in_flight)
            ch.stats.dropped += ch.stats.in_flight
            ch.stats.in_flight = 0
        return dropped

    def dropped_by_cause(self) -> dict[str, int]:
        """Per-cause drop totals summed over all channels."""
        totals: dict[str, int] = {}
        for ch in self._channels.values():
            for cause, count in ch.stats.dropped_by_cause.items():
                totals[cause] = totals.get(cause, 0) + count
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Network(n={self.n}, topo={self.topology.name}, "
                f"fifo={self.fifo}, sent={self.total_sent()})")
