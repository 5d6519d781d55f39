"""Message-passing network substrate.

Implements the paper's system model (§2.1): asynchronous message passing
over channels with finite-but-arbitrary delay, not necessarily FIFO.
See :mod:`~repro.net.network` for the send/deliver pipeline,
:mod:`~repro.net.latency` for delay models and :mod:`~repro.net.topology`
for connectivity graphs.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .channel import FIFO_EPSILON, Channel, ChannelStats
    from .latency import (
        BandwidthLatency,
        ConstantLatency,
        EmpiricalLatency,
        ExponentialLatency,
        LatencyModel,
        LogNormalLatency,
        UniformLatency,
    )
    from .message import NO_PROCESS, Message
    from .network import Network
    from .topology import Topology, complete, grid, line, random_connected, ring, star

#: Lazily-resolved exports: name -> defining submodule.
_LAZY = {
    "FIFO_EPSILON": "channel",
    "Channel": "channel",
    "ChannelStats": "channel",
    "BandwidthLatency": "latency",
    "ConstantLatency": "latency",
    "EmpiricalLatency": "latency",
    "ExponentialLatency": "latency",
    "LatencyModel": "latency",
    "LogNormalLatency": "latency",
    "UniformLatency": "latency",
    "NO_PROCESS": "message",
    "Message": "message",
    "Network": "network",
    "Topology": "topology",
    "complete": "topology",
    "grid": "topology",
    "line": "topology",
    "random_connected": "topology",
    "ring": "topology",
    "star": "topology",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "BandwidthLatency",
    "Channel",
    "ChannelStats",
    "ConstantLatency",
    "EmpiricalLatency",
    "ExponentialLatency",
    "FIFO_EPSILON",
    "LatencyModel",
    "LogNormalLatency",
    "Message",
    "NO_PROCESS",
    "Network",
    "Topology",
    "UniformLatency",
    "complete",
    "grid",
    "line",
    "random_connected",
    "ring",
    "star",
]
