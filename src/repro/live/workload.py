"""Live application workloads: real traffic driving the protocol.

Reuses the *rate models* of :mod:`repro.workload.generators` — the same
named workloads with the same parameterization (``rate`` in messages per
process per second, ``msg_size`` in bytes) — but realized as asyncio
coroutines that sleep real seconds between real sends instead of DES
events:

* ``uniform`` — Poisson traffic to uniformly random peers (the live
  counterpart of :class:`repro.workload.app.UniformRandomApp`);
* ``ring``    — periodic messages to the ring successor
  (:class:`repro.workload.app.RingApp`).

Randomness is seeded per ``(seed, pid, incarnation)`` so two workers never
share a stream and a restarted worker does not replay its pre-crash
traffic — matching the paper's model where re-executed work is *new* work.
"""

from __future__ import annotations

import asyncio
import random

from ..workload.generators import WORKLOADS
from .host import LiveHost

#: Workload names the live runtime supports (a subset of the simulator's
#: registry; the names are validated against it so they cannot drift).
LIVE_WORKLOADS = ("uniform", "ring")
assert all(name in WORKLOADS for name in LIVE_WORKLOADS)


class LiveTraffic:
    """One worker's traffic model: ``sample()`` yields (delay, dst, size)."""

    def __init__(self, name: str, n: int, pid: int, rate: float,
                 msg_size: int, rng: random.Random) -> None:
        if name not in LIVE_WORKLOADS:
            raise KeyError(
                f"unknown live workload {name!r}; "
                f"choices: {sorted(LIVE_WORKLOADS)}")
        if n < 2:
            raise ValueError("live workloads need at least 2 processes")
        self.name = name
        self.n = n
        self.pid = pid
        self.rate = rate
        self.msg_size = msg_size
        self.rng = rng

    def sample(self) -> tuple[float, int, int]:
        """Next send: (inter-send delay seconds, destination, bytes).

        A non-positive ``rate`` means *uncapped*: zero inter-send delay —
        the driver sends as fast as transport backpressure allows.
        """
        if self.name == "uniform":
            delay = (self.rng.expovariate(self.rate) if self.rate > 0
                     else 0.0)
            dst = self.rng.randrange(self.n - 1)
            if dst >= self.pid:
                dst += 1
            return delay, dst, self.msg_size
        # ring: deterministic period to the successor.
        delay = 1.0 / self.rate if self.rate > 0 else 0.0
        return delay, (self.pid + 1) % self.n, self.msg_size


def make_traffic(name: str, n: int, pid: int, *, rate: float = 20.0,
                 msg_size: int = 256, seed: int = 0,
                 incarnation: int = 0) -> LiveTraffic:
    """Build one worker's seeded traffic model."""
    rng = random.Random(f"{seed}/{pid}/{incarnation}")
    return LiveTraffic(name, n, pid, rate, msg_size, rng)


#: Sends per backpressure checkpoint in uncapped mode.
UNCAPPED_BURST = 64


async def drive(host: LiveHost, traffic: LiveTraffic) -> None:
    """Send traffic through ``host`` until it stops (cancellation-safe).

    ``rate <= 0`` selects uncapped (burst) mode: send a burst, then
    ``drain()`` the endpoint — which awaits the transport's write-buffer
    flush and TCP flow control — so the producer runs exactly as fast as
    the wire accepts frames, and the receive loop gets scheduled between
    bursts.
    """
    if traffic.rate <= 0:
        await _drive_uncapped(host, traffic)
        return
    while not host.stopped.is_set():
        delay, dst, size = traffic.sample()
        try:
            await asyncio.wait_for(host.stopped.wait(), timeout=delay)
            return  # stopped during the inter-send sleep
        except asyncio.TimeoutError:
            pass
        if not host.stopped.is_set():
            host.app_send(dst, size)


async def _drive_uncapped(host: LiveHost, traffic: LiveTraffic) -> None:
    """Burst driver: saturate the transport under drain backpressure."""
    drain = host.endpoint.drain
    while not host.stopped.is_set():
        for _ in range(UNCAPPED_BURST):
            _, dst, size = traffic.sample()
            host.app_send(dst, size)
        await drain()
        # Always yield: timers (checkpoint initiation, convergence) and
        # the receive loop must run even when drain() never suspends.
        await asyncio.sleep(0)
