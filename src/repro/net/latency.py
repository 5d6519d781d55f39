"""Channel latency models.

The paper's model requires only *finite but arbitrary* transmission delays.
Experiments therefore parameterize delay distributions; each model maps
``(rng, src, dst, size)`` to a positive delay in simulated seconds.

All models are stateless value objects — the RNG stream is owned by the
channel, so a model instance can be shared across every channel while keeping
per-channel draws independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class LatencyModel:
    """Base class: turn a message into a transmission delay."""

    def sample(self, rng: np.random.Generator, src: int, dst: int,
               size: int) -> float:
        """Return the delay (> 0) for one message of ``size`` bytes."""
        raise NotImplementedError

    def mean(self, size: int = 0) -> float:
        """Expected delay for a message of ``size`` bytes.

        Used by experiments to choose sensible timeouts (the paper's
        convergence timer must comfortably exceed typical round trips).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` seconds.

    The deterministic scenario replays (Figures 2 and 5) use this so the
    event order is fully scripted.
    """

    delay: float = 1.0

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ValueError(f"delay must be positive, got {self.delay}")

    def sample(self, rng: np.random.Generator, src: int, dst: int,
               size: int) -> float:
        return self.delay

    def mean(self, size: int = 0) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Delay uniform in ``[low, high]`` — the default for random workloads.

    A wide interval produces heavy message reordering, exercising the
    paper's non-FIFO channel assumption.
    """

    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        if not (0 < self.low <= self.high):
            raise ValueError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator, src: int, dst: int,
               size: int) -> float:
        # Bit for bit what ``rng.uniform(low, high)`` draws (numpy computes
        # ``low + (high - low) * next_double``), without its argument
        # broadcasting: a third of the cost per draw.
        return self.low + (self.high - self.low) * rng.random()

    def mean(self, size: int = 0) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class ExponentialLatency(LatencyModel):
    """Delay = ``floor_ + Exp(mean_extra)`` — long-tailed WAN-ish delays."""

    floor_: float = 0.1
    mean_extra: float = 0.9

    def __post_init__(self) -> None:
        if self.floor_ < 0 or self.mean_extra <= 0:
            raise ValueError("floor_ must be >= 0 and mean_extra > 0")

    def sample(self, rng: np.random.Generator, src: int, dst: int,
               size: int) -> float:
        return self.floor_ + float(rng.exponential(self.mean_extra))

    def mean(self, size: int = 0) -> float:
        return self.floor_ + self.mean_extra


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Log-normal delay, the classic fit for datacenter RTT distributions."""

    median: float = 1.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0:
            raise ValueError("median must be > 0 and sigma >= 0")

    def sample(self, rng: np.random.Generator, src: int, dst: int,
               size: int) -> float:
        return float(rng.lognormal(np.log(self.median), self.sigma))

    def mean(self, size: int = 0) -> float:
        return float(self.median * np.exp(self.sigma ** 2 / 2.0))


@dataclass(frozen=True)
class BandwidthLatency(LatencyModel):
    """Propagation + serialization: ``base + size/bandwidth (+ jitter)``.

    Makes big messages (checkpoint transfers) slower than small control
    messages, which matters for the storage-contention experiments.
    """

    base: float = 0.05
    bandwidth: float = 1e6  # bytes per simulated second
    jitter: float = 0.0     # max uniform extra

    def __post_init__(self) -> None:
        if self.base <= 0 or self.bandwidth <= 0 or self.jitter < 0:
            raise ValueError("base and bandwidth must be > 0, jitter >= 0")

    def sample(self, rng: np.random.Generator, src: int, dst: int,
               size: int) -> float:
        d = self.base + size / self.bandwidth
        if self.jitter > 0:
            d += float(rng.uniform(0.0, self.jitter))
        return d

    def mean(self, size: int = 0) -> float:
        return self.base + size / self.bandwidth + self.jitter / 2.0


class EmpiricalLatency(LatencyModel):
    """Resample delays from an observed sample (bootstrap).

    Stands in for "replay the authors' testbed delays" — we have no such
    trace, but any measured RTT sample can be plugged in unchanged.
    """

    def __init__(self, samples: Sequence[float]) -> None:
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ValueError("need at least one sample")
        if np.any(arr <= 0):
            raise ValueError("all samples must be positive")
        self.samples = arr

    def sample(self, rng: np.random.Generator, src: int, dst: int,
               size: int) -> float:
        return float(self.samples[rng.integers(0, self.samples.size)])

    def mean(self, size: int = 0) -> float:
        return float(self.samples.mean())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EmpiricalLatency(n={self.samples.size}, mean={self.samples.mean():.4g})"
