"""Uniform per-run metric extraction.

``collect()`` reduces one finished simulation (simulator + network +
storage + protocol runtime) to a flat :class:`RunMetrics` record with the
same fields for *every* protocol — the comparison tables in the benchmarks
are rows of these.  Protocol-specific extras (forced-checkpoint counts,
convergence latency, ...) ride in ``extra``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..des.engine import Simulator
from ..net.network import Network
from ..storage.stable_storage import StableStorage
from .stats import Summary, step_series_time_average


@dataclass
class RunMetrics:
    """Flat record of one run's costs (one table row)."""

    protocol: str
    n: int
    makespan: float
    # Messages --------------------------------------------------------------
    app_messages: int
    app_bytes: int
    piggyback_bytes: int
    ctl_messages: int
    ctl_bytes: int
    # Checkpoints ------------------------------------------------------------
    checkpoints: int
    rounds_completed: int
    log_bytes: int
    # Stable storage ----------------------------------------------------------
    storage_writes: int
    storage_bytes: int
    peak_pending_writers: int
    mean_pending_writers: float
    wait: Summary
    storage_utilization: float
    # Application impact ---------------------------------------------------------
    blocked_time: float
    response_delay: Summary
    # Protocol-specific extras ------------------------------------------------------
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flatten for table rows / CSV-ish dumping."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "makespan": self.makespan,
            "app_messages": self.app_messages,
            "app_bytes": self.app_bytes,
            "piggyback_bytes": self.piggyback_bytes,
            "ctl_messages": self.ctl_messages,
            "ctl_bytes": self.ctl_bytes,
            "checkpoints": self.checkpoints,
            "rounds_completed": self.rounds_completed,
            "log_bytes": self.log_bytes,
            "storage_writes": self.storage_writes,
            "storage_bytes": self.storage_bytes,
            "peak_pending_writers": self.peak_pending_writers,
            "mean_pending_writers": self.mean_pending_writers,
            "mean_wait": self.wait.mean,
            "max_wait": self.wait.max,
            "storage_utilization": self.storage_utilization,
            "blocked_time": self.blocked_time,
            "mean_response_delay": self.response_delay.mean,
            "max_response_delay": self.response_delay.max,
            **{f"extra.{k}": v for k, v in self.extra.items()},
        }


def _rounds_completed(runtime: Any) -> int:
    """Complete global checkpoints beyond the initial ``S_0``."""
    return sum(1 for seq in runtime.global_records() if seq > 0)


def collect(protocol: str, sim: Simulator, network: Network,
            storage: StableStorage, runtime: Any,
            extra: dict[str, Any] | None = None) -> RunMetrics:
    """Reduce one finished run to a :class:`RunMetrics` record."""
    makespan = sim.now
    waits = storage.waits()
    delays = (runtime.response_delays()
              if hasattr(runtime, "response_delays") else [])
    xtra: dict[str, Any] = dict(extra or {})
    if hasattr(runtime, "forced_checkpoints"):
        xtra.setdefault("forced_checkpoints", runtime.forced_checkpoints())
    if hasattr(runtime, "convergence_latencies"):
        lat = list(runtime.convergence_latencies().values())
        xtra.setdefault("convergence_mean",
                        float(np.mean(lat)) if lat else 0.0)
        xtra.setdefault("convergence_max",
                        float(np.max(lat)) if lat else 0.0)
    if hasattr(runtime, "total_log_bytes"):
        log_bytes = runtime.total_log_bytes()
    else:
        log_bytes = 0
    if hasattr(runtime, "max_local_buffer_bytes"):
        xtra.setdefault("max_local_buffer_bytes",
                        runtime.max_local_buffer_bytes())
    xtra.setdefault("peak_stable_bytes", storage.space.peak_bytes())
    xtra.setdefault("held_stable_bytes", storage.space.held_bytes)
    return RunMetrics(
        protocol=protocol,
        n=network.n,
        makespan=makespan,
        app_messages=network.total_sent("app"),
        app_bytes=network.total_bytes("app"),
        piggyback_bytes=network.total_overhead_bytes("app"),
        ctl_messages=network.total_sent() - network.total_sent("app"),
        ctl_bytes=network.total_bytes() - network.total_bytes("app"),
        checkpoints=(runtime.total_checkpoints()
                     if hasattr(runtime, "total_checkpoints") else 0),
        rounds_completed=_rounds_completed(runtime),
        log_bytes=log_bytes,
        storage_writes=storage.completed(),
        storage_bytes=storage.bytes_written(),
        peak_pending_writers=storage.peak_pending(),
        mean_pending_writers=step_series_time_average(
            [(t, float(v)) for t, v in storage.pending_series], makespan),
        wait=Summary.of(waits),
        storage_utilization=storage.utilization(),
        blocked_time=(runtime.total_blocked_time()
                      if hasattr(runtime, "total_blocked_time") else 0.0),
        response_delay=Summary.of(delays),
        extra=xtra,
    )
