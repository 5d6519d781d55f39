"""The registry's builders for the baseline protocols.

:data:`repro.harness.experiment.PROTOCOLS` names each of these by path,
so ``repro.baselines`` is imported on the first baseline build, not with
the registry and not for a run of the optimistic protocol.
"""

from __future__ import annotations

from ..baselines import (
    ChandyLamportRuntime,
    CicRuntime,
    KooTouegRuntime,
    ManivannanSinghalRuntime,
    PlankStaggeredRuntime,
    StaggeredRuntime,
    UncoordinatedRuntime,
)


def build_chandy_lamport(cfg, sim, net, storage):
    """Chandy-Lamport distributed snapshots."""
    return ChandyLamportRuntime(sim, net, storage,
                                interval=cfg.checkpoint_interval,
                                state_bytes=cfg.state_bytes,
                                horizon=cfg.horizon)


def build_koo_toueg(cfg, sim, net, storage):
    """Koo-Toueg blocking two-phase coordination."""
    return KooTouegRuntime(sim, net, storage,
                           interval=cfg.checkpoint_interval,
                           state_bytes=cfg.state_bytes, horizon=cfg.horizon)


def build_staggered(cfg, sim, net, storage):
    """Staggered checkpoint writes."""
    return StaggeredRuntime(sim, net, storage,
                            interval=cfg.checkpoint_interval,
                            state_bytes=cfg.state_bytes, horizon=cfg.horizon)


def build_cic(cfg, sim, net, storage):
    """Communication-induced (index-based) checkpointing."""
    return CicRuntime(sim, net, storage, interval=cfg.checkpoint_interval,
                      state_bytes=cfg.state_bytes,
                      capture_time=cfg.capture_time, horizon=cfg.horizon)


def build_plank(cfg, sim, net, storage):
    """Plank's staggered coordinated checkpointing."""
    return PlankStaggeredRuntime(
        sim, net, storage, interval=cfg.checkpoint_interval,
        state_bytes=cfg.state_bytes, horizon=cfg.horizon)


def build_manivannan_singhal(cfg, sim, net, storage):
    """Manivannan-Singhal quasi-synchronous checkpointing."""
    return ManivannanSinghalRuntime(
        sim, net, storage, interval=cfg.checkpoint_interval,
        state_bytes=cfg.state_bytes, capture_time=cfg.capture_time,
        horizon=cfg.horizon)


def build_uncoordinated(cfg, sim, net, storage):
    """Independent checkpoints, optionally with message logging."""
    return UncoordinatedRuntime(sim, net, storage,
                                interval=cfg.checkpoint_interval,
                                state_bytes=cfg.state_bytes,
                                log_messages=cfg.uncoordinated_logging,
                                horizon=cfg.horizon)
