"""Experiment configuration and single-run execution.

One :class:`ExperimentConfig` fully determines a run — protocol, system
size, topology, latency model, workload, checkpointing parameters, storage
parameters, and the seed.  ``run_experiment`` builds the simulation, runs it
to quiescence, optionally verifies global-checkpoint consistency, and
returns a :class:`RunResult` bundling the live objects with the reduced
:class:`~repro.metrics.collectors.RunMetrics`.

The protocol registry (:data:`PROTOCOLS`) gives every protocol a uniform
``build(cfg, sim, network, storage) -> runtime`` constructor plus the
FIFO requirement flag (Chandy-Lamport), so comparisons and sweeps treat
protocols as interchangeable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..baselines import (
    ChandyLamportRuntime,
    PlankStaggeredRuntime,
    CicRuntime,
    KooTouegRuntime,
    ManivannanSinghalRuntime,
    StaggeredRuntime,
    UncoordinatedRuntime,
)
from ..causality.consistency import ConsistencyVerifier
from ..core import (
    FlushAtFinalize,
    FlushImmediately,
    FlushOpportunistic,
    FlushUniformDelay,
    MachineConfig,
    OptimisticConfig,
    OptimisticRuntime,
)
from ..des.engine import Simulator
from ..metrics.collectors import RunMetrics, collect
from ..net import latency as latency_mod
from ..net import topology as topology_mod
from ..net.network import Network
from ..storage.disk_model import DiskModel
from ..storage.stable_storage import StableStorage
from ..workload.generators import make as make_workload

# -- factories -----------------------------------------------------------------

LATENCIES: dict[str, Callable[..., latency_mod.LatencyModel]] = {
    "constant": latency_mod.ConstantLatency,
    "uniform": latency_mod.UniformLatency,
    "exponential": latency_mod.ExponentialLatency,
    "lognormal": latency_mod.LogNormalLatency,
    "bandwidth": latency_mod.BandwidthLatency,
}

TOPOLOGIES: dict[str, Callable[..., topology_mod.Topology]] = {
    "complete": topology_mod.complete,
    "ring": topology_mod.ring,
    "star": topology_mod.star,
    "line": topology_mod.line,
}

FLUSH_POLICIES: dict[str, Callable[..., Any]] = {
    "at_finalize": FlushAtFinalize,
    "immediate": FlushImmediately,
    "uniform_delay": FlushUniformDelay,
    "opportunistic": FlushOpportunistic,
}


@dataclass
class ExperimentConfig:
    """Everything that determines one run."""

    protocol: str = "optimistic"
    n: int = 8
    seed: int = 0
    horizon: float = 300.0
    # Substrate ------------------------------------------------------------------
    topology: str = "complete"
    topology_kwargs: dict[str, Any] = field(default_factory=dict)
    latency: str = "uniform"
    latency_kwargs: dict[str, Any] = field(
        default_factory=lambda: {"low": 0.05, "high": 0.5})
    disk_seek: float = 0.02
    disk_bandwidth: float = 50e6
    storage_servers: int = 1
    # Workload --------------------------------------------------------------------
    workload: str = "uniform"
    workload_kwargs: dict[str, Any] = field(
        default_factory=lambda: {"rate": 1.0, "msg_size": 1024})
    # Checkpointing ------------------------------------------------------------------
    checkpoint_interval: float = 60.0
    state_bytes: int = 64_000_000
    timeout: float = 20.0
    capture_time: float = 0.1          # CIC forced-checkpoint capture
    flush: str = "at_finalize"         # optimistic flush policy
    flush_kwargs: dict[str, Any] = field(default_factory=dict)
    machine_kwargs: dict[str, Any] = field(default_factory=dict)
    initiation_phase: str = "jittered"
    log_all_messages: bool = False     # optimistic pessimistic-log ablation
    #: Incremental checkpointing (optimistic protocol): every k-th full.
    incremental_every: int | None = None
    delta_fraction: float = 0.1
    uncoordinated_logging: bool = False
    #: NIC bandwidth (bytes/s) for every process, ``None`` = unlimited.
    nic_bandwidth: float | None = None
    #: Shared-fabric bandwidth (bytes/s), ``None`` = no shared bottleneck.
    medium_bandwidth: float | None = None
    #: Route checkpoint writes over the network to a file-server *node*
    #: (see :mod:`repro.storage.networked`): transfers consume sender NIC
    #: bandwidth and can delay application messages (experiment E17).
    networked_storage: bool = False
    # Execution guards / verification ----------------------------------------------------
    max_events: int = 5_000_000
    verify: bool = True
    #: Disable trace recording for large-scale performance runs.  Mutually
    #: exclusive with ``verify`` (the verifier reads the trace).
    trace_enabled: bool = True

    def derive(self, **changes: Any) -> "ExperimentConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)


@dataclass
class RunResult:
    """A finished run with the live objects and reduced metrics."""

    config: ExperimentConfig
    sim: Simulator
    network: Network
    storage: StableStorage
    runtime: Any
    metrics: RunMetrics
    #: seq -> orphan count, when verification ran and the protocol exposes
    #: global records (empty dict otherwise).
    orphans: dict[int, int] = field(default_factory=dict)
    truncated: bool = False

    @property
    def consistent(self) -> bool:
        """Every verified global checkpoint is orphan-free."""
        return all(v == 0 for v in self.orphans.values())

    @property
    def ok(self) -> bool:
        """Acceptance (RunOutcome): consistent and ran to quiescence."""
        return self.consistent and not self.truncated

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready outcome record (the RunOutcome surface)."""
        return {
            "protocol": self.config.protocol,
            "n": self.config.n,
            "seed": self.config.seed,
            "ok": self.ok,
            "consistent": self.consistent,
            "truncated": self.truncated,
            "orphans": {str(k): v for k, v in sorted(self.orphans.items())},
            "metrics": self.metrics.as_dict(),
        }


# -- protocol registry -------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolSpec:
    """Uniform protocol constructor for the harness."""

    name: str
    needs_fifo: bool
    build: Callable[[ExperimentConfig, Simulator, Network, StableStorage], Any]


def _build_optimistic(cfg: ExperimentConfig, sim: Simulator, net: Network,
                      storage: StableStorage) -> OptimisticRuntime:
    flush = FLUSH_POLICIES[cfg.flush](**cfg.flush_kwargs)
    oc = OptimisticConfig(
        checkpoint_interval=cfg.checkpoint_interval,
        initiation_phase=cfg.initiation_phase,
        timeout=cfg.timeout,
        state_bytes=cfg.state_bytes,
        flush_policy=flush,
        machine=MachineConfig(**cfg.machine_kwargs),
        log_all_messages=cfg.log_all_messages,
        incremental_every=cfg.incremental_every,
        delta_fraction=cfg.delta_fraction,
    )
    return OptimisticRuntime(sim, net, storage, oc, horizon=cfg.horizon)


def _build_cl(cfg, sim, net, storage):
    return ChandyLamportRuntime(sim, net, storage,
                                interval=cfg.checkpoint_interval,
                                state_bytes=cfg.state_bytes,
                                horizon=cfg.horizon)


def _build_kt(cfg, sim, net, storage):
    return KooTouegRuntime(sim, net, storage,
                           interval=cfg.checkpoint_interval,
                           state_bytes=cfg.state_bytes, horizon=cfg.horizon)


def _build_staggered(cfg, sim, net, storage):
    return StaggeredRuntime(sim, net, storage,
                            interval=cfg.checkpoint_interval,
                            state_bytes=cfg.state_bytes, horizon=cfg.horizon)


def _build_cic(cfg, sim, net, storage):
    return CicRuntime(sim, net, storage, interval=cfg.checkpoint_interval,
                      state_bytes=cfg.state_bytes,
                      capture_time=cfg.capture_time, horizon=cfg.horizon)


def _build_plank(cfg, sim, net, storage):
    return PlankStaggeredRuntime(
        sim, net, storage, interval=cfg.checkpoint_interval,
        state_bytes=cfg.state_bytes, horizon=cfg.horizon)


def _build_ms(cfg, sim, net, storage):
    return ManivannanSinghalRuntime(
        sim, net, storage, interval=cfg.checkpoint_interval,
        state_bytes=cfg.state_bytes, capture_time=cfg.capture_time,
        horizon=cfg.horizon)


def _build_uncoordinated(cfg, sim, net, storage):
    return UncoordinatedRuntime(sim, net, storage,
                                interval=cfg.checkpoint_interval,
                                state_bytes=cfg.state_bytes,
                                log_messages=cfg.uncoordinated_logging,
                                horizon=cfg.horizon)


PROTOCOLS: dict[str, ProtocolSpec] = {
    "optimistic": ProtocolSpec("optimistic", False, _build_optimistic),
    "chandy-lamport": ProtocolSpec("chandy-lamport", True, _build_cl),
    "koo-toueg": ProtocolSpec("koo-toueg", False, _build_kt),
    "staggered": ProtocolSpec("staggered", False, _build_staggered),
    "cic-bcs": ProtocolSpec("cic-bcs", False, _build_cic),
    "quasi-sync-ms": ProtocolSpec("quasi-sync-ms", False, _build_ms),
    "plank-staggered": ProtocolSpec("plank-staggered", False, _build_plank),
    "uncoordinated": ProtocolSpec("uncoordinated", False,
                                  _build_uncoordinated),
}


def register_protocol(spec: ProtocolSpec, *, replace: bool = False) -> None:
    """Add a protocol to the registry (extension point for new schemes).

    The spec's ``build(cfg, sim, network, storage)`` must return a runtime
    object exposing at least ``build(apps)``, ``start()`` and
    ``global_records()`` (verification and the rounds count read it);
    implementing the optional metric surfaces (``total_checkpoints``,
    ``response_delays``, ...) unlocks the comparison columns — see
    :class:`repro.baselines.base.BaselineRuntime`, which has all of them.
    """
    if spec.name in PROTOCOLS and not replace:
        raise ValueError(
            f"protocol {spec.name!r} already registered "
            f"(pass replace=True to override)")
    PROTOCOLS[spec.name] = spec


# -- execution ------------------------------------------------------------------------


def build_experiment(cfg: ExperimentConfig
                     ) -> tuple[Simulator, Network, StableStorage, Any]:
    """Construct (but do not run) an experiment's simulation objects."""
    try:
        spec = PROTOCOLS[cfg.protocol]
    except KeyError:
        raise KeyError(f"unknown protocol {cfg.protocol!r}; "
                       f"choices: {sorted(PROTOCOLS)}") from None
    if cfg.verify and not cfg.trace_enabled:
        raise ValueError("verify=True requires trace_enabled=True "
                         "(the consistency verifier reads the trace)")
    sim = Simulator(seed=cfg.seed)
    sim.trace.enabled = cfg.trace_enabled
    lat = LATENCIES[cfg.latency](**cfg.latency_kwargs)
    inner = StableStorage(
        sim, DiskModel(seek_time=cfg.disk_seek,
                       bandwidth=cfg.disk_bandwidth),
        servers=cfg.storage_servers)
    if cfg.networked_storage:
        # One extra topology node hosts the file server; checkpoint writes
        # travel as real messages from the writer's NIC.
        from ..storage.networked import (
            RemoteStorage,
            StorageServer,
            install_ack_shim,
        )
        topo = TOPOLOGIES[cfg.topology](cfg.n + 1, **cfg.topology_kwargs)
        net = Network(sim, topo, lat, fifo=spec.needs_fifo,
                      nic_bandwidth=cfg.nic_bandwidth,
                      medium_bandwidth=cfg.medium_bandwidth, app_n=cfg.n)
        server = StorageServer(cfg.n, sim, inner)
        storage: Any = RemoteStorage(net, server)
        runtime = spec.build(cfg, sim, net, storage)
        apps = make_workload(cfg.workload, cfg.n, cfg.horizon,
                             **cfg.workload_kwargs)
        runtime.build(apps)
        net.add_process(server)
        for host in runtime.hosts.values():
            install_ack_shim(host, storage)
    else:
        topo = TOPOLOGIES[cfg.topology](cfg.n, **cfg.topology_kwargs)
        net = Network(sim, topo, lat, fifo=spec.needs_fifo,
                      nic_bandwidth=cfg.nic_bandwidth,
                      medium_bandwidth=cfg.medium_bandwidth)
        storage = inner
        runtime = spec.build(cfg, sim, net, storage)
        apps = make_workload(cfg.workload, cfg.n, cfg.horizon,
                             **cfg.workload_kwargs)
        runtime.build(apps)
    return sim, net, storage, runtime


def run_experiment(cfg: ExperimentConfig,
                   tracer: Any | None = None,
                   before_run: Callable[[Simulator, Network, StableStorage,
                                         Any], None] | None = None
                   ) -> RunResult:
    """Build, run to quiescence, collect metrics, optionally verify.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) attaches the
    observability bridge for the run: protocol-phase spans translated
    live from the simulation trace, a whole-run span, a hot-path
    profiler, and a final deterministic metrics snapshot.  It is a
    keyword argument rather than a config field so that enabling
    tracing never changes :func:`~repro.harness.executor.config_key`
    cache identities.  ``None`` (or a disabled tracer) is the zero-cost
    path: nothing subscribes to the trace stream.

    ``before_run`` (optional) is invoked with the freshly built
    ``(sim, network, storage, runtime)`` before ``runtime.start()`` —
    the attachment point for interposers (fault injectors, partitions,
    recovery managers) that must install before the first event fires.
    """
    sim, net, storage, runtime = build_experiment(cfg)
    if before_run is not None:
        before_run(sim, net, storage, runtime)
    bridge = None
    if tracer is not None and tracer.enabled:
        from ..obs import DesProfiler, attach_des_tracer
        bridge = attach_des_tracer(sim, tracer)
        DesProfiler(tracer).attach(sim)
        tracer.span_start("run", f"run:{cfg.protocol}:{cfg.seed}", sim.now,
                          protocol=cfg.protocol, n=cfg.n, seed=cfg.seed)
    runtime.start()
    sim.run(max_events=cfg.max_events)
    truncated = sim.peek_time() is not None
    orphans: dict[int, int] = {}
    if cfg.verify:
        verifier = ConsistencyVerifier(sim.trace)
        results = verifier.verify_all(runtime.global_records())
        orphans = {seq: len(o) for seq, o in results.items()}
    metrics = collect(cfg.protocol, sim, net, storage, runtime)
    if bridge is not None:
        verdict = {"orphans": sum(orphans.values())} if cfg.verify else {}
        tracer.span_end("run", f"run:{cfg.protocol}:{cfg.seed}", sim.now,
                        truncated=truncated, **verdict)
        bridge.finish(sim)
        bridge.registry.gauge("run.makespan").set(metrics.makespan)
        tracer.metrics_snapshot(bridge.registry.snapshot(), sim.now)
    return RunResult(config=cfg, sim=sim, network=net, storage=storage,
                     runtime=runtime, metrics=metrics, orphans=orphans,
                     truncated=truncated)
