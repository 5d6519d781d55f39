"""Single-run execution: build a config's simulation, run it, reduce it.

``run_experiment`` builds the simulation an
:class:`~repro.harness.experiment.ExperimentConfig` names, runs it to
quiescence, optionally verifies global-checkpoint consistency, and
returns a :class:`RunResult` bundling the live objects with the reduced
:class:`~repro.metrics.collectors.RunMetrics`.

This is the heavy half of the harness: it imports the DES, the network,
storage, the core and the metrics (numpy).  The config, the protocol
registry and the config checks live in :mod:`repro.harness.experiment`,
which imports none of them; every name here is importable from there
too.  The baselines load per protocol, on their first build
(:mod:`repro.harness.baseline_builders`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .._collector import collector_paused
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
from .experiment import PROTOCOLS, ExperimentConfig, check_config

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


def build_optimistic(cfg: ExperimentConfig, sim: Simulator, net: Network,
                     storage: StableStorage) -> OptimisticRuntime:
    """The registry's ``optimistic`` builder: the paper's protocol."""
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


# -- execution ------------------------------------------------------------------------


def build_experiment(cfg: ExperimentConfig
                     ) -> tuple[Simulator, Network, StableStorage, Any]:
    """Construct (but do not run) an experiment's simulation objects."""
    check_config(cfg)
    spec = PROTOCOLS[cfg.protocol]
    build = spec.builder
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
        runtime = build(cfg, sim, net, storage)
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
        runtime = build(cfg, sim, net, storage)
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

    The whole call runs with the cyclic collector paused
    (:func:`~repro._collector.collector_paused`), and it ends by
    unwiring the run (:meth:`~repro.net.network.Network.unwire`): the
    returned objects form a tree, so a dropped :class:`RunResult` is
    freed at once by reference counting, and the collector has nothing
    to find in a run — it would only walk the run's live graph again
    and again.  A run cut short by ``max_events`` keeps its pending
    events, which still reach the hosts; the collector frees it later.
    """
    with collector_paused():
        return _run(cfg, tracer, before_run)


def _run(cfg: ExperimentConfig, tracer: Any | None,
         before_run: Callable[..., None] | None) -> RunResult:
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
        sim.trace.unsubscribe_all()
    net.unwire()
    return RunResult(config=cfg, sim=sim, network=net, storage=storage,
                     runtime=runtime, metrics=metrics, orphans=orphans,
                     truncated=truncated)
