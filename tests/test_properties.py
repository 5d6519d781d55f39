"""Property-based tests over randomized system configurations.

Hypothesis drives the *configuration space* (system size, workload rate,
latency spread, checkpoint interval, optimization switches); the invariants
checked are the paper's theorems and the library's core guarantees:

* every complete global checkpoint of every protocol is orphan-free;
* the generalized algorithm always converges (no process stuck tentative
  once the simulation drains);
* simulation determinism;
* happened-before's two oracles (graph reachability vs vector clocks) agree.

Each example is a full (small) simulation, so ``max_examples`` is kept
modest; the deterministic seeds derived from the drawn config make failures
perfectly reproducible.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.causality import ConsistencyVerifier, EventGraph
from repro.core import MachineConfig
from repro.harness import ExperimentConfig, run_experiment

from .conftest import build_optimistic_run, run_to_quiescence

SIM_SETTINGS = settings(max_examples=15, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

configs = st.fixed_dictionaries({
    "n": st.integers(min_value=2, max_value=8),
    "seed": st.integers(min_value=0, max_value=10_000),
    "rate": st.sampled_from([0.3, 1.0, 3.0]),
    "interval": st.sampled_from([20.0, 35.0, 50.0]),
    "timeout": st.sampled_from([5.0, 12.0]),
    "suppress": st.booleans(),
    "skip": st.booleans(),
    "p0_broadcast": st.booleans(),
})


@SIM_SETTINGS
@given(configs)
def test_optimistic_protocol_invariants(cfg):
    machine = MachineConfig(suppress_ck_bgn=cfg["suppress"],
                            skip_ck_req=cfg["skip"],
                            p0_broadcast_on_finalize=cfg["p0_broadcast"])
    sim, net, storage, rt = build_optimistic_run(
        n=cfg["n"], seed=cfg["seed"], horizon=110.0, rate=cfg["rate"],
        interval=cfg["interval"], timeout=cfg["timeout"], machine=machine,
        state_bytes=10_000)
    run_to_quiescence(sim, rt, max_events=2_000_000)
    # Theorem 1: convergence — nobody stays tentative.
    for pid, host in rt.hosts.items():
        assert host.status == "normal", f"P{pid} stuck tentative"
    # Theorem 2: consistency of every complete S_k.
    assert rt.anomalies() == []
    rt.assert_consistent()
    # csn discipline: dense sequence numbers from 0.
    for host in rt.hosts.values():
        seqs = sorted(host.finalized)
        assert seqs == list(range(len(seqs)))


@SIM_SETTINGS
@given(st.fixed_dictionaries({
    "protocol": st.sampled_from(["chandy-lamport", "koo-toueg",
                                 "staggered", "cic-bcs", "quasi-sync-ms"]),
    "n": st.integers(min_value=2, max_value=6),
    "seed": st.integers(min_value=0, max_value=10_000),
    "rate": st.sampled_from([0.5, 2.0]),
}))
def test_baseline_protocol_consistency(cfg):
    res = run_experiment(ExperimentConfig(
        protocol=cfg["protocol"], n=cfg["n"], seed=cfg["seed"],
        horizon=100.0, checkpoint_interval=35.0, state_bytes=10_000,
        workload_kwargs={"rate": cfg["rate"], "msg_size": 256}))
    assert not res.truncated
    assert res.consistent
    assert res.metrics.rounds_completed >= 1


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=6))
def test_determinism_across_identical_configs(seed, n):
    def signature():
        sim, net, storage, rt = build_optimistic_run(
            n=n, seed=seed, horizon=60.0, rate=1.5, state_bytes=5_000)
        run_to_quiescence(sim, rt)
        return sim.trace.signature()

    assert signature() == signature()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_happened_before_oracles_agree(seed):
    import numpy as np

    sim, net, storage, rt = build_optimistic_run(
        n=4, seed=seed, horizon=40.0, rate=1.5, state_bytes=5_000)
    run_to_quiescence(sim, rt)
    graph = EventGraph(sim.trace, 4)
    graph.check_vc_agrees(sample=1500, rng=np.random.default_rng(seed))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["uniform", "ring", "bursty", "half_silent",
                        "pipeline", "client_server"]))
def test_consistency_across_workload_shapes(seed, workload):
    res = run_experiment(ExperimentConfig(
        protocol="optimistic", n=5, seed=seed, horizon=120.0,
        checkpoint_interval=40.0, timeout=10.0, state_bytes=10_000,
        workload=workload, workload_kwargs={}))
    assert not res.truncated
    assert res.consistent
    assert res.metrics.rounds_completed >= 1


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=10_000),
    "cut": st.integers(min_value=1, max_value=4),
    "start": st.floats(min_value=30.0, max_value=80.0),
    "length": st.floats(min_value=10.0, max_value=60.0),
}))
def test_consistency_and_convergence_under_random_partitions(cfg):
    """Theorem 1/2 hold under an arbitrary temporary partition."""
    from repro.chaos import DesChaosInjector, Fault, FaultPlan
    from repro.core import OptimisticConfig, OptimisticRuntime
    from repro.des import Simulator
    from repro.net import Network, UniformLatency, complete
    from repro.storage import StableStorage
    from repro.workload import make as make_workload

    n, horizon = 5, 220.0
    sim = Simulator(seed=cfg["seed"])
    net = Network(sim, complete(n), UniformLatency(0.1, 0.5))
    st_ = StableStorage(sim)
    oc = OptimisticConfig(checkpoint_interval=45.0, timeout=12.0,
                          state_bytes=10_000)
    rt = OptimisticRuntime(sim, net, st_, oc, horizon=horizon)
    rt.build(make_workload("uniform", n, horizon, rate=1.5))
    DesChaosInjector(sim, net, FaultPlan(faults=(Fault(
        "partition", start=cfg["start"], end=cfg["start"] + cfg["length"],
        group_a=tuple(range(cfg["cut"])),
        group_b=tuple(range(cfg["cut"], n))),)))
    rt.start()
    sim.run(max_events=3_000_000)
    assert sim.peek_time() is None
    assert all(h.status == "normal" for h in rt.hosts.values())
    assert rt.anomalies() == []
    rt.assert_consistent()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=5),
       st.sampled_from([0.1, 0.25, 0.5]))
def test_incremental_checkpointing_preserves_invariants(seed, every, frac):
    res = run_experiment(ExperimentConfig(
        protocol="optimistic", n=4, seed=seed, horizon=150.0,
        checkpoint_interval=35.0, timeout=10.0, state_bytes=100_000,
        incremental_every=every, delta_fraction=frac,
        workload_kwargs={"rate": 1.5, "msg_size": 256}))
    assert not res.truncated
    assert res.consistent
    for host in res.runtime.hosts.values():
        for csn, ct in host.tentatives.items():
            assert ct.full == ((csn - 1) % every == 0)
