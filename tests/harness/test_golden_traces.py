"""The determinism contract's evidence: pinned golden n=24 traces.

The hot-path refactor (slotted kernel types, interned piggybacks, bare
callables on the heap, inlined §3.4.3 no-effect dispatch) is only
admissible because it is *observationally invisible*: for a fixed seed
the simulation trace must stay byte-identical to the pre-refactor
engine.  These tests pin that contract with golden SHA-256 digests of
the n=24 trace signature for both workload shapes.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.chaos import DesChaosInjector, Fault, FaultPlan
from repro.harness import experiment
from repro.harness.experiment import (
    ExperimentConfig,
    build_experiment,
    run_experiment,
)
from repro.net import message, network
from repro.net.topology import grid
from repro.recovery import RecoveryManager

# ---------------------------------------------------------------------------
# Golden byte-identical traces (determinism is the hard constraint).
#
# If a change legitimately alters the event schedule (new event kinds,
# different RNG draw order), regenerate with:
#
#   python -c "from tests.harness.test_golden_traces import _golden, UNIFORM_CFG,
#              RING_CFG; print(_golden(UNIFORM_CFG)); print(_golden(RING_CFG))"
#
# and say so in the commit message — a silent golden bump hides exactly
# the regression this test exists to catch.
# ---------------------------------------------------------------------------

UNIFORM_CFG = ExperimentConfig(
    protocol="optimistic", n=24, seed=7, horizon=120.0,
    checkpoint_interval=40.0, timeout=15.0, state_bytes=1_000_000,
    verify=False, trace_enabled=True)

RING_CFG = UNIFORM_CFG.derive(
    workload="ring", workload_kwargs={"period": 1.0, "msg_size": 256},
    latency="constant", latency_kwargs={"delay": 0.35})

UNIFORM_GOLDEN = (
    6172, "493dd7bbc31a6b485bb191a0122dd7debaa78c781525eaf33ae05f9381b681ad")
RING_GOLDEN = (
    6328, "dcd0cd80317b31ff6b3f9124ab55b9f37bd29680d6efa83ee396b6bb8e0a6f70")


def _golden(cfg: ExperimentConfig) -> tuple[int, str]:
    sim, _net, _storage, runtime = build_experiment(cfg)
    runtime.start()
    sim.run(until=cfg.horizon, max_events=cfg.max_events)
    sig = sim.trace.signature()
    return len(sig), hashlib.sha256(repr(sig).encode()).hexdigest()


class TestGoldenTraces:
    def test_uniform_n24_trace_is_byte_identical(self):
        assert _golden(UNIFORM_CFG) == UNIFORM_GOLDEN

    def test_ring_n24_trace_is_byte_identical(self):
        assert _golden(RING_CFG) == RING_GOLDEN

    def test_rerun_in_process_identical(self):
        # Interned piggybacks / cached meta dicts must not leak state
        # between experiment instances built in the same process.
        assert _golden(UNIFORM_CFG) == _golden(UNIFORM_CFG)


# ---------------------------------------------------------------------------
# Golden payloads.  The signature covers (time, kind, process) only, so a
# payload bug — a value stored under the wrong key, a lost field, a wrong
# seq — would pass every digest above.  These hash every record whole:
# the two n=24 traces and a faulted n=8 run (drop, duplicate and
# slow-flush windows and one crash, the ledger's faulted-workload shape).
# Message uids come from one process-wide counter, so each run draws them
# from a fresh one: the digest must not depend on what ran before.
# ---------------------------------------------------------------------------

FAULTED_CFG = ExperimentConfig(
    protocol="optimistic", n=8, seed=5, horizon=400.0, workload="half_silent",
    workload_kwargs={"rate": 1.0, "msg_size": 512}, checkpoint_interval=30.0,
    timeout=10.0, state_bytes=1_000_000, verify=True, trace_enabled=True)

PAYLOAD_GOLDEN = {
    "uniform": (6172, "46b2e79819cb7fef395851e7c2fd2ad44ccc0b13ea9cc7ca"
                      "4693d1c023f2f986"),
    "ring": (6328, "6a4591529a7ba35a5e2c0aeece9b0398233527de9e025f8ac1078a5e"
                   "807de74c"),
    "faulted": (4832, "ce29f82a635c3b63aced05af00d3cf36cfe890d25951fa1f30698"
                      "26264c28509"),
}


def _payload_digest(trace) -> tuple[int, str]:
    h = hashlib.sha256()
    for r in trace:
        h.update(repr((r.time, r.kind, r.process, r.seq,
                       sorted(r.data.items()))).encode())
    return len(trace), h.hexdigest()


def _faulted_run():
    h = FAULTED_CFG.horizon
    plan = FaultPlan(seed=FAULTED_CFG.seed, faults=(
        Fault("drop", p=0.1, start=50.0, end=0.8 * h, frames=("app",)),
        Fault("duplicate", p=0.1, start=50.0, end=0.8 * h),
        Fault("slow-flush", p=0.5, start=5.0, end=0.8 * h, delay=0.5),
        Fault("crash", pid=FAULTED_CFG.n - 1, at=h / 2)))

    def before_run(sim, net, storage, runtime):
        DesChaosInjector(sim, net, plan).attach_storage(storage)
        recovery = RecoveryManager(runtime)
        for _, fault in plan.crash_faults():
            recovery.crash_and_recover(fault.pid, fault.at)

    return run_experiment(FAULTED_CFG, before_run=before_run)


@pytest.mark.parametrize("name", sorted(PAYLOAD_GOLDEN))
def test_payload_digest_is_byte_identical(name, monkeypatch):
    next_uid = itertools.count(1).__next__
    monkeypatch.setattr(message, "_next_uid", next_uid)
    monkeypatch.setattr(network, "_next_uid", next_uid)
    if name == "faulted":
        result = _faulted_run()
        assert result.ok and not sum(result.orphans.values())
        kinds = result.sim.trace.kinds()
        assert kinds["chaos.duplicate"] and kinds["ckpt.rollback"]
        trace = result.sim.trace
    else:
        cfg = UNIFORM_CFG if name == "uniform" else RING_CFG
        sim, _net, _storage, runtime = build_experiment(cfg)
        runtime.start()
        sim.run(until=cfg.horizon, max_events=cfg.max_events)
        trace = sim.trace
    assert _payload_digest(trace) == PAYLOAD_GOLDEN[name]


# ---------------------------------------------------------------------------
# Sparse topologies and the Plank baseline (pinned on 026a8a2, the last
# commit whose net/topology.py wrapped networkx).  On a ring, star or grid
# most uniform-workload sends are multi-hop, so Network._path_latency draws
# once per hop of Topology.shortest_path; Plank's write waves are
# Topology.hops_from(coordinator).  The digest is the ledger's recipe
# (ledger/des.py `digest`): the simulated statistics plus the trace
# signature hash.
# ---------------------------------------------------------------------------

SPARSE_BASE = ExperimentConfig(
    protocol="optimistic", n=12, seed=3, horizon=150.0,
    checkpoint_interval=40.0, timeout=15.0, state_bytes=200_000,
    verify=False, trace_enabled=True)

SPARSE_GOLDEN = {
    "ring": (SPARSE_BASE.derive(topology="ring"), 3664,
             "ecf63bdd65b6c035ba9833e5082f29d177158576877375d3adbf35a7fb0d84f2"),
    "star": (SPARSE_BASE.derive(topology="star"), 3661,
             "db2c6f8fbf81b06f3f8a9217edb03014ff20b63529795efdd80b5bb7136a8732"),
    "grid": (SPARSE_BASE.derive(topology="grid"), 3663,
             "76893e4dde871ff41e4b487117ccf5fddc71d251d3032c12b15d388b3c40e132"),
    "plank": (SPARSE_BASE.derive(protocol="plank-staggered",
                                 topology="line"), 3941,
              "b9c8081cfe53c16322bf6dee55caf2cc4a098a6709914107346ef6611966f42a"),
}


def _run_digest(cfg: ExperimentConfig) -> tuple[int, str]:
    sim, net, _storage, runtime = build_experiment(cfg)
    runtime.start()
    sim.run(max_events=cfg.max_events)
    stats = [sim.executed, net.total_sent()]
    if cfg.protocol == "optimistic":
        stats += [runtime.finalized_seqs(), runtime.control_message_count(),
                  runtime.total_logged_messages()]
    else:
        stats += [runtime.complete_rounds(), runtime.control_message_count()]
    stats += [sim.now, hashlib.sha256(
        repr(sim.trace.signature()).encode()).hexdigest()]
    return sim.executed, hashlib.sha256(json.dumps(stats).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SPARSE_GOLDEN))
def test_sparse_topology_and_plank_runs_are_byte_identical(name, monkeypatch):
    # "grid" is not a registered harness topology; a 3 x n/3 mesh for
    # this test only.
    monkeypatch.setitem(experiment.TOPOLOGIES, "grid",
                        lambda n: grid(3, n // 3))
    cfg, events, digest = SPARSE_GOLDEN[name]
    assert _run_digest(cfg) == (events, digest)
