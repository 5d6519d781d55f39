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
import json

import pytest

from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, build_experiment
from repro.net.topology import grid

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
