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

from repro.harness.experiment import ExperimentConfig, build_experiment

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
