"""E10 — scalability of a checkpoint round with system size.

Sweeps N ∈ {4..64} and reports, per protocol: round duration (time from
round start to everyone finished), control messages per round, and the
file-server picture.

Expected shape:

* staggered round time grows **linearly** in N (writes serialize — its
  defining trade-off);
* Chandy-Lamport control messages grow **quadratically** (N(N-1) markers);
* the optimistic protocol's convergence time grows mildly (knowledge
  spreads through piggybacks + an O(N) control wave worst case) and its
  control cost stays linear-ish.
"""

from __future__ import annotations

import numpy as np

from repro.causality import round_latencies
from repro.harness import run_experiment
from repro.metrics import Table

from .conftest import once, paper_config

SIZES = (4, 8, 16, 32, 64)
PROTOCOLS = ("optimistic", "chandy-lamport", "staggered")


def round_duration(res) -> float:
    """Mean round span: first checkpoint taken to last finalized."""
    lats = list(round_latencies(res.runtime.global_records()).values())
    return float(np.mean(lats)) if lats else float("nan")


def run_scalability():
    out = {}
    for i, n in enumerate(SIZES):
        for protocol in PROTOCOLS:
            cfg = paper_config(
                protocol=protocol, n=n, seed=500 + i,
                state_bytes=8_000_000, horizon=260.0,
                checkpoint_interval=80.0, timeout=15.0,
                workload_kwargs={"rate": 1.0, "msg_size": 1024},
                max_events=20_000_000)
            out[(n, protocol)] = run_experiment(cfg)
    return out


def test_e10_scalability(benchmark):
    results = once(benchmark, run_scalability)
    t = Table("n", "opt round (s)", "cl round (s)", "stag round (s)",
              "opt ctl/round", "cl ctl/round", "stag ctl/round",
              title="E10 — round duration & control cost vs N")
    data = {}
    for n in SIZES:
        row = [n]
        for protocol in PROTOCOLS:
            res = results[(n, protocol)]
            data[(n, protocol, "dur")] = round_duration(res)
            rounds = max(res.metrics.rounds_completed, 1)
            data[(n, protocol, "ctl")] = res.metrics.ctl_messages / rounds
        t.add_row(n,
                  data[(n, "optimistic", "dur")],
                  data[(n, "chandy-lamport", "dur")],
                  data[(n, "staggered", "dur")],
                  data[(n, "optimistic", "ctl")],
                  data[(n, "chandy-lamport", "ctl")],
                  data[(n, "staggered", "ctl")])
    print()
    print(t.render())

    # Staggered rounds grow linearly: 16x the processes, >=8x the duration.
    assert (data[(64, "staggered", "dur")]
            > 8 * data[(4, "staggered", "dur")])
    # Chandy-Lamport control messages are quadratic: N(N-1) markers.
    assert data[(64, "chandy-lamport", "ctl")] >= 64 * 63
    assert data[(4, "chandy-lamport", "ctl")] >= 4 * 3
    # The optimistic protocol's control cost stays at most linear-ish in N.
    assert data[(64, "optimistic", "ctl")] < data[(64, "chandy-lamport",
                                                   "ctl")] / 4
    # Its rounds converge far faster than staggered's serial tour at scale.
    assert (data[(64, "optimistic", "dur")]
            < data[(64, "staggered", "dur")])
