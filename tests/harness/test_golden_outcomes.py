"""Pinned outcomes: every protocol's run record and the recovery table.

Checkpoint records, complete cuts, rounds counts, convergence latencies
and recovery points all feed :meth:`RunResult.as_dict` or the
``repro recover`` table.  A change to how records are built or cuts are
chosen that moves any of them shows up here, per protocol, as a new
digest.

If a change legitimately alters an outcome, regenerate with:

    PYTHONPATH=src python -c "from tests.harness.test_golden_outcomes import *;
        print({p: outcome_digest(p) for p in PROTOCOLS});
        print({t: recover_digest(t) for t in FAIL_TIMES})"

and say so in the commit message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.harness import ExperimentConfig, run_experiment

PROTOCOLS = ("optimistic", "chandy-lamport", "koo-toueg", "staggered",
             "plank-staggered", "cic-bcs", "quasi-sync-ms", "uncoordinated")
WORKLOADS = ("uniform", "ring", "client_server", "bursty", "pipeline")
SEEDS = (0, 1, 2)
FAIL_TIMES = (60.0, 120.0, 250.0)

BASE = ExperimentConfig(n=5, horizon=200.0, checkpoint_interval=30.0,
                        timeout=10.0, state_bytes=500_000, workload_kwargs={})

OUTCOME_GOLDEN = {
    "optimistic":
        "c7b1e0cad9c0d7339150e698360c3b2ce0de8017cb51203cbe4ca74cc09bac32",
    "chandy-lamport":
        "6af70b0301576d78597c45a9fbad1a9b7e99d19680822fdc0e5f32c603ce594c",
    "koo-toueg":
        "b75ac2fd099161f13430ae85611b2ecd6509dc249f27b2fb6d5ebe5c89404555",
    "staggered":
        "5cfcc116298a421f615715d483ebe0ff8b924494e73db9505a27e4c6397bd4db",
    "plank-staggered":
        "fee412b6462a808b363618e8d5357caaaee14302184092351272f5f9239e3b77",
    "cic-bcs":
        "a8e401c2f7ef2b180703292e5033e9e1d24b710397631c0c08e4941e243b401b",
    "quasi-sync-ms":
        "84014b478a62a6bd9b55af78d050f848abb337004bcfa8cbd2b10153bd324709",
    "uncoordinated":
        "8afd31f06695069b0cf579b221ff7c95ad5e5db05d72fe79356d70b42a7c85c6",
}

#: At t=60 only the optimistic, CIC and uncoordinated rows exist.
RECOVER_GOLDEN = {
    60.0: (1, "919eca1b11c6a7ea9a16bac424c9cafd"
              "9e7d8f10fc8a8447011b94d2b1a79276"),
    120.0: (0, "47dd6c392cde83312e400b5580512404"
               "111266b445f87a61ab6eb496797f4516"),
    250.0: (0, "7fbe145ffcd31ec81ede5fe41a217f72"
               "0d9d406dddafd8034cea801552577847"),
}


def outcome_digest(protocol: str) -> str:
    """SHA-256 over ``as_dict()`` of every workload x seed run."""
    h = hashlib.sha256()
    for workload in WORKLOADS:
        for seed in SEEDS:
            res = run_experiment(BASE.derive(protocol=protocol,
                                             workload=workload, seed=seed))
            h.update(json.dumps(res.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def recover_digest(fail_time: float) -> tuple[int, str]:
    """Exit code and SHA-256 of the stdout of ``repro recover --fail-time
    T`` (a protocol with no recovery point by T is left out and makes the
    exit code 1; its error goes to stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["recover", "--fail-time", str(fail_time), "--no-cache"])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_run_outcomes_are_pinned(protocol):
    assert outcome_digest(protocol) == OUTCOME_GOLDEN[protocol]


@pytest.mark.parametrize("fail_time", FAIL_TIMES)
def test_recovery_table_is_pinned(fail_time):
    assert recover_digest(fail_time) == RECOVER_GOLDEN[fail_time]
