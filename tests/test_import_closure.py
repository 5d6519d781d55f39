"""A process imports what it runs: start-up closures, fresh interpreter.

No timing here — the ledger's ``setup_s`` and ``live.supervisor.recovery_s``
measure what these closures cost.  Each case starts a new interpreter,
imports (or runs) one entry point and asserts which modules are *absent*
from ``sys.modules`` afterwards.  ``repro verify --lint`` rule REP109 is
the static form of the worker case; the end-of-run cases prove the cost
is gone, not deferred to first use.

The light data modules ``repro.des.trace``, ``repro.des.events`` and
``repro.net.message`` are allowed everywhere: they import neither numpy
nor the simulator.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

_ASSERT_ABSENT = """
import sys
loaded = sorted(set({absent!r}) & set(sys.modules))
assert not loaded, loaded
"""


def run_fresh(code: str, absent: tuple[str, ...], cwd: Path | None = None
              ) -> None:
    """Run ``code`` in a new interpreter, then assert none of ``absent``
    was imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code + _ASSERT_ABSENT.format(absent=absent)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_worker_starts_without_numpy_networkx_or_the_simulator():
    run_fresh("import repro.live.worker", (
        "numpy", "networkx", "scipy",
        "repro.des.engine", "repro.des.rng", "repro.net.network",
        "repro.core.host", "repro.harness", "repro.metrics",
        "repro.live.supervisor", "repro.live.conformance"))


def test_a_worker_runs_to_its_clean_stop_without_the_supervisor(tmp_path):
    # The exit path journals the chaos/resilience evidence: that code
    # lives in the worker module, so finishing loads no supervisor,
    # conformance replay or causality layer.
    run_fresh("""
import asyncio
from repro.live.transport import Broker
from repro.live.wire import stop_frame
from repro.live.worker import LiveRunConfig, Worker

async def main():
    hub = Broker()
    cfg = LiveRunConfig(n=2, duration=1.0, rate=100.0)
    workers = [Worker(cfg, "run", pid, 0, hub.endpoint(pid))
               for pid in range(2)]
    await asyncio.sleep(0.2)
    hub.broadcast(stop_frame())
    await asyncio.wait_for(asyncio.gather(*(w.task for w in workers)), 10)
    for worker in workers:
        await worker.finish()

asyncio.run(main())
""", ("numpy", "networkx", "repro.live.supervisor", "repro.live.conformance",
      "repro.api", "repro.causality"), cwd=tmp_path)


def test_supervisor_starts_without_numpy_or_networkx():
    run_fresh("import repro.live.supervisor", ("numpy", "networkx", "scipy"))


def test_cli_serve_and_harness_start_without_networkx_or_scipy():
    # networkx is a [dev] extra (the topology differential test) and so
    # is scipy (Student-t intervals): a fresh interpreter reaches every
    # runtime entry point with the declared dependency, numpy, alone.
    run_fresh("import repro.cli, repro.serve, repro.harness.experiment, "
              "repro.live.worker", ("networkx", "scipy"))


def test_parser_construction_does_not_import_numpy():
    # `repro live --help` builds every subparser and exits: commands that
    # do not simulate must not pay for the simulator.
    run_fresh("""
import contextlib, io
import repro.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        repro.cli.main(["live", "--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert "crash-test" in out.getvalue()
""", ("numpy", "networkx", "repro.harness", "repro.metrics"))


_LIVE_RUN = """
from repro.live.supervisor import LiveRunConfig, run_live
report = run_live(LiveRunConfig(
    n=2, transport={transport!r}, duration=0.5, checkpoint_interval=0.15,
    timeout=0.08, rate=60.0, seed=3, run_dir="run"))
assert report.ok, report.render()
assert len(report.conformance.rounds_completed) >= 1
"""


def test_a_finished_local_live_run_never_imported_numpy_or_networkx(tmp_path):
    # Workers, supervisor and journal replay in ONE process, run to a
    # verified report: nothing was deferred to first use.
    run_fresh(_LIVE_RUN.format(transport="local"),
              ("numpy", "networkx", "scipy"), cwd=tmp_path)


def test_the_supervisor_side_of_a_tcp_run_never_imported_numpy_or_networkx(
        tmp_path):
    run_fresh(_LIVE_RUN.format(transport="tcp"),
              ("numpy", "networkx", "scipy"), cwd=tmp_path)
