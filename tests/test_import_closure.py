"""A process imports what it runs: start-up closures, fresh interpreter.

No timing here — the ledger's ``setup_s`` and ``live.supervisor.recovery_s``
measure what these closures cost.  Each case starts a new interpreter,
imports (or runs) one entry point and asserts which modules are *absent*
from ``sys.modules`` afterwards.  ``repro verify --lint`` rule REP109 is
the static form of the worker, server and client cases; the end-of-run
cases prove the cost is gone, not deferred to first use.

The light data modules ``repro.des.trace``, ``repro.des.events`` and
``repro.net.message`` are allowed everywhere: they import neither numpy
nor the simulator.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
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


# -- configs as data -------------------------------------------------------

#: What building, keying and caching configs never loads.
_RUN_PATH = ("numpy", "networkx", "repro.des.engine", "repro.net.network",
             "repro.baselines", "repro.metrics", "repro.harness.runner")


def test_a_config_is_built_keyed_and_cached_without_the_simulator(tmp_path):
    # What a sweep's control plane does before any run: name the configs,
    # hash them and read/write their cache entries.
    run_fresh("""
from repro.harness import ExperimentConfig, ResultCache, RunSummary, config_key
cfg = ExperimentConfig(n=4, horizon=50.0).derive(seed=3, protocol="koo-toueg")
key = config_key(cfg)
cache = ResultCache("cache")
assert cache.load(cfg, key) is None
cache.store(RunSummary(config=cfg, metrics_dict={"makespan": 1.5},
                       orphans={0: 0}), key)
hit = cache.load(cfg, key)
assert hit.cached and hit.ok and hit.metrics_dict == {"makespan": 1.5}
""", _RUN_PATH, cwd=tmp_path)


def test_a_run_loads_only_the_builder_of_its_own_protocol():
    run_fresh("""
from repro.harness import ExperimentConfig, run_experiment
assert run_experiment(ExperimentConfig(n=4, horizon=50)).ok
""", ("repro.baselines", "repro.harness.baseline_builders"))


def test_an_unknown_cli_protocol_exits_before_the_simulator():
    run_fresh("""
import contextlib, io
from repro.cli import main
with contextlib.redirect_stderr(io.StringIO()) as err:
    try:
        code = main(["run", "--protocol", "nope"])
    except SystemExit as exc:
        code = exc.code
assert code not in (0, None), code
assert "unknown protocol 'nope'" in err.getvalue(), err.getvalue()
""", _RUN_PATH)


_CACHED_BATCHES = """
import contextlib, io
from repro.cli import main
from repro.harness import ExperimentConfig, ResultCache, replicate
common = ["--n", "3", "--horizon", "30", "--interval", "10",
          "--cache-dir", "cache"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["sweep", "--param", "n", "--values", "2,3", *common]) == 0
    assert main(["compare", "--protocols", "optimistic,koo-toueg",
                 *common]) == 0
outs = replicate(ExperimentConfig(n=3, horizon=30.0), [1, 2],
                 cache=ResultCache("cache"))
assert all(o.ok for o in outs)
assert {cached}, [o.cached for o in outs]
"""


def test_fully_cached_sweep_compare_and_replicate_load_no_simulator(tmp_path):
    # The first pass fills the cache (and may load anything); the second,
    # served wholly from it, must not load the run path or numpy.
    run_fresh(_CACHED_BATCHES.format(cached="True"), (), cwd=tmp_path)
    # Their tables need repro.metrics.report, which is stdlib only.
    run_fresh(_CACHED_BATCHES.format(cached="all(o.cached for o in outs)"),
              tuple(m for m in _RUN_PATH if m != "repro.metrics")
              + ("repro.metrics.collectors",), cwd=tmp_path)


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


# -- the serve control plane -----------------------------------------------

#: What neither the server nor its client loads before a sweep job runs.
_SIMULATOR = ("numpy", "networkx", "repro.des.engine", "repro.net.network",
              "repro.harness", "repro.metrics")


def test_a_server_answers_get_jobs_without_the_simulator(tmp_path):
    # The real `repro serve` entry, in this interpreter's main thread; a
    # helper thread asks GET /jobs, then SIGTERM drains the server.
    run_fresh("""
import http.client, json, os, signal, socket, sys, threading, time
from repro.cli import main

with socket.socket() as sock:
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
answered = []

def ask():
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/jobs")
            answered.append(json.loads(conn.getresponse().read()))
            conn.close()
            break
        except OSError:
            time.sleep(0.02)
    os.kill(os.getpid(), signal.SIGTERM)

threading.Thread(target=ask, daemon=True).start()
assert main(["serve", "--port", str(port), "--state-dir", "state"]) == 0
assert answered == [{"jobs": []}], answered
""", _SIMULATOR, cwd=tmp_path)


def test_submit_and_watch_load_neither_numpy_nor_the_scheduler(tmp_path):
    from repro.serve import ServeClient

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
         "--state-dir", str(tmp_path / "state")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        client = ServeClient(port=port)
        deadline = time.monotonic() + 30
        while True:
            try:
                client.jobs()
                break
            except OSError:
                assert server.poll() is None, "server exited"
                assert time.monotonic() < deadline, "server never answered"
                time.sleep(0.05)
        run_fresh(f"""
import json
from repro.cli import main
addr = "127.0.0.1:{port}"
spec = {{"param": "n", "values": [3], "n": 3, "horizon": 20.0,
         "interval": 10.0}}
assert main(["submit", "sweep", "--server", addr, "--spec", json.dumps(spec),
             "--wait", "--quiet"]) == 0
assert main(["watch", "j0001", "--server", addr, "--quiet"]) == 0
""", _SIMULATOR + ("repro.serve.scheduler", "repro.serve.server",
                   "repro.serve.state", "repro.obs"))
    finally:
        server.terminate()
        server.wait(30)
