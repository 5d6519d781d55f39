"""CLI surface: ``repro serve`` under SIGTERM, ``repro submit``/``watch``.

The server runs as a real subprocess (``python -m repro.cli serve``) so
the signal path is the production one: SIGTERM must drain gracefully —
checkpoint-cancel running jobs, persist every record, exit 0, no
traceback.  The client commands run in-process through ``main(argv)``
against that server, pinning the documented exit-code contract
(0 job done / 1 job failed or cancelled / 2 usage).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.report import validate_file
from repro.serve import JobStore, ServeClient

SRC = str(Path(__file__).resolve().parents[2] / "src")

_TINY_SWEEP = {"param": "n", "values": [3], "n": 3,
               "horizon": 20.0, "interval": 10.0}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture()
def server(tmp_path):
    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--jobs", "2",
         "--state-dir", str(tmp_path / "state")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    client = ServeClient(port=port)
    deadline = time.monotonic() + 20
    while True:
        try:
            client.jobs()
            break
        except OSError:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise AssertionError(
                    f"server never came up: {proc.communicate()}"
                    ) from None
            time.sleep(0.1)
    try:
        yield {"proc": proc, "port": port, "client": client,
               "state": tmp_path / "state"}
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(30)


def test_submit_wait_watch_and_usage_exit_codes(server, tmp_path, capsys):
    addr = f"127.0.0.1:{server['port']}"
    trace = tmp_path / "trace.jsonl"

    code = main(["submit", "sweep", "--server", addr,
                 "--spec", json.dumps(_TINY_SWEEP),
                 "--wait", "--quiet", "--trace-file", str(trace)])
    assert code == 0
    job_id = capsys.readouterr().out.strip()
    assert job_id == "j0001"
    # The unwrapped stream is a valid obs trace, unchanged.
    assert validate_file(trace) == []
    assert trace.read_text().strip(), "trace file must not be empty"

    # Watching a finished job replays the history and exits by outcome.
    assert main(["watch", job_id, "--server", addr, "--quiet"]) == 0
    events = [json.loads(line) for line
              in capsys.readouterr().out.splitlines()]
    assert main(["watch", job_id, "--server", addr]) == 0
    echoed = [json.loads(line) for line
              in capsys.readouterr().out.splitlines()]
    assert echoed and not events   # --quiet suppresses the echo

    # Spec via @file indirection.
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(_TINY_SWEEP), "utf-8")
    assert main(["submit", "sweep", "--server", addr,
                 "--spec", f"@{spec_file}", "--wait", "--quiet"]) == 0
    capsys.readouterr()

    # Usage errors are exit 2, before or at the server boundary.
    assert main(["submit", "sweep", "--server", addr,
                 "--spec", '{"warp": 9}']) == 2        # schema reject
    assert main(["submit", "live-run", "--server", "127.0.0.1:1",
                 "--spec", "{}"]) == 2                 # unreachable
    assert main(["submit", "live-run", "--server", "nonsense"]) == 2
    assert main(["watch", "j9999", "--server", addr]) == 2
    err = capsys.readouterr().err
    assert "unknown sweep spec" in err
    assert "cannot reach" in err


def test_sigterm_drains_cancels_running_job_and_exits_zero(server):
    client = server["client"]
    job_id = client.submit("live-run", {"n": 3, "duration": 60.0})["id"]
    deadline = time.monotonic() + 15
    while client.job(job_id)["state"] != "running":
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.05)

    proc = server["proc"]
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in err, err

    # The drain checkpoint-cancelled the running job and persisted it.
    record = JobStore(server["state"]).load(job_id)
    assert record is not None
    assert record.state == "cancelled"
    assert record.error == "cancelled while running"


def test_queued_jobs_survive_a_restart_on_the_same_state_dir(server):
    client = server["client"]
    # Saturate both slots, then queue a third job behind them.
    for _ in range(2):
        client.submit("live-run", {"n": 3, "duration": 60.0})
    queued = client.submit("sweep", _TINY_SWEEP)["id"]
    assert client.job(queued)["state"] == "queued"

    proc = server["proc"]
    proc.send_signal(signal.SIGTERM)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err

    # Queued work stays queued on disk for the next server lifetime.
    record = JobStore(server["state"]).load(queued)
    assert record is not None and record.state == "queued"
