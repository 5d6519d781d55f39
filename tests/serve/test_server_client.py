"""End-to-end server/client tests over a real socket.

The server runs in a daemon thread on an ephemeral port (``port=0``)
with an isolated state dir per test; clients are the same synchronous
``ServeClient`` the CLI uses, so these tests cover the whole stack —
HTTP routing, the WebSocket stream, the scheduler, the job bodies, the
durable store and the ``ResultCache`` reuse across submissions.
"""

from __future__ import annotations

import asyncio
import base64
import json
import socket
import threading
import time

import pytest

import repro.harness.executor as executor_mod
import repro.serve.server as server_mod
from repro.serve import (
    JobRecord,
    JobStore,
    Scheduler,
    ServeClient,
    ServeClientError,
    ServeServer,
    validate_event,
    validate_job,
)
from repro.serve.client import _read_frame

_TINY_SWEEP = {"param": "n", "values": [3, 4], "n": 3,
               "horizon": 30.0, "interval": 10.0}


class _Harness:
    """One server in a background thread; tears down via the loop."""

    def __init__(self, state_dir, *, jobs=2):
        self.store = JobStore(state_dir)
        self.scheduler = Scheduler(self.store, jobs=jobs)
        self.server = ServeServer(self.scheduler, port=0)
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server._shutdown.wait()
            await self.server.shutdown()
        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server did not come up"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(30)
        assert not self._thread.is_alive(), "server thread leaked"

    def client(self):
        return ServeClient(port=self.server.bound_port)


def _await_state(client, job_id, state, *, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = client.job(job_id)
        if record["state"] == state:
            return record
        time.sleep(0.05)
    raise AssertionError(f"{job_id} never reached {state!r}: "
                         f"{client.job(job_id)}")


# -- jobs end to end -------------------------------------------------------


def test_sweep_runs_and_resubmit_is_served_from_cache(tmp_path):
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        first = client.wait(client.submit("sweep", _TINY_SWEEP)["id"])
        assert first["state"] == "done"
        assert first["result"]["ok"] is True
        assert first["result"]["completed"] == first["result"]["total"]

        again = client.wait(client.submit("sweep", _TINY_SWEEP)["id"])
        assert again["state"] == "done"
        # Same content hash → every run comes out of the ResultCache.
        assert again["result"]["cached"] == again["result"]["total"]
        assert first["result"]["cached"] == 0


def test_two_clients_run_two_jobs_in_parallel(tmp_path):
    with _Harness(tmp_path / "state", jobs=2) as h:
        alice, bob = h.client(), h.client()
        a = alice.submit("live-run", {"n": 3, "duration": 1.5})["id"]
        b = bob.submit("live-run", {"n": 3, "duration": 1.5})["id"]
        # Evidence of parallelism: both jobs observed running at once.
        overlapped = False
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not overlapped:
            states = {j["id"]: j["state"] for j in alice.jobs()}
            overlapped = states[a] == states[b] == "running"
            time.sleep(0.02)
        assert overlapped, "the two jobs never overlapped"
        assert bob.wait(a)["state"] == "done"
        assert alice.wait(b)["state"] == "done"


def test_watch_streams_a_schema_valid_seq_ordered_history(tmp_path):
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        job_id = client.submit("sweep", _TINY_SWEEP)["id"]
        events = list(client.watch(job_id))
        for event in events:
            validate_event(event)        # strict repro.serve/1 check
            assert event["job"] == job_id
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(set(seqs)), "seq must strictly increase"
        states = [e["state"] for e in events if e["ev"] == "job.state"]
        assert states[0] == "queued" and states[-1] == "done"
        assert "running" in states
        # The embedded obs events include the sweep's per-run points.
        inner = [e["event"] for e in events if e["ev"] == "trace"]
        assert any(ev.get("name") == "sweep.run" for ev in inner)
        assert any(ev.get("ev") == "span.start" for ev in inner)
        assert any(ev.get("ev") == "span.end" for ev in inner)
        # A late watcher gets the identical full replay, then EOF.
        assert list(client.watch(job_id)) == events


def test_cancel_queued_and_running_jobs(tmp_path):
    with _Harness(tmp_path / "state", jobs=1) as h:
        client = h.client()
        running = client.submit("live-run",
                                {"n": 3, "duration": 30.0})["id"]
        _await_state(client, running, "running")
        queued = client.submit("live-run", {})["id"]
        assert client.job(queued)["state"] == "queued"

        dead = client.cancel(queued)
        assert dead["state"] == "cancelled"
        assert dead["error"] == "cancelled while queued"

        client.cancel(running)
        record = _await_state(client, running, "cancelled")
        assert record["error"] == "cancelled while running"
        # Cancelling a terminal job is an idempotent no-op.
        assert client.cancel(running)["state"] == "cancelled"


def test_timeout_s_fails_hung_job_and_sets_cancel_event(tmp_path):
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        job_id = client.submit(
            "live-run", {"n": 3, "duration": 30.0, "timeout_s": 0.5})["id"]
        _await_state(client, job_id, "running")
        cancel = h.scheduler.cancels[job_id]
        record = _await_state(client, job_id, "failed")
        assert record["error"].startswith("timeout:")
        assert "timeout_s=0.5" in record["error"]
        # The watchdog signals the body through the same cooperative
        # cancel event drain() and client.cancel() use.
        assert cancel.is_set()
        # A job that finishes inside its budget is untouched by it.
        quick = client.wait(client.submit(
            "live-run", {"n": 3, "duration": 0.5, "timeout_s": 30.0})["id"])
        assert quick["state"] == "done"


def test_timeout_s_must_be_positive(tmp_path):
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        with pytest.raises(ServeClientError) as err:
            client.submit("live-run", {"timeout_s": 0})
        assert err.value.status == 400
        assert "timeout_s" in str(err.value)


@pytest.mark.parametrize("spec, error", [
    ({"param": "seed", "values": [1], "protocols": ["nope"]},
     "unknown protocols ['nope']"),
    ({"param": "bogus_field", "values": [1]},
     "unknown config field 'bogus_field'"),
])
def test_a_sweep_that_cannot_build_is_refused_at_submit(tmp_path, spec,
                                                        error):
    # validate_job accepts both (the spec is well-typed); the server's
    # config checks refuse them before the job is queued.
    assert validate_job({"schema": "repro.serve/1", "kind": "sweep",
                         "spec": spec})
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        with pytest.raises(ServeClientError) as err:
            client.submit("sweep", spec)
        assert err.value.status == 400
        assert error in str(err.value)
        assert client.jobs() == []
        # No job id was spent on the refused submission.
        assert client.submit("sweep", _TINY_SWEEP)["id"] == "j0001"


def test_artifacts_are_served_and_traversal_is_refused(tmp_path):
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        job_id = client.submit("sweep", _TINY_SWEEP)["id"]
        assert client.wait(job_id)["state"] == "done"
        result = json.loads(client.artifact(job_id, "result.json"))
        assert result["ok"] is True
        trace = client.artifact(job_id, "trace.jsonl").decode()
        assert all(json.loads(line) for line in trace.splitlines())
        with pytest.raises(ServeClientError) as err:
            client.artifact(job_id, "../job.json")
        assert err.value.status == 404


# -- the push path ---------------------------------------------------------


class _AsyncioWithoutSleep:
    """``asyncio`` as ``repro.serve.server`` sees it, minus timers."""

    def __getattr__(self, name):
        return getattr(asyncio, name)

    @staticmethod
    def sleep(*_args, **_kwargs):
        raise AssertionError("the serve event path must not sleep")


@pytest.fixture()
def no_sleep(monkeypatch):
    monkeypatch.setattr(server_mod, "asyncio", _AsyncioWithoutSleep())


def test_a_sweep_streams_to_its_terminal_event_without_a_timer(
        tmp_path, no_sleep):
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        job_id = client.submit("sweep", _TINY_SWEEP)["id"]
        events = list(client.watch(job_id))
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[-1]["ev"] == "job.state"
        assert events[-1]["state"] == "done"


class _FrameSink:
    """The half of ``asyncio.StreamWriter`` the streamer uses."""

    def __init__(self):
        self.frames = []

    def write(self, data):
        self.frames.append(data)

    async def drain(self):
        pass


def test_request_shutdown_closes_a_parked_watcher(tmp_path, no_sleep):
    store = JobStore(tmp_path / "state")

    async def main():
        scheduler = Scheduler(store)
        server = ServeServer(scheduler, port=0)
        record = scheduler.submit(validate_job({
            "schema": "repro.serve/1", "kind": "live-run", "spec": {}}))
        scheduler._mark_running(record)          # running, body never run
        sink = _FrameSink()
        streamer = asyncio.create_task(server._handle_websocket(
            sink, {"sec-websocket-key": "a2V5"}, {"job": [record.id]}))
        # Handshake + the two replayed events; the streamer does not
        # suspend again between writing them and parking.
        while len(sink.frames) < 3:
            await asyncio.sleep(0.001)
        assert not streamer.done()
        server.request_shutdown()
        await asyncio.wait_for(streamer, 10)
        published = [e["seq"] for e in store.read_events(record.id)]
        scheduler._finish(record, None, "test over", False)
        return published, sink.frames

    published, frames = asyncio.run(main())
    assert frames[-1] == b"\x88\x00"             # the close frame
    assert len(frames) == 4
    # Nothing was published to wake the watcher: its stream ended with
    # the ``running`` event.
    assert published == [0, 1]


def _raw_frames(port, job_id):
    """Every text-frame payload of one watch, undecoded."""
    payloads = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        key = base64.b64encode(b"0123456789abcdef").decode("ascii")
        sock.sendall((
            f"GET /events?job={job_id} HTTP/1.1\r\nHost: x\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n").encode("ascii"))
        reader = sock.makefile("rb")
        assert b" 101 " in reader.readline()
        while reader.readline() not in (b"\r\n", b""):
            pass
        while True:
            frame = _read_frame(reader)
            if frame is None or frame[0] == 0x8:
                return payloads
            payloads.append(frame[1])


_EIGHT_SEEDS = {"param": "seed", "values": list(range(8)), "n": 3,
                "horizon": 30.0, "interval": 10.0}


def test_every_frame_is_the_events_file_line_byte_for_byte(tmp_path):
    with _Harness(tmp_path / "state") as h:
        job_id = h.client().submit("sweep", _EIGHT_SEEDS)["id"]
        live = _raw_frames(h.server.bound_port, job_id)    # replay + live
        late = _raw_frames(h.server.bound_port, job_id)    # replay only
        lines = h.store.events_path(job_id).read_bytes().splitlines()
        assert json.loads(lines[-1])["state"] == "done"
        assert [json.loads(line)["seq"] for line in lines] \
            == list(range(len(lines)))
        assert live == lines
        assert late == lines


def test_a_sweep_hashes_each_config_once_cold_and_warm(tmp_path,
                                                       monkeypatch):
    calls = []
    real = executor_mod.config_key

    def counting(cfg, **kwargs):
        calls.append(cfg.seed)
        return real(cfg, **kwargs)

    monkeypatch.setattr(executor_mod, "config_key", counting)
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        cold = client.wait(client.submit("sweep", _EIGHT_SEEDS)["id"])
        assert cold["result"]["cached"] == 0
        assert sorted(calls) == list(range(8))
        warm = client.wait(client.submit("sweep", _EIGHT_SEEDS)["id"])
        assert warm["result"]["cached"] == 8
        assert sorted(calls) == sorted(2 * list(range(8)))


# -- HTTP edges ------------------------------------------------------------


def test_http_error_routes(tmp_path):
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        with pytest.raises(ServeClientError) as err:
            client.job("j9999")
        assert err.value.status == 404
        with pytest.raises(ServeClientError) as err:
            client.submit("fuzz", {})
        assert err.value.status == 400
        assert "unknown job kind" in str(err.value)
        status, _ = client._request("POST", "/jobs", payload=None)
        assert status == 400                       # empty body
        job_id = client.submit("sweep", _TINY_SWEEP)["id"]
        status, _ = client._request("PUT", f"/jobs/{job_id}")
        assert status == 405                       # unknown id wins: 404
        status, _ = client._request("PUT", "/jobs/j9999")
        assert status == 404
        status, _ = client._request("GET", "/nope")
        assert status == 404


def test_draining_server_refuses_new_jobs_with_503(tmp_path):
    with _Harness(tmp_path / "state") as h:
        client = h.client()
        h.scheduler.draining = True
        try:
            with pytest.raises(ServeClientError) as err:
                client.submit("live-run", {})
            assert err.value.status == 503
        finally:
            h.scheduler.draining = False


# -- restart recovery ------------------------------------------------------


def test_restart_recovers_queued_and_fails_died_running(tmp_path):
    state = tmp_path / "state"
    # A previous server lifetime: one job still queued, one that was
    # mid-flight when the process died.
    store = JobStore(state)
    offline = Scheduler(store, jobs=2)
    queued = offline.submit(validate_job({
        "schema": "repro.serve/1", "kind": "sweep",
        "spec": _TINY_SWEEP}))
    died = JobRecord(id="j0002", kind="live-run", spec={}, seq=2)
    died.advance("running")
    store.save(died)

    with _Harness(state) as h:
        client = h.client()
        assert client.job(died.id)["state"] == "failed"
        assert "server terminated" in client.job(died.id)["error"]
        # The requeued job actually runs to completion.
        assert client.wait(queued.id)["state"] == "done"
        # Id allocation continues densely across the restart.
        assert client.submit("sweep", _TINY_SWEEP)["id"] == "j0003"
        # The failed verdict reached the event stream too.
        tail = list(client.watch(died.id))[-1]
        assert tail["ev"] == "job.state" and tail["state"] == "failed"


def test_restart_fails_queued_job_of_a_kind_no_longer_served(tmp_path):
    state = tmp_path / "state"
    # Queued by a release that still had the `bench` kind; this server
    # has no body for it and must say so instead of dispatching it.
    JobStore(state).save(JobRecord(id="j0001", kind="bench", spec={}, seq=1))

    with _Harness(state) as h:
        client = h.client()
        record = client.job("j0001")
        assert record["state"] == "failed"
        assert record["error"] == "unknown job kind 'bench'"
        tail = list(client.watch("j0001"))[-1]
        assert tail["ev"] == "job.state" and tail["state"] == "failed"
        assert tail["error"] == "unknown job kind 'bench'"
        # The server is otherwise healthy and ids stay dense.
        assert client.submit("sweep", _TINY_SWEEP)["id"] == "j0002"
        assert client.wait("j0002")["state"] == "done"


def test_a_drained_job_stays_listed_and_attachable_after_a_restart(
        tmp_path):
    state = tmp_path / "state"
    with _Harness(state, jobs=1) as h:
        client = h.client()
        job_id = client.submit("live-run", {"n": 3, "duration": 30.0})["id"]
        _await_state(client, job_id, "running")
    # The drain checkpoint-cancelled the running job; a new server on
    # the same state dir still knows it and replays its whole stream.
    with _Harness(state) as h:
        client = h.client()
        assert [j["id"] for j in client.jobs()] == [job_id]
        record = client.job(job_id)
        assert record["state"] == "cancelled"
        assert record["error"] == "cancelled while running"
        events = list(client.watch(job_id))
        assert [e["seq"] for e in events] == list(range(len(events)))
        states = [e["state"] for e in events if e["ev"] == "job.state"]
        assert states == ["queued", "running", "cancelled"]
        assert client.submit("sweep", _TINY_SWEEP)["id"] == "j0002"
