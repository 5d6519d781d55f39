"""The ``serve_sweep`` workload: one client against a real ``repro serve``.

A real ``python -m repro.cli serve --jobs 1`` on an ephemeral port with
its state under the pass's scratch directory; one ``ServeClient``, closed
loop — the next job is submitted only after the previous one's terminal
event has arrived over the WebSocket.  Cold sweeps over disjoint seed
values (cache misses: executor/DES-bound) for ``COLD_SHARE`` of the
pass's ``--seconds``, never fewer than ``COLD_JOBS``, then warm
resubmissions round-robin over the same specs (all ``VALUES`` runs are
cache hits: control plane + cache only) for the rest.  Horizon 400 keeps
a cold job at ~1.1 s on a 2-core box, so that a pass holds a dozen of
them: four 2.3 s jobs (the issue's horizon 1200, then 800) all fell
inside one burst of host noise too often.
"""

from __future__ import annotations

import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.harness.executor import ResultCache, config_key, run_many
from repro.harness.experiment import ExperimentConfig
from repro.obs import BroadcastSink
from repro.obs.schema import TraceEvent
from repro.serve import (
    SERVE_SCHEMA,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    ServeClient,
    validate_event,
    validate_job,
)

from .harness import (
    BATCH,
    BATCHES,
    Context,
    Outcome,
    child_env,
    count_lines,
    per_call,
    per_file_call,
)
from .spans import SpanRecorder

#: Cold jobs never fewer than this, and as many more as fit in
#: ``COLD_SHARE`` of the pass's seconds.
COLD_JOBS = 4
COLD_SHARE = 0.75
#: Warm resubmissions never fewer than this (p75 needs 40 samples).
WARM_MIN = 40
VALUES = 8
SWEEP = {"n": 16, "horizon": 400.0, "interval": 60.0}
#: Traced pass: warm jobs recorded with spans.
TRACED_WARM = 12


def sweep_spec(seed: int, k: int) -> dict[str, Any]:
    """The ``k``-th sweep: ``VALUES`` run seeds no other sweep uses."""
    return {"param": "seed",
            "values": [seed * 10_000 + k * 100 + i for i in range(VALUES)],
            "jobs": 1, "verify": True, **SWEEP}


def sweep_configs(spec: dict[str, Any]) -> list[ExperimentConfig]:
    """The configs the scheduler builds for ``spec`` (same cache keys)."""
    base = ExperimentConfig(n=spec["n"], horizon=spec["horizon"],
                            checkpoint_interval=spec["interval"],
                            verify=spec["verify"])
    return [base.derive(seed=value) for value in spec["values"]]


class Server:
    """A ``repro serve`` subprocess, killed on every exit path."""

    def __init__(self, state_dir: Path) -> None:
        self.state_dir = state_dir
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            self.port = sock.getsockname()[1]
        self.client = ServeClient(port=self.port)
        self.startup_s = 0.0
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Server":
        self.state_dir.mkdir(parents=True)
        with (self.state_dir / "server.stderr").open("wb") as err:
            t0 = time.perf_counter()
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--port", str(self.port), "--jobs", "1",
                 "--state-dir", str(self.state_dir)],
                env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = t0 + 60.0
            while True:
                try:
                    self.client.jobs()
                    break
                except OSError:
                    if self._proc.poll() is not None:
                        raise RuntimeError(
                            f"repro serve exited {self._proc.returncode} "
                            f"before answering") from None
                    if time.perf_counter() > deadline:
                        raise RuntimeError(
                            "repro serve did not answer in 60 s") from None
                    time.sleep(0.01)
            self.startup_s = time.perf_counter() - t0
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        proc = self._proc
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_job(out: Outcome, client: ServeClient, spec: dict[str, Any],
            cached: int, what: str, spans: SpanRecorder | None = None
            ) -> dict[str, float]:
    """One checked job: ``submit()`` call -> terminal event received.

    Returns the client-side stage times; with ``spans`` they are also
    recorded as a ``job`` span with one child per stage.
    """
    t0 = time.perf_counter()
    job_id = client.submit("sweep", spec)["id"]
    t_ack = time.perf_counter()
    t_first = t_running = t_end = None
    events = 0
    valid = True
    for event in client.watch(job_id):
        now = time.perf_counter()
        events += 1
        if t_first is None:
            t_first = now
        try:
            validate_event(event)
        except ValueError:
            valid = False
        if event.get("ev") == "job.state":
            if event["state"] == "running":
                t_running = now
            elif event["state"] in TERMINAL_STATES and t_end is None:
                t_end = now
    record = client.job(job_id)
    result = record.get("result") or {}
    out.attempted += 1
    good = out.check(t_end is not None and t_running is not None,
                     f"{what}: stream ended without a terminal event")
    good &= out.check(record["state"] == "done" and bool(result.get("ok")),
                      f"{what}: state {record['state']}, "
                      f"error {record.get('error')}")
    good &= out.check(result.get("cached") == cached,
                      f"{what}: {result.get('cached')} cached runs, "
                      f"expected {cached}")
    good &= out.check(valid, f"{what}: a streamed event failed validation")
    if not good:
        out.failed += 1
        t_first = t_first or t_ack
        t_running = t_running or t_first
        t_end = t_end or time.perf_counter()
    if spans is not None:
        job = spans.add("job", t0, t_end, job=job_id, cached=cached)
        spans.add("serve.client.submit_rtt", t0, t_ack, parent=job)
        spans.add("serve.scheduler.queue_wait", t_ack,
                  max(t_ack, t_running), parent=job)
        spans.add("serve.scheduler.run", t_running, t_end, parent=job)
    return {"job_s": t_end - t0, "submit_rtt_s": t_ack - t0,
            "queue_wait_s": max(0.0, t_running - t_ack),
            "first_event_s": t_first - t_ack,
            "run_s": t_end - t_running, "events": events}


def timed(ctx: Context) -> Outcome:
    """Timed pass.  ``setup_s`` is sampled at either end of it: the
    start-up of the server the jobs run on, and of one more afterwards."""
    out = Outcome()
    specs: list[dict[str, Any]] = []
    with Server(ctx.tmp / "state") as server:
        out.add("setup_s", ctx.import_s + server.startup_s)
        t0 = time.perf_counter()
        job_s = 0.0
        while len(specs) < COLD_JOBS or \
                time.perf_counter() - t0 + job_s < COLD_SHARE * ctx.seconds:
            specs.append(sweep_spec(ctx.seed, len(specs)))
            job_s = run_job(out, server.client, specs[-1], 0,
                            f"cold job {len(specs)}")["job_s"]
            out.add("job_cold_s", job_s)
            out.op_s.append(job_s)
        warm = 0
        while warm < WARM_MIN or time.perf_counter() - t0 < ctx.seconds:
            job = run_job(out, server.client, specs[warm % len(specs)],
                          VALUES, f"warm job {warm + 1}")
            out.add("job_warm_s", job["job_s"])
            warm += 1
    with Server(ctx.tmp / "state-again") as server:
        out.add("setup_s", ctx.import_s + server.startup_s)
    out.info["stderr_lines"] = count_lines(
        sorted(ctx.tmp.glob("state*/server.stderr")))
    return out


# -- direct-call drivers --------------------------------------------------


def direct_calls(out: Outcome, seed: int, tmp: Path) -> float:
    """Single serve/executor layers on the job the workload submits.

    Returns ``run_many`` wall seconds for one cold sweep's configs.
    """
    spec = sweep_spec(seed, COLD_JOBS)          # values no job has used
    payload = {"schema": SERVE_SCHEMA, "kind": "sweep", "spec": spec,
               "priority": 0}
    normal = validate_job(payload)
    per_call(out, "serve.protocol.validate_us", 1e6, validate_job,
              [payload])

    store = JobStore(tmp / "driver-state")
    records = [JobRecord(id=f"j{i + 1:04d}", kind="sweep",
                         spec=normal["spec"], seq=i + 1)
               for i in range(4)]
    per_file_call(out, "serve.state.save_ms", store.save, records)
    line = '{"ev":"job.state","job":"j0001","schema":"repro.serve/1",' \
           '"seq":0,"state":"queued"}'
    per_call(out, "serve.state.append_event_us", 1e6,
              lambda rec: store.append_event(rec.id, line), records)

    sink = BroadcastSink()
    sink.subscribe(maxlen=BATCH * BATCHES)       # one pull subscriber
    event = TraceEvent(ev="point", host="harness", pid=-1, t=0.0,
                       name="sweep.run", value=1.0)
    per_call(out, "obs.sinks.fanout_us", 1e6, sink.write, [event])
    sink.close()

    configs = sweep_configs(spec)
    per_call(out, "harness.executor.config_key_us", 1e6, config_key,
              configs)
    t0 = time.perf_counter()
    summaries = run_many(configs, jobs=1)
    run_many_s = time.perf_counter() - t0
    out.add("harness.executor.run_many_s", run_many_s)
    out.check(len(summaries) == len(configs)
              and all(getattr(s, "ok", False) for s in summaries),
              "run_many driver: a run failed")
    cache = ResultCache(tmp / "driver-cache")
    per_file_call(out, "harness.executor.cache_store_ms", cache.store,
                   summaries)
    per_file_call(out, "harness.executor.cache_load_ms", cache.load,
                   configs)
    return run_many_s


# -- traced pass ----------------------------------------------------------


def traced(ctx: Context) -> Outcome:
    """Half the cold jobs plain, half with spans; warm jobs with spans;
    then the direct-call drivers."""
    out = Outcome(spans=SpanRecorder())
    specs = [sweep_spec(ctx.seed, k) for k in range(COLD_JOBS)]
    plain: list[float] = []
    cold: list[dict[str, float]] = []
    jobs: list[dict[str, float]] = []
    with Server(ctx.tmp / "state") as server:
        out.spans.add("serve.start", 0.0, server.startup_s)
        for k, spec in enumerate(specs):
            if k % 2 == 0:
                plain.append(run_job(out, server.client, spec, 0,
                                     f"cold job {k + 1}")["job_s"])
            else:
                cold.append(run_job(out, server.client, spec, 0,
                                    f"cold job {k + 1}", out.spans))
        for i in range(TRACED_WARM):
            jobs.append(run_job(out, server.client, specs[i % COLD_JOBS],
                                VALUES, f"warm job {i + 1}", out.spans))
    jobs += cold
    for job in jobs:
        out.add("serve.client.submit_rtt_ms", job["submit_rtt_s"] * 1e3)
        out.add("serve.scheduler.queue_wait_ms", job["queue_wait_s"] * 1e3)
        out.add("serve.server.first_event_ms", job["first_event_s"] * 1e3)
        out.add("serve.server.events_streamed", job["events"])
    for job in cold:
        out.add("serve.scheduler.run_s", job["run_s"])
    run_many_s = direct_calls(out, ctx.seed, ctx.tmp)
    plain_s = statistics.median(plain)
    traced_s = statistics.median(j["job_s"] for j in cold)
    out.add("harness.executor.overhead_frac",
            (plain_s - run_many_s) / plain_s)
    out.add("trace_overhead_frac", (traced_s - plain_s) / plain_s)
    out.info.update(
        stderr_lines=count_lines([ctx.tmp / "state" / "server.stderr"]),
        job_cold_plain_s=plain_s, job_cold_traced_s=traced_s,
        warm_run_s=statistics.median(j["run_s"] for j in jobs[:TRACED_WARM]))
    return out
