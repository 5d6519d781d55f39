"""Concurrency-capped dispatch of serve jobs onto the existing engines.

The scheduler owns the job table: a :class:`~repro.serve.queue.JobQueue`
of waiting ids, one :class:`~repro.serve.state.JobRecord` per job, one
:class:`~repro.obs.BroadcastSink` hub per job fanning its event stream
out to WebSocket watchers, and one ``asyncio.Task`` per *running* job.

Job bodies are the repo's existing entry points, run synchronously on
executor threads (``loop.run_in_executor``) so the event loop — which
must keep serving other clients — never blocks on them:

* ``sweep``        → :func:`repro.harness.executor.run_many` through the
  content-hash :class:`~repro.harness.executor.ResultCache`, so
  resubmitting an identical sweep is served from cache;
* ``chaos-matrix`` → :func:`repro.chaos.matrix.run_matrix`;
* ``live-run``     → :func:`repro.live.supervisor.run_live` (its own
  ``asyncio.run`` on the worker thread).

Each body imports its engine when it first runs, never at module top:
a server answers its first request without numpy or the simulator
loaded, and its first sweep job pays that import once (``repro verify
--lint`` rule REP109 holds the closure).

Cancellation is cooperative end to end: one ``threading.Event`` per job
threads through ``run_many``/``run_matrix`` as ``cancel_event`` and
through ``LiveRunConfig.stop_event`` — a cancel stops *dispatching*,
drains in-flight work, and the job lands in ``cancelled`` with its
partial results attached, never a torn cache entry.

Every job emits a ``repro.serve/1`` event stream (``events.jsonl`` +
live fan-out): ``job.state`` transitions plus ``trace`` wrappers around
the schema-valid :mod:`repro.obs` events its tracer produced — a watcher
can unwrap the inner events and feed them to ``repro trace validate``
unchanged.  An event is encoded once, in :meth:`Scheduler.emit`: the
file line, a late watcher's replay and every live WebSocket frame carry
that same text, and publishing it wakes the parked watchers — nothing
on the path waits for a timer.  Event emission and watcher attach share
one per-job lock, so a subscriber sees the file replay and the live
stream with no gap and no duplicate.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path
from typing import Any, Callable

from ..obs import BroadcastSink, JsonlSink, Tracer, encode_event
from .protocol import TERMINAL_STATES, state_event, trace_event
from .queue import JobQueue
from .state import JobRecord, JobStore

#: Default cap on concurrently running jobs.
DEFAULT_JOBS = 2


class _TraceRelay:
    """Push sink wrapping each obs event into the job's serve stream."""

    def __init__(self, scheduler: "Scheduler", job_id: str) -> None:
        self._scheduler = scheduler
        self._job_id = job_id

    def write(self, event: Any) -> None:
        encoded = encode_event(event)
        self._scheduler.emit(
            self._job_id,
            lambda seq: trace_event(self._job_id, seq, encoded))


class Scheduler:
    """Priority-FIFO job dispatch with a concurrency cap."""

    def __init__(self, store: JobStore, *, jobs: int = DEFAULT_JOBS,
                 cache_dir: str | Path | None = None) -> None:
        self.store = store
        self.max_jobs = max(1, jobs)
        #: Sweep result cache shared across jobs (resubmit → hit).
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else store.root / "cache"
        self.queue = JobQueue()
        self.records: dict[str, JobRecord] = {}
        self.hubs: dict[str, BroadcastSink] = {}
        self.cancels: dict[str, threading.Event] = {}
        self.tasks: dict[str, asyncio.Task] = {}
        self.draining = False
        self._submit_seq = 0
        #: One sync lock for table mutations (never held across an await).
        self._table_lock = threading.Lock()
        #: Per-job emission locks (reentrant: state transitions hold the
        #: lock across save + emit so watchers attach atomically).
        self._emit_locks: dict[str, threading.RLock] = {}
        self._event_seqs: dict[str, int] = {}
        self._wake = asyncio.Event()

    # -- registration ---------------------------------------------------

    def _register(self, record: JobRecord, next_seq: int | None) -> None:
        """Enter one job in the table.  ``next_seq`` is the ``seq`` of
        its next event; None for a job whose stream is closed (it will
        emit nothing, so it gets no hub)."""
        self.records[record.id] = record
        self._emit_locks[record.id] = threading.RLock()
        if next_seq is not None:
            self.hubs[record.id] = BroadcastSink()
            self._event_seqs[record.id] = next_seq
        self._submit_seq = max(self._submit_seq, record.seq)

    def recover(self) -> tuple[int, int]:
        """Reload persisted jobs; returns ``(requeued, failed)`` counts.

        Call once before serving.  Every persisted job is registered, so
        a restarted server lists it and a watcher can attach to it:
        queued jobs re-enter the queue in their original order, jobs
        that died running (or whose kind this server no longer runs)
        are failed with an explicit cause and their streams get the
        terminal event, and finished jobs come back as they were,
        without their streams being read.
        """
        requeue, failed_now, finished = self.store.recover()
        for rec in finished:
            self._register(rec, None)
        for rec in requeue:
            self._register(rec, self.store.reopen_stream(rec.id))
            self.queue.push(rec.id, priority=rec.priority, seq=rec.seq)
        for rec in failed_now:
            self._register(rec, self.store.reopen_stream(rec.id))
            self.emit(rec.id, lambda seq, r=rec: state_event(
                r.id, seq, "failed", error=r.error, ok=False))
        return len(requeue), len(failed_now)

    # -- event stream ---------------------------------------------------

    def emit(self, job_id: str,
             make: Callable[[int], dict[str, Any]]) -> dict[str, Any]:
        """Append one event to the job's stream and fan it out.

        ``make(seq)`` builds the event once its sequence number is
        allocated; the append, the fan-out and any concurrent
        :meth:`attach` serialize on the job's emission lock, which is
        what makes the file-replay → live-subscription handoff exact.
        The event is encoded here and nowhere else: subscribers get
        ``(text, terminal)``, the text being the line just appended.
        """
        with self._emit_locks[job_id]:
            seq = self._event_seqs[job_id]
            self._event_seqs[job_id] = seq + 1
            event = make(seq)
            text = json.dumps(event, sort_keys=True)
            self.store.append_event(
                job_id, text,
                hold=self.records[job_id].state == "running")
            self.hubs[job_id].publish(
                (text, event["ev"] == "job.state"
                 and event["state"] in TERMINAL_STATES))
        return event

    def attach(self, job_id: str, *, maxlen: int | None = None,
               wake: Callable[[], None] | None = None
               ) -> tuple[list[str], Any]:
        """A watcher's entry: ``(past_lines, subscription_or_None)``.

        Replays everything already on disk, as the encoded lines
        :meth:`emit` wrote, and — unless the job is terminal, when the
        replay ends with its terminal event — subscribes to the live
        stream under the same lock :meth:`emit` holds, so no event is
        missed or duplicated across the boundary.  ``wake`` is the
        subscription's wake callable
        (:meth:`repro.obs.BroadcastSink.subscribe`).
        """
        record = self.records[job_id]
        with self._emit_locks[job_id]:
            past = self.store.read_event_lines(job_id)
            if record.terminal:
                return past, None
            return past, self.hubs[job_id].subscribe(maxlen=maxlen,
                                                     wake=wake)

    # -- submission / cancellation (sync; run off the event loop) -------

    def submit(self, normalized: dict[str, Any]) -> JobRecord:
        """Persist and enqueue one validated job; returns its record."""
        if self.draining:
            raise RuntimeError("server is draining; not accepting jobs")
        with self._table_lock:
            self._submit_seq += 1
            record = JobRecord(
                id=self.store.next_id(), kind=normalized["kind"],
                spec=normalized["spec"],
                priority=normalized["priority"], seq=self._submit_seq)
            self._register(record, 0)
            self.store.save(record)
            self.queue.push(record.id, priority=record.priority,
                            seq=record.seq)
        self.emit(record.id,
                  lambda seq: state_event(record.id, seq, "queued"))
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cooperatively cancel a job; returns its (current) record.

        Queued jobs transition immediately; running jobs get their
        cancel event set and transition when the body drains.  Terminal
        jobs are a no-op.
        """
        with self._table_lock:
            record = self.records[job_id]
            if record.terminal:
                return record
            was_queued = self.queue.remove(job_id)
        if was_queued:
            with self._emit_locks[job_id]:
                record.advance("cancelled")
                record.error = "cancelled while queued"
                self.store.save(record)
                self.emit(job_id, lambda seq: state_event(
                    job_id, seq, "cancelled", error=record.error,
                    ok=False))
        else:
            cancel = self.cancels.get(job_id)
            if cancel is not None:
                cancel.set()
        return record

    def kick(self) -> None:
        """Wake the dispatch loop (call from the event loop)."""
        self._wake.set()

    # -- dispatch -------------------------------------------------------

    async def dispatch_loop(self) -> None:
        """Start queued jobs whenever capacity frees up (runs forever;
        the server cancels this task at shutdown)."""
        while True:
            await self._wake.wait()
            self._wake.clear()
            while not self.draining and len(self.tasks) < self.max_jobs:
                with self._table_lock:
                    job_id = self.queue.pop()
                if job_id is None:
                    break
                self._launch(self.records[job_id])

    def _launch(self, record: JobRecord) -> None:
        # Synchronous on purpose: the job must own a task in ``tasks``
        # before any suspension point, or a shutdown arriving mid-launch
        # could cancel the dispatch loop after the record was marked
        # running with nothing left responsible for finishing it.
        cancel = threading.Event()
        self.cancels[record.id] = cancel
        if self.draining:
            cancel.set()
        self.tasks[record.id] = asyncio.create_task(
            self._job_task(record, cancel))

    def _mark_running(self, record: JobRecord) -> None:
        with self._emit_locks[record.id]:
            record.advance("running")
            self.store.save(record)
            self.emit(record.id,
                      lambda seq: state_event(record.id, seq, "running"))

    async def _job_task(self, record: JobRecord,
                        cancel: threading.Event) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._mark_running, record)
        fut = loop.run_in_executor(None, self._run_body, record, cancel)
        # Per-job wall-clock watchdog (spec field ``timeout_s``): on
        # expiry set the cooperative cancel event and wait for the body
        # to drain — executor threads cannot be killed, so a body that
        # ignores its cancel event still holds the future until it
        # returns.  The verdict is ``failed`` with a ``timeout:`` cause
        # (not ``cancelled`` — nobody asked for the job to stop).
        timeout_s = record.spec.get("timeout_s")
        timed_out = False
        if timeout_s is not None:
            done, _ = await asyncio.wait({fut}, timeout=timeout_s)
            timed_out = not done
            if timed_out:
                cancel.set()
        try:
            result = await fut
            error = None
        except Exception as exc:  # body bugs become failed jobs
            result, error = None, f"{type(exc).__name__}: {exc}"
        if timed_out:
            result = None
            error = f"timeout: exceeded timeout_s={timeout_s}"
        await loop.run_in_executor(
            None, self._finish, record, result, error,
            cancel.is_set() and not timed_out)
        self.tasks.pop(record.id, None)
        self.cancels.pop(record.id, None)
        self.kick()

    def _finish(self, record: JobRecord, result: dict[str, Any] | None,
                error: str | None, cancelled: bool) -> None:
        ok = bool(result.get("ok", False)) if result is not None else False
        if error is not None:
            state = "failed"
        elif cancelled:
            state, error = "cancelled", "cancelled while running"
        elif ok:
            state = "done"
        else:
            state, error = "failed", "job acceptance failed (ok=false)"
        with self._emit_locks[record.id]:
            record.advance(state)
            record.error = error
            record.result = result
            self.store.save(record)
            self.emit(record.id, lambda seq: state_event(
                record.id, seq, state, error=error, ok=ok))

    async def drain(self) -> None:
        """Stop starting jobs, checkpoint-cancel the running ones, wait.

        Queued jobs stay persisted as *queued* — a restarted server
        recovers and runs them.
        """
        self.draining = True
        for cancel in list(self.cancels.values()):
            cancel.set()
        while self.tasks:
            pending = list(self.tasks.values())
            await asyncio.gather(*pending, return_exceptions=True)
        for hub in self.hubs.values():
            hub.close()

    # -- job bodies (sync; executor threads) ----------------------------

    def _run_body(self, record: JobRecord,
                  cancel: threading.Event) -> dict[str, Any]:
        art = self.store.artifacts_dir(record.id)
        art.mkdir(parents=True, exist_ok=True)
        tracer = Tracer([JsonlSink(art / "trace.jsonl"),
                         _TraceRelay(self, record.id)], host="harness")
        tracer.span_start("run", f"serve:{record.id}", 0.0,
                          kind=record.kind)
        try:
            body = getattr(self, "_body_" +
                           record.kind.replace("-", "_"))
            result = body(record.spec, art, tracer, cancel)
        finally:
            tracer.span_end("run", f"serve:{record.id}", 1.0)
            tracer.close()
        # Artifacts are compact JSON: ``indent`` selects the pure-Python
        # encoder, whose closures are left in a reference cycle per call.
        (art / "result.json").write_text(
            json.dumps(result, sort_keys=True, default=repr)
            + "\n", "utf-8")
        return result

    def _body_sweep(self, spec: dict[str, Any], art: Path, tracer: Tracer,
                    cancel: threading.Event) -> dict[str, Any]:
        from ..harness.executor import ResultCache, RunFailure, run_many
        from ..harness.experiment import ExperimentConfig, set_param
        base = ExperimentConfig(
            n=spec["n"], seed=spec["seed"], horizon=spec["horizon"],
            checkpoint_interval=spec["interval"], verify=spec["verify"])
        configs: list[ExperimentConfig] = []
        # Every value gets its own seed, so (seed, protocol) names one
        # cell of the sweep without hashing its config a second time.
        labels: dict[tuple[int, str], tuple[Any, str]] = {}
        for i, value in enumerate(spec["values"]):
            cfg = set_param(base, spec["param"], value)
            if spec["param"] != "seed":
                cfg = cfg.derive(seed=base.seed + i)
            for proto in spec["protocols"]:
                pcfg = cfg.derive(protocol=proto)
                configs.append(pcfg)
                labels[(pcfg.seed, proto)] = (value, proto)
        cache = ResultCache(self.cache_dir)
        outcomes = run_many(configs, jobs=spec["jobs"], cache=cache,
                            cancel_event=cancel)
        rows, cached, failures = [], 0, 0
        for outcome in outcomes:
            value, proto = labels[(outcome.config.seed,
                                   outcome.config.protocol)]
            if isinstance(outcome, RunFailure):
                failures += 1
                rows.append({"value": value, "protocol": proto,
                             "ok": False, "error": outcome.error})
                continue
            cached += 1 if outcome.cached else 0
            row = outcome.metrics.as_dict()
            tracer.point("sweep.run", float(row.get("makespan", 0.0)),
                         protocol=proto, **{spec["param"]: value})
            rows.append({"value": value, "protocol": proto,
                         "ok": outcome.ok, "cached": outcome.cached,
                         "makespan": row.get("makespan")})
        return {"ok": (failures == 0 and len(rows) == len(configs)
                       and all(r["ok"] for r in rows)),
                "param": spec["param"], "values": spec["values"],
                "total": len(configs), "completed": len(rows),
                "cached": cached, "failures": failures, "rows": rows}

    def _body_chaos_matrix(self, spec: dict[str, Any], art: Path,
                           tracer: Tracer,
                           cancel: threading.Event) -> dict[str, Any]:
        from ..chaos.matrix import run_matrix
        report = run_matrix(
            tuple(spec["kinds"]), tuple(spec["runtimes"]),
            seed=spec["seed"], transport=spec["transport"],
            duration=spec["duration"], jobs=spec["jobs"],
            run_root=art / "cells", tracer=tracer, cancel_event=cancel)
        payload = report.as_dict()
        (art / "matrix.json").write_text(
            json.dumps(payload, sort_keys=True) + "\n", "utf-8")
        return payload

    def _body_live_run(self, spec: dict[str, Any], art: Path,
                       tracer: Tracer,
                       cancel: threading.Event) -> dict[str, Any]:
        from ..live.supervisor import LiveRunConfig, run_live
        cfg = LiveRunConfig(
            n=spec["n"], transport=spec["transport"],
            duration=spec["duration"],
            checkpoint_interval=spec["interval"], timeout=spec["timeout"],
            rate=spec["rate"], seed=spec["seed"],
            crash_at=spec["crash_at"], workload=spec["workload"],
            run_dir=str(art / "live"), stop_event=cancel)
        report = run_live(cfg)
        return report.as_dict()
