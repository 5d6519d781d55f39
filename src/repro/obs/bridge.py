"""DES → obs bridge: schema events out of the simulator's trace stream.

The simulator side needs **no new emission sites**: ``core.host`` and
``repro.storage`` already record every protocol occurrence into
``sim.trace`` (:class:`repro.des.trace.TraceRecorder`).  This bridge
subscribes a translator that maps those records onto the versioned
schema, live, as the run executes:

=========================  =============================================
DES trace kind             schema event
=========================  =============================================
``ckpt.tentative``         ``span.start`` phase=``tentative`` key=pid:csn
``ckpt.finalize``          ``span.end`` phase=``tentative`` + ``span.start``
                           phase=``finalize`` (ends at the fin flush)
``storage.write.arrive``   ``span.start`` phase=``flush`` key=pid:label
``storage.write.finish``   ``span.end`` phase=``flush`` (+ ends the
                           ``finalize`` span for ``fin:`` labels)
``ctl.send`` / ``ctl.recv``  ``point`` events (CK_BGN/CK_REQ/CK_END round
                           traffic; the report derives round latency)
``ckpt.rollback``          ``point`` phase=``recovery``
``ckpt.anomaly``           ``point``
``msg.send``/``msg.deliver``  registry counters only — app traffic is the
                           hot path and gets no per-message events; the
                           totals are folded in one pass at run end
``chaos.*``                ``point`` + ``chaos.injected.<kind>`` counters
                           (fault-injection sites; repro.chaos)
``partition.begin/heal``   ``point`` + counters
``failure.crash`` /        ``point`` + counters (the injected crash and
``recovery.complete``      the rollback that recovers from it)
=========================  =============================================

Chaos/fault points deliberately omit the message ``uid`` carried by the
DES records: uids come from a module-global counter that never resets,
so forwarding them would break byte-identical reruns within one process.

Timestamps are ``sim.now`` (simulated seconds) throughout, so bridged
streams are deterministic: same config + seed ⇒ byte-identical JSONL.
When tracing is disabled nothing subscribes, so the simulator's hot
path is untouched.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from .metrics import MetricsRegistry
from .tracer import Tracer


def _present(**attrs: Any) -> dict[str, Any]:
    """Drop ``None`` values — optional record fields a protocol omitted."""
    return {k: v for k, v in attrs.items() if v is not None}


class DesBridge:
    """The subscriber: one per traced simulation run.

    The simulator emits a trace record for *every* message send/deliver,
    so a naive per-record subscriber sits on the hot path.  Two levers
    keep the traced run within the overhead budget: the protocol-event
    handlers register as *kind-filtered* subscribers (the recorder never
    calls them for ``msg.*`` traffic), and the high-volume message
    counters are folded in one pass at run end (:meth:`finish`) instead
    of being bumped 40 000 times live.
    """

    #: kind → handler-method name; the subscription table.
    HANDLED_KINDS = {
        "ckpt.tentative": "_on_tentative",
        "ckpt.finalize": "_on_finalize",
        "storage.write.arrive": "_on_write_arrive",
        "storage.write.finish": "_on_write_finish",
        "ctl.send": "_on_ctl_send",
        "ctl.recv": "_on_ctl_recv",
        "ckpt.rollback": "_on_rollback",
        "ckpt.anomaly": "_on_anomaly",
        "chaos.drop": "_on_chaos",
        "chaos.duplicate": "_on_chaos",
        "chaos.delay": "_on_chaos",
        "chaos.reorder": "_on_chaos",
        "chaos.storage": "_on_chaos_storage",
        "partition.begin": "_on_partition",
        "partition.heal": "_on_partition",
        "failure.crash": "_on_failure",
        "recovery.complete": "_on_recovery_complete",
    }

    #: high-volume kinds counted in one pass at run end, never live.
    BULK_COUNTS = {
        "msg.send": "msg.sent",
        "msg.deliver": "msg.delivered",
        "msg.drop": "msg.dropped",
        "ckpt.gc": "ckpt.gc",
    }

    def __init__(self, tracer: Tracer,
                 registry: MetricsRegistry | None = None) -> None:
        self.tracer = tracer
        self.registry = registry if registry is not None else MetricsRegistry()

    def __call__(self, rec: Any) -> None:
        """Translate one :class:`~repro.des.trace.TraceRecord`."""
        name = self.HANDLED_KINDS.get(rec.kind)
        if name is not None:
            getattr(self, name)(rec)

    def finish(self, sim: Any) -> None:
        """Fold the run's bulk totals into the registry (call once, at end).

        The trace's kind index replaces per-record counter bumps for the
        hot kinds; counters stay absent when the run never produced the
        kind, exactly as live increments would leave them.
        """
        trace = sim.trace
        totals = trace.kinds()
        for kind, name in self.BULK_COUNTS.items():
            count = totals.get(kind, 0)
            if count:
                self.registry.counter(name).inc(count)
        # Per-cause drop split (gate / crashed / rollback / chaos.drop)
        # and redelivered count, folded only when the run produced any.
        causes = Counter("gate" if cause is None else cause
                         for *_, cause in trace.select("msg.drop", "cause"))
        redelivered = sum(1 for *_, again in trace.select("msg.deliver",
                                                          "redelivered")
                          if again)
        for cause, count in sorted(causes.items()):
            self.registry.counter(f"msg.dropped.{cause}").inc(count)
        if redelivered:
            self.registry.counter("msg.redelivered").inc(redelivered)

    def _on_tentative(self, rec: Any) -> None:
        """``ckpt.tentative`` → span.start phase=tentative.

        Baseline protocols emit the same record kinds with fewer fields
        (no logs, sometimes no sizes), so every optional field goes
        through ``.get`` — absent ones are simply left off the event.
        """
        data, pid = rec.data, rec.process
        reg = self.registry
        reg.counter("ckpt.tentative").inc()
        state_bytes = data.get("bytes")
        if state_bytes is not None:
            reg.histogram("ckpt.state_bytes").observe(state_bytes)
        self.tracer.span_start("tentative", f"{pid}:{data['csn']}",
                               rec.time,
                               **_present(pid=pid, csn=data["csn"],
                                          bytes=state_bytes))

    def _on_finalize(self, rec: Any) -> None:
        """``ckpt.finalize`` → tentative span.end + finalize span.start."""
        data, pid, t = rec.data, rec.process, rec.time
        reg = self.registry
        reg.counter("ckpt.finalize").inc()
        reason = data.get("reason")
        if reason is not None:
            reg.counter(f"ckpt.finalize.{reason}").inc()
        log_msgs, log_bytes = data.get("log_msgs"), data.get("log_bytes")
        if log_msgs is not None:
            reg.histogram("log.msgs").observe(log_msgs)
        if log_bytes is not None:
            reg.histogram("log.bytes").observe(log_bytes)
        key = f"{pid}:{data['csn']}"
        self.tracer.span_end("tentative", key, t,
                             **_present(pid=pid, csn=data["csn"],
                                        reason=reason, log_msgs=log_msgs,
                                        log_bytes=log_bytes))
        if "flush_bytes" in data:
            # Optimistic host: the finalize span runs until the fin:*
            # stable-storage write completes.  Baselines have no such
            # deferred write, so no span is opened for them.
            self.tracer.span_start("finalize", key, t, pid=pid,
                                   csn=data["csn"],
                                   flush_bytes=data["flush_bytes"])

    def _on_write_arrive(self, rec: Any) -> None:
        """``storage.write.arrive`` → span.start phase=flush."""
        data, pid = rec.data, rec.process
        self.tracer.span_start("flush", f"{pid}:{data['label']}", rec.time,
                               pid=pid, label=data["label"],
                               bytes=data["bytes"])

    def _on_write_finish(self, rec: Any) -> None:
        """``storage.write.finish`` → flush span.end (+ finalize end)."""
        data, pid, t = rec.data, rec.process, rec.time
        reg = self.registry
        reg.counter("flush.writes").inc()
        reg.counter("flush.bytes").inc(data["bytes"])
        reg.histogram("flush.latency").observe(data["latency"])
        label = data["label"]
        self.tracer.span_end("flush", f"{pid}:{label}", t, pid=pid,
                             label=label, latency=data["latency"])
        if label.startswith("fin:"):
            # fin:{pid}:{csn} — closing the finalize span opened at
            # the ckpt.finalize record.
            _, fpid, csn = label.split(":")
            self.tracer.span_end("finalize", f"{fpid}:{csn}", t,
                                 pid=int(fpid), csn=int(csn))

    def _on_ctl_send(self, rec: Any) -> None:
        """``ctl.send`` → point event + control counters."""
        data = rec.data
        reg = self.registry
        reg.counter("ctl.sent").inc()
        reg.counter(f"ctl.sent.{data['ctype']}").inc()
        self.tracer.point("ctl.send", rec.time, pid=rec.process,
                          **_present(ctype=data["ctype"],
                                     csn=data.get("csn"),
                                     dst=data.get("dst")))

    def _on_ctl_recv(self, rec: Any) -> None:
        """``ctl.recv`` → point event + control counter."""
        data = rec.data
        self.registry.counter("ctl.recv").inc()
        self.tracer.point("ctl.recv", rec.time, pid=rec.process,
                          **_present(ctype=data["ctype"],
                                     csn=data.get("csn"),
                                     src=data.get("src")))

    def _on_rollback(self, rec: Any) -> None:
        """``ckpt.rollback`` → recovery point event."""
        self.registry.counter("recovery.rollbacks").inc()
        self.tracer.point("ckpt.rollback", rec.time, pid=rec.process,
                          **_present(csn=rec.data.get("csn")))

    def _on_anomaly(self, rec: Any) -> None:
        """``ckpt.anomaly`` → anomaly point event."""
        self.registry.counter("anomalies").inc()
        self.tracer.point("ckpt.anomaly", rec.time, pid=rec.process,
                          description=rec.data["description"])

    def _on_chaos(self, rec: Any) -> None:
        """``chaos.drop/duplicate/delay/reorder`` → injected-fault point.

        The record's ``uid`` is not forwarded (module-global counter;
        would break byte-identical reruns) — src/kind locate the message.
        """
        data = rec.data
        fault = rec.kind.split(".", 1)[1]
        self.registry.counter(f"chaos.injected.{fault}").inc()
        self.tracer.point(rec.kind, rec.time, pid=rec.process,
                          **_present(src=data.get("src"),
                                     kind=data.get("kind"),
                                     delay=data.get("delay")))

    def _on_chaos_storage(self, rec: Any) -> None:
        """``chaos.storage`` → injected storage-fault point."""
        data = rec.data
        self.registry.counter(f"chaos.injected.{data['fault']}").inc()
        self.tracer.point(rec.kind, rec.time, pid=rec.process,
                          fault=data["fault"],
                          **_present(label=data.get("label") or None))

    def _on_partition(self, rec: Any) -> None:
        """``partition.begin`` / ``partition.heal`` → point + counter."""
        data = rec.data
        self.registry.counter(rec.kind).inc()
        self.tracer.point(rec.kind, rec.time, pid=rec.process,
                          **_present(a=data.get("a"), b=data.get("b"),
                                     released=data.get("released")))

    def _on_failure(self, rec: Any) -> None:
        """``failure.crash`` → injected-crash point."""
        self.registry.counter("failure.crashes").inc()
        self.tracer.point(rec.kind, rec.time, pid=rec.process)

    def _on_recovery_complete(self, rec: Any) -> None:
        """``recovery.complete`` → recovered-action point."""
        data = rec.data
        self.registry.counter("recovery.completed").inc()
        self.tracer.point(rec.kind, rec.time, pid=rec.process,
                          **_present(seq=data.get("seq"),
                                     dropped=data.get("dropped")))


def attach_des_tracer(sim: Any, tracer: Tracer,
                      registry: MetricsRegistry | None = None) -> DesBridge:
    """Subscribe a translating bridge to a simulator's trace stream.

    Call *before* ``sim.run()`` and :meth:`DesBridge.finish` after;
    returns the bridge (whose ``registry`` accumulates the run's
    metrics).  Handlers subscribe kind-filtered, so per-message records
    never reach the bridge.  Do not attach when tracing is disabled —
    the absence of a subscriber is the zero-cost path.
    """
    bridge = DesBridge(tracer, registry)
    for kind, name in DesBridge.HANDLED_KINDS.items():
        sim.trace.subscribe(getattr(bridge, name), kinds=(kind,))
    return bridge
