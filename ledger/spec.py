"""Names fixed by the ledger: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the driver-facing copy of
these tables (``ledger/tests/test_spec.py`` holds the two together).
Later issues claim ``(metric, workload)`` pairs by these names, so a
name here is an interface: add, never rename.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one pass of one workload measures for (``run_seconds``).
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``des`` / ``live`` / ``serve`` — which module runs it and which
    #: per-layer metrics it fills (the others read 0).
    family: str
    why: str


WORKLOADS: tuple[Workload, ...] = (
    Workload("des_ring_n64", "des",
             "Native: events_per_s. n channels, zero RNG draws, nearly "
             "every receive on the inlined fast path: the DES kernel hot "
             "path (engine, network, host); trace, verify and rng idle."),
    Workload("des_uniform_n512", "des",
             "Native: events_per_s. Working set grows as n^2 (262k "
             "possible channels, an RNG stream per first-touched "
             "channel): moves with channel/RNG/tentSet work, not with "
             "heap or fast-path work."),
    Workload("des_faulted_verified_n16", "des",
             "Native: events_per_s. Trace on, delivery gate, drop/"
             "duplicate/slow-flush faults, one crash and rollback, then "
             "the verifier: the path run, sweep, chaos and serve jobs "
             "take."),
    Workload("live_tcp_n2", "live",
             "Native: msgs_per_s. Two worker processes and the broker "
             "over loopback TCP, closed loop under drain back-pressure: "
             "wire, batcher, journal, storage and ack/dedup work; the "
             "DES does none."),
    Workload("serve_sweep", "serve",
             "Native: job_cold_s, job_warm_s. One client, closed loop, "
             "against a real repro serve: cold sweeps are executor/DES-"
             "bound, warm resubmissions are control plane + cache only."),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
_DES = tuple(w.name for w in WORKLOADS if w.family == "des")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "higher" | "lower"
    #: End-to-end only: share of the parent's median by which the metric
    #: may worsen before a change counts as a regression.
    bound: float | None = None
    #: End-to-end only: workloads on which the metric is a measurement of
    #: what its name says (see README "non-native cells").
    native: tuple[str, ...] = ()
    #: Per-layer only: workload family that fills it ("all" = every one).
    family: str = ""
    #: End-to-end only: how a pass's samples become its one ``value`` on
    #: the metric's native workloads — ``best`` (``stats.best``) or
    #: ``median``.  Non-native cells are always the best.
    estimate: str = "best"


#: Every bound is the driver's maximum, a quarter.  The recording host is
#: a 2-core microVM whose effective CPU speed wanders over minutes: the
#: run-to-run spread (IQR/median over ten seeds) of ``events_per_s`` on the
#: ring read 4, 10, 12 and 18 % in four batches, and — because the driver
#: has every workload print every metric — a metric's bound must also
#: cover the spread of the noisiest workload's non-native cell.  The issue
#: proposed 7/10/15/7/15/25/10 %.  See README "Bounds and noise".
BOUND = 0.25
END_TO_END: tuple[Metric, ...] = (
    Metric("events_per_s", "ev/s", "higher", BOUND, _DES),
    Metric("msgs_per_s", "msg/s", "higher", BOUND, ("live_tcp_n2",)),
    Metric("job_cold_s", "s", "lower", BOUND, ("serve_sweep",)),
    # The median: a warm job is one WebSocket poll period, a timer and not
    # CPU work, and now and then a job ends just before a tick and reads
    # 8 ms instead of 55 — the best would report that alignment.
    Metric("job_warm_s", "s", "lower", BOUND, ("serve_sweep",),
           estimate="median"),
    Metric("setup_s", "s", "lower", BOUND, WORKLOAD_NAMES),
    Metric("peak_rss_mb", "MB", "lower", BOUND, WORKLOAD_NAMES),
)

#: ``setup_s`` may also move by this many seconds before ``compare``
#: calls it worse (a quarter of a 0.1 s set-up is scheduler noise).
SETUP_ABS_BOUND_S = 0.25


def _layer(family: str, rows: str) -> tuple[Metric, ...]:
    out = []
    for row in rows.split():
        name, unit, better = row.split(":")
        out.append(Metric(name, unit, better, family=family))
    return tuple(out)


#: Layers whose cProfile self time is reported for the DES workloads;
#: every other layer of ``layers.LAYER_OF`` folds into ``other``.
DES_SELF_LAYERS = ("des.engine", "net.network", "net.latency", "des.rng",
                   "workload.app", "core.host", "core.state_machine",
                   "storage", "des.trace", "chaos.des", "recovery")
#: Same for the local-transport live run.
LIVE_SELF_LAYERS = ("live.host", "live.journal", "live.resilience",
                    "live.transport", "live.storage")

PER_LAYER: tuple[Metric, ...] = (
    _layer("des", """
        harness.experiment.build_s:s:lower
        des.engine.run_s:s:lower
        causality.consistency.verify_s:s:lower
        metrics.collectors.collect_s:s:lower
        """)
    + tuple(Metric(f"{layer}.self_s", "s", "lower", family="des")
            for layer in DES_SELF_LAYERS + ("other",))
    + _layer("des", """
        des.engine.events:count:lower
        des.engine.peak_heap:count:lower
        net.network.sends:count:lower
        net.network.channels_created:count:lower
        net.network.dropped:count:lower
        des.rng.streams_created:count:lower
        core.host.on_message_calls:count:lower
        core.state_machine.calls:count:lower
        core.state_machine.fastpath_share:ratio:higher
        storage.writes:count:lower
        des.trace.records:count:lower
        chaos.des.injected:count:higher
        recovery.rollbacks:count:lower
        causality.consistency.rounds_verified:count:higher
        protocol.rounds:count:higher
        protocol.ctl_msgs:count:lower
        protocol.logged_msgs:count:lower
        """)
    + _layer("live", """
        live.supervisor.work_window_s:s:lower
        live.supervisor.recovery_s:s:lower
        live.conformance.replay_s:s:lower
        live.conformance.events:count:higher
        live.transport.sends:count:higher
        live.transport.dropped.no_route:count:lower
        live.transport.dropped.park_overflow:count:lower
        live.transport.dropped.superseded:count:lower
        live.resilience.retransmits:count:lower
        live.host.rounds:count:higher
        live.host.round_p50_s:s:lower
        live.host.rollbacks:count:lower
        live.storage.checkpoints:count:higher
        live.wire.encode_ns:ns:lower
        live.wire.decode_ns:ns:lower
        storage.serialize.pack_piggyback_ns:ns:lower
        live.journal.log_ns:ns:lower
        live.storage.write_finalized_ms:ms:lower
        live.storage.load_finalized_ms:ms:lower
        """)
    + tuple(Metric(f"{layer}.self_s", "s", "lower", family="live")
            for layer in LIVE_SELF_LAYERS)
    + _layer("serve", """
        serve.client.submit_rtt_ms:ms:lower
        serve.scheduler.queue_wait_ms:ms:lower
        serve.scheduler.run_s:s:lower
        serve.server.first_event_ms:ms:lower
        serve.server.events_streamed:count:lower
        serve.protocol.validate_us:us:lower
        serve.state.save_ms:ms:lower
        serve.state.append_event_us:us:lower
        obs.sinks.fanout_us:us:lower
        harness.executor.config_key_us:us:lower
        harness.executor.cache_store_ms:ms:lower
        harness.executor.cache_load_ms:ms:lower
        harness.executor.run_many_s:s:lower
        harness.executor.overhead_frac:ratio:lower
        """)
    + _layer("all", "trace_overhead_frac:ratio:lower")
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; choices: "
                   f"{list(WORKLOAD_NAMES)}")


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must hold (the driver's contract keys)."""
    return {
        "command": ["python3", "-m", "ledger"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
