"""The three DES workloads: kernel hot path, n^2 working set, faulted path.

Sizes were measured on a 2-core box and cut (horizons halved from the
issue's first measurements, ratios kept) so that one pass — set-up,
warm-up and a dozen repeats, the best of which is the pass's number — fits
the driver's cap:

=========================  ====  ========  =========  ==================
workload                   n     horizon   events     one repeat (2-core)
=========================  ====  ========  =========  ==================
``des_ring_n64``           64    2000      265,930    ~1.1 s
``des_uniform_n512``       512   60        65,596     ~1.9 s
``des_faulted_verified``   16    3000      56,979     ~1.2 s
=========================  ====  ========  =========  ==================

(event counts for ``--seed 0``).  Every repeat re-proves the run: see
``_check``.  A repeat's *digest* covers the simulated statistics only, so
it must not move under any change that claims to be a speed-up.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import time
from typing import Any

from repro.causality.consistency import ConsistencyVerifier
from repro.chaos import DesChaosInjector, Fault, FaultPlan
from repro.harness.experiment import (
    ExperimentConfig,
    RunResult,
    build_experiment,
    run_experiment,
)
from repro.metrics.collectors import collect
from repro.recovery import RecoveryManager

from . import layers
from .harness import SRC, Context, Outcome, fresh_setup_s
from .spans import SpanRecorder
from .spec import DES_SELF_LAYERS

#: Timed repeats never fewer than this, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: The discarded warm-up runs at this share of the horizon.
WARMUP_SCALE = 0.1

_HORIZON = {"des_ring_n64": 2000.0, "des_uniform_n512": 60.0,
            "des_faulted_verified_n16": 3000.0}
_STATE_MACHINE_ENTRY_POINTS = ("initiate", "on_app_receive", "on_control",
                               "on_timer")


def config(name: str, seed: int, scale: float = 1.0) -> ExperimentConfig:
    """The workload's experiment at ``scale`` times its horizon."""
    horizon = _HORIZON[name] * scale
    if name == "des_ring_n64":
        return ExperimentConfig(
            protocol="optimistic", n=64, seed=seed, horizon=horizon,
            latency="constant", latency_kwargs={"delay": 0.35},
            workload="ring",
            workload_kwargs={"period": 1.0, "msg_size": 256},
            checkpoint_interval=60.0, timeout=20.0, state_bytes=1_000_000,
            verify=False, trace_enabled=False)
    if name == "des_uniform_n512":
        return ExperimentConfig(
            protocol="optimistic", n=512, seed=seed, horizon=horizon,
            latency="exponential",
            latency_kwargs={"floor_": 0.05, "mean_extra": 0.2},
            workload="uniform",
            workload_kwargs={"rate": 1.0, "msg_size": 1024},
            checkpoint_interval=20.0, timeout=7.0, state_bytes=1_000_000,
            verify=False, trace_enabled=False)
    return ExperimentConfig(
        protocol="optimistic", n=16, seed=seed, horizon=horizon,
        workload="half_silent",
        workload_kwargs={"rate": 1.0, "msg_size": 512},
        checkpoint_interval=30.0, timeout=10.0, state_bytes=1_000_000,
        verify=True, trace_enabled=True)


def fault_plan(name: str, cfg: ExperimentConfig) -> FaultPlan | None:
    """Drop + duplicate + slow-flush windows and one crash at mid-run."""
    if name != "des_faulted_verified_n16":
        return None
    h = cfg.horizon
    return FaultPlan(seed=cfg.seed, faults=(
        Fault("drop", p=0.1, start=50.0, end=0.8 * h, frames=("app",)),
        Fault("duplicate", p=0.1, start=50.0, end=0.8 * h),
        Fault("slow-flush", p=0.5, start=5.0, end=0.8 * h, delay=0.5),
        Fault("crash", pid=cfg.n - 1, at=h / 2),
    ))


class _Faults:
    """``before_run`` hook: install the injector and the crash."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injector: DesChaosInjector | None = None
        self.recovery: RecoveryManager | None = None

    def __call__(self, sim: Any, net: Any, storage: Any,
                 runtime: Any) -> None:
        self.injector = DesChaosInjector(sim, net, self.plan)
        self.injector.attach_storage(storage)
        self.recovery = RecoveryManager(runtime)
        for _, fault in self.plan.crash_faults():
            self.recovery.crash_and_recover(fault.pid, fault.at)


def digest(sim: Any, net: Any, runtime: Any) -> str:
    """SHA-256 over the simulated statistics of a finished run."""
    stats: list[Any] = [
        sim.executed, net.total_sent(), runtime.finalized_seqs(),
        runtime.control_message_count(), runtime.total_logged_messages(),
        sim.now]
    if sim.trace.enabled:
        stats.append(hashlib.sha256(
            repr(sim.trace.signature()).encode()).hexdigest())
    return hashlib.sha256(json.dumps(stats).encode()).hexdigest()


def _check(out: Outcome, what: str, *, ok: bool, orphans: int, runtime: Any,
           faults: _Faults | None) -> bool:
    """The checks that make a repeat count (issue: "checks")."""
    good = out.check(ok, f"{what}: result not ok")
    good &= out.check(orphans == 0, f"{what}: {orphans} orphan messages")
    anomalies = runtime.anomalies()
    good &= out.check(not anomalies, f"{what}: anomalies {anomalies}")
    if faults is not None:
        injected = faults.injector.injected
        for kind in ("drop", "duplicate", "slow-flush"):
            good &= out.check(injected.get(kind, 0) > 0,
                              f"{what}: no {kind} fault was injected")
        good &= out.check(len(faults.recovery.events) == 1,
                          f"{what}: the crash was not recovered")
    return good


def run_once(name: str, cfg: ExperimentConfig
             ) -> tuple[RunResult, _Faults | None, float]:
    """One whole ``run_experiment`` call and its wall seconds."""
    plan = fault_plan(name, cfg)
    faults = _Faults(plan) if plan is not None else None
    t0 = time.perf_counter()
    result = run_experiment(cfg, before_run=faults)
    return result, faults, time.perf_counter() - t0


def setup_sample(name: str, seed: int) -> float:
    """Wall seconds of the plan and one untimed ``build_experiment``: with
    the import time, one sample of ``setup_s``."""
    t0 = time.perf_counter()
    cfg = config(name, seed)
    fault_plan(name, cfg)
    build_experiment(cfg)
    return time.perf_counter() - t0


def timed(ctx: Context) -> Outcome:
    """Timed pass: repeats of the full run until ``seconds`` are used.

    ``setup_s`` is sampled twice, at either end of the pass: in this
    process before the first repeat, in a fresh interpreter after the last.
    """
    name, seed, pinned = ctx.workload, ctx.seed, ctx.pinned_digest
    out = Outcome()
    cfg = config(name, seed)
    out.add("setup_s", ctx.import_s + setup_sample(name, seed))
    run_once(name, config(name, seed, WARMUP_SCALE))     # discarded
    digests: list[str] = []
    deadline = time.perf_counter() + ctx.seconds
    wall = 0.0
    while out.attempted < MIN_REPEATS or \
            time.perf_counter() + wall < deadline:
        # Every repeat starts from a collected heap, as a fresh process
        # would: the cyclic garbage of the repeat before otherwise slows
        # this one by a tenth.  The collector stays on while it runs.
        gc.collect()
        result, faults, wall = run_once(name, cfg)
        out.attempted += 1
        digests.append(digest(result.sim, result.network, result.runtime))
        good = _check(out, f"repeat {out.attempted}", ok=result.ok,
                      orphans=sum(result.orphans.values()),
                      runtime=result.runtime, faults=faults)
        good &= out.check(digests[-1] == digests[0],
                          f"repeat {out.attempted}: digest differs from "
                          f"repeat 1")
        if pinned is not None:
            good &= out.check(digests[-1] == pinned,
                              f"repeat {out.attempted}: digest "
                              f"{digests[-1][:12]} != pinned {pinned[:12]}")
        if not good:
            out.failed += 1
        out.add("events_per_s", result.sim.executed / wall)
        out.op_s.append(wall)
        out.info["events"] = result.sim.executed
        del result, faults
    out.info["digest"] = digests[0]
    out.add("setup_s", fresh_setup_s(name, seed))
    return out


_STAGES = ("harness.experiment.build_s", "des.engine.run_s",
           "causality.consistency.verify_s", "metrics.collectors.collect_s")


class _Staged:
    """``run_experiment``'s stages called one by one, a span around each;
    with ``profile``, cProfile is on inside ``runtime.start`` + ``sim.run``."""

    def __init__(self, name: str, cfg: ExperimentConfig, spans: SpanRecorder,
                 root: str, profile: cProfile.Profile | None = None) -> None:
        plan = fault_plan(name, cfg)
        self.faults = _Faults(plan) if plan is not None else None
        self.verified: dict[int, list[Any]] = {}
        with spans.span(root, workload=name) as whole:
            with spans.span(_STAGES[0]) as build:
                self.sim, self.net, self.storage, self.runtime = \
                    build_experiment(cfg)
                if self.faults is not None:
                    self.faults(self.sim, self.net, self.storage,
                                self.runtime)
            with spans.span(_STAGES[1]) as run:
                if profile is not None:
                    profile.enable()
                self.runtime.start()
                self.sim.run(max_events=cfg.max_events)
                if profile is not None:
                    profile.disable()
            with spans.span(_STAGES[2]) as verify:
                if cfg.verify:
                    self.verified = ConsistencyVerifier(
                        self.sim.trace).verify_all(
                            self.runtime.global_records())
            with spans.span(_STAGES[3]) as gather:
                collect(cfg.protocol, self.sim, self.net, self.storage,
                        self.runtime)
        self.stage_s = {stage: span["end"] - span["start"] for stage, span
                        in zip(_STAGES, (build, run, verify, gather))}
        self.total_s = whole["end"] - whole["start"]

    def check(self, out: Outcome, what: str) -> bool:
        return _check(out, what, ok=self.sim.peek_time() is None,
                      orphans=sum(len(o) for o in self.verified.values()),
                      runtime=self.runtime, faults=self.faults)

    def digest(self) -> str:
        return digest(self.sim, self.net, self.runtime)


def traced(ctx: Context) -> Outcome:
    """Traced pass: the staged run twice — spans only (the stage times and
    the untraced base), then spans + cProfile (self-time shares, counts).

    ``<layer>.self_s`` is the layer's share of the profile's total
    ``tottime`` times the *unprofiled* ``des.engine.run_s``: the shares are
    the result, the profiler's inflated seconds are not.
    """
    name, seed = ctx.workload, ctx.seed
    out = Outcome(spans=SpanRecorder())
    cfg = config(name, seed)
    run_once(name, config(name, seed, WARMUP_SCALE))     # discarded
    gc.collect()
    plain = _Staged(name, cfg, out.spans, "run_experiment")
    reference = plain.digest()
    good = plain.check(out, "staged run")
    stage_s = plain.stage_s
    untraced_s = plain.total_s
    del plain
    gc.collect()
    profile = cProfile.Profile()
    run = _Staged(name, cfg, out.spans, "run_experiment.profiled", profile)
    good &= run.check(out, "profiled run")
    good &= out.check(run.digest() == reference,
                      "profiled run: digest differs from the staged run")
    out.attempted, out.failed = 2, 0 if good else 1

    for stage, value in stage_s.items():
        out.add(stage, value)
    self_s, calls = layers.profile_layers(profile, SRC)
    profiled_total = sum(self_s.values())
    for layer, value in layers.fold(self_s, DES_SELF_LAYERS).items():
        out.add(f"{layer}.self_s",
                value / profiled_total * stage_s["des.engine.run_s"])
    sim, net, runtime, faults = run.sim, run.net, run.runtime, run.faults
    on_message = calls.get(("repro.core.host", "on_message"), 0)
    machine = sum(calls.get(("repro.core.state_machine", fn), 0)
                  for fn in _STATE_MACHINE_ENTRY_POINTS)
    counts = {
        "des.engine.events": sim.executed,
        "des.engine.peak_heap": sim.peak_pending,
        "net.network.sends": net.total_sent(),
        "net.network.channels_created": len(net.channels()),
        "net.network.dropped": sum(net.dropped_by_cause().values()),
        "des.rng.streams_created": len(sim.rng.names()),
        "core.host.on_message_calls": on_message,
        "core.state_machine.calls": machine,
        "core.state_machine.fastpath_share":
            1.0 - machine / on_message if on_message else 0.0,
        "storage.writes": run.storage.completed(),
        "des.trace.records": len(sim.trace),
        "chaos.des.injected":
            faults.injector.total_injected() if faults else 0,
        "recovery.rollbacks": len(faults.recovery.events) if faults else 0,
        "causality.consistency.rounds_verified": len(run.verified),
        "protocol.rounds": sum(1 for s in runtime.finalized_seqs() if s > 0),
        "protocol.ctl_msgs": runtime.control_message_count(),
        "protocol.logged_msgs": runtime.total_logged_messages(),
    }
    for metric, value in counts.items():
        out.add(metric, value)
    out.add("trace_overhead_frac", (run.total_s - untraced_s) / untraced_s)
    out.info.update(digest=reference, untraced_s=untraced_s,
                    traced_s=run.total_s,
                    profiled_run_s=run.stage_s["des.engine.run_s"],
                    profile_tottime_s=profiled_total)
    return out
