"""The live-farm workload: steady throughput, and crash recovery as a layer.

Geometry: ``n=2`` worker OS processes plus the broker inside this process
over loopback TCP — two connections on a two-core box — 256 B messages,
checkpoint interval 0.5 s, convergence timeout 0.25 s.

``live_tcp_n2`` is a closed loop (``rate=0``: each worker's burst driver
sends as fast as ``drain()`` back-pressure allows).  A timed pass makes
runs of ``RUN_DURATION`` seconds of work window, one after another, until
``--seconds`` are used (never fewer than ``MIN_RUNS``): short runs, because
three spinning processes on two shared cores are at the mercy of the
scheduler and of the farm's own retransmission dynamics (README, baseline
observations), and many short samples let the pass report the rate the
farm reaches when it is left alone.

Crash recovery is measured in the traced pass, as the per-layer metric
``live.supervisor.recovery_s``: ``CRASH_RUNS`` runs at ``CRASH_RATE``
messages per worker per second with a SIGKILL of P1 at 70 % of each.  It
does not saturate, on purpose: under saturation the respawned worker's
start-up competes with two spinning senders (recovery time swung by a
quarter between runs), the outage window overflowed the broker's park
queue, and every finalize wrote a ~300 KB record — long enough for the
kill to land between the checkpoint file and its journal record in about
one run in two hundred, which the journal replay then reports as orphans
(README, baseline observations).  It is not an end-to-end metric because
one recovery is one Python start-up plus a reconnect, ~0.3 s, and on the
shared host its spread over ten passes was half its median (README,
"Bounds and noise").

The traced pass measures the other layers three ways: report and journals
of an untraced TCP run; direct-call drivers on inputs generated from the
seed; and cProfile over the same workload on ``transport="local"``, where
the workers share this process and so can be profiled.
"""

from __future__ import annotations

import cProfile
import gc
import random
import shutil
import statistics
import time
from pathlib import Path

from repro.core.types import (
    FinalizedCheckpoint,
    LogEntry,
    Piggyback,
    Status,
    TentativeCheckpoint,
)
from repro.live import (
    FileStableStorage,
    Journal,
    LiveRunConfig,
    LiveRunReport,
    make_uid,
    replay,
    run_live,
    worker_events,
)
from repro.live.wire import app_frame, decode_frame, encode_frame
from repro.storage.serialize import (
    checkpoint_to_dict,
    pack_piggyback,
    piggyback_to_dict,
)

from . import layers
from .harness import (
    BATCH,
    SRC,
    Context,
    Outcome,
    count_lines,
    per_call,
    per_file_call,
)
from .spans import SpanRecorder
from .spec import LIVE_SELF_LAYERS

N = 2
#: Work window of one timed run, seconds; a run costs about twice that
#: (spawn, connect, clean stop, journal replay).
RUN_DURATION = 1.5
#: Timed runs never fewer than this, whatever ``--seconds`` says.
MIN_RUNS = 3
#: Traced pass: crash runs, their work window, messages per worker per
#: second (not a closed loop), and where in the window the kill lands.
CRASH_RUNS = 5
CRASH_DURATION = 1.25
CRASH_RATE = 200.0
CRASH_AT = 0.7
#: Work window of each traced-pass run, seconds.
TRACED_DURATION = 3.0
#: Checkpoint payload for the storage drivers: uids recorded per window
#: and log entries — the size a 0.5 s window reaches at ~30k msg/s.
CKPT_UIDS = 8192
CKPT_LOG = 2048


def live_config(seed: int, duration: float, run_dir: Path,
                transport: str = "tcp", crash: bool = False
                ) -> LiveRunConfig:
    return LiveRunConfig(
        n=N, transport=transport, duration=duration,
        rate=CRASH_RATE if crash else 0,
        checkpoint_interval=0.5, timeout=0.25, msg_size=256, seed=seed,
        crash_at=CRASH_AT * duration if crash else None,
        run_dir=str(run_dir))


def _run(out: Outcome, cfg: LiveRunConfig, what: str) -> LiveRunReport:
    """One checked ``run_live``."""
    report = run_live(cfg)
    out.attempted += 1
    good = out.check(report.ok, f"{what}: report not ok "
                     f"(consistent={report.consistent}, rounds="
                     f"{len(report.conformance.rounds_completed)}, "
                     f"problems={report.conformance.problems})")
    if cfg.crash_at is not None:
        good &= out.check(report.crash is not None,
                          f"{what}: the crash was not recovered")
    if not good:
        out.failed += 1
    return report


def timed(ctx: Context) -> Outcome:
    """Timed pass: untraced TCP runs until ``seconds`` are used."""
    out = Outcome()
    stderr_lines = 0
    t0 = time.perf_counter()
    while out.attempted < MIN_RUNS or \
            time.perf_counter() - t0 < ctx.seconds:
        # The broker runs in this process: start every run from a
        # collected heap, not from the garbage of the last replay.
        gc.collect()
        cfg = live_config(ctx.seed, RUN_DURATION,
                          ctx.tmp / f"run{out.attempted}")
        report = _run(out, cfg, f"run {out.attempted + 1}")
        # Delivered messages per second of work window.  The report's own
        # msgs_per_sec divides by wall_seconds, which with windows this
        # short is one third worker start-up.
        rate = max(report.conformance.receives, 1) / RUN_DURATION
        out.add("msgs_per_s", rate)
        # report.wall_seconds is run_live's total minus the replay; minus
        # the work window it is what start-up (spawn, import, connect)
        # and clean stop cost.
        out.add("setup_s", ctx.import_s + report.wall_seconds - RUN_DURATION)
        # The workload's operation, for the non-native cells: a thousand
        # delivered messages.
        out.op_s.append(1000.0 / rate)
        # Journals of tens of MB per run: dropped now, before the kernel
        # writes them back underneath the next run.
        stderr_lines += count_lines(Path(cfg.run_dir).glob("worker-*.log"))
        shutil.rmtree(cfg.run_dir, ignore_errors=True)
        del report
    out.info["stderr_lines"] = stderr_lines
    return out


# -- direct-call drivers --------------------------------------------------


def _checkpoint(rng: random.Random, csn: int) -> FinalizedCheckpoint:
    uids = [make_uid(rng.randrange(N), 0, rng.randrange(1 << 31))
            for _ in range(2 * CKPT_UIDS + CKPT_LOG)]
    return FinalizedCheckpoint(
        pid=0, csn=csn,
        tentative=TentativeCheckpoint(pid=0, csn=csn, taken_at=float(csn),
                                      state_bytes=1_000_000,
                                      flushed_at=csn + 0.1,
                                      digest=rng.getrandbits(60)),
        finalized_at=csn + 0.2,
        log_entries=[LogEntry(uid=u, nbytes=256, direction="recv",
                              time=csn + 0.15) for u in uids[:CKPT_LOG]],
        new_sent_uids=frozenset(uids[CKPT_LOG:CKPT_LOG + CKPT_UIDS]),
        new_recv_uids=frozenset(uids[CKPT_LOG + CKPT_UIDS:]),
        reason="piggyback.allset")


def direct_calls(out: Outcome, seed: int, tmp: Path) -> None:
    """Wire, serialize, journal and storage costs on seeded inputs."""
    rng = random.Random(seed)
    piggybacks = [Piggyback(csn=rng.randrange(1, 1000),
                            stat=rng.choice(list(Status)),
                            tent_set=frozenset(
                                p for p in range(N) if rng.random() < 0.5))
                  for _ in range(BATCH)]
    frames = [app_frame(i % N, (i + 1) % N, make_uid(i % N, 0, i + 1), 256,
                        pb, epoch=0) for i, pb in enumerate(piggybacks)]
    encoded = [encode_frame(f) for f in frames]
    pb_dicts = [piggyback_to_dict(pb) for pb in piggybacks]

    journal = Journal(tmp / "driver", 0, 0)
    per_call(out, "live.wire.encode_ns", 1e9, encode_frame, frames)
    per_call(out, "live.wire.decode_ns", 1e9, decode_frame, encoded)
    per_call(out, "storage.serialize.pack_piggyback_ns", 1e9,
             pack_piggyback, pb_dicts)
    per_call(out, "live.journal.log_ns", 1e9,
             lambda frame: journal.log("send", uid=frame["uid"],
                                       dst=frame["dst"], size=frame["size"]),
             frames)
    journal.close()

    storage = FileStableStorage(tmp / "driver", 0)
    payloads = [(csn, checkpoint_to_dict(_checkpoint(rng, csn)))
                for csn in range(1, 5)]
    per_file_call(out, "live.storage.write_finalized_ms",
                  lambda item: storage.write_finalized(*item), payloads)
    per_file_call(out, "live.storage.load_finalized_ms",
                  lambda item: storage.load_finalized(item[0]), payloads)


# -- traced pass ----------------------------------------------------------


def _journal_counts(run_dir: Path) -> dict[str, int]:
    """Record, checkpoint and retransmission counts from the journals."""
    events = finalizes = retries = 0
    for stream in worker_events(run_dir).values():
        events += len(stream)
        for ev in stream:
            if ev["ev"] == "finalize":
                finalizes += 1
            elif ev["ev"] == "chaos":
                retries += ev.get("resilience", {}).get("retries", 0)
    return {"events": events, "finalizes": finalizes, "retries": retries}


def traced(ctx: Context) -> Outcome:
    """Traced pass: see the module docstring for the sources."""
    out = Outcome(spans=SpanRecorder())
    spans = out.spans
    seed = ctx.seed

    # 1. the real transport, untraced: report + journals.
    cfg = live_config(seed, TRACED_DURATION, ctx.tmp / "tcp")
    with spans.span("run_live", transport="tcp") as whole:
        report = _run(out, cfg, "tcp run")
    with spans.span("live.conformance.replay_s"):
        replay(cfg.run_dir, N)
    spans.add("live.supervisor.work_window_s", whole["start"],
              whole["start"] + report.wall_seconds, parent=whole["id"])
    conf = report.conformance
    counts = _journal_counts(Path(cfg.run_dir))
    values: dict[str, float] = {
        "live.supervisor.work_window_s": report.wall_seconds,
        "live.conformance.replay_s":
            spans.duration("live.conformance.replay_s"),
        "live.conformance.events": counts["events"],
        "live.transport.sends": conf.sends,
        "live.resilience.retransmits": counts["retries"],
        "live.host.rounds": len(conf.rounds_completed),
        "live.host.round_p50_s": (
            statistics.median(conf.round_latency.values())
            if conf.round_latency else 0.0),
        "live.host.rollbacks": conf.rollbacks,
        "live.storage.checkpoints": counts["finalizes"],
    }
    for cause in ("no_route", "park_overflow", "superseded"):
        values[f"live.transport.dropped.{cause}"] = \
            report.drop_causes.get(cause, 0)
    for metric, value in values.items():
        out.add(metric, value)

    # 2. the recovery path: SIGKILL, respawn, restart-from-disk, rollback.
    for i in range(CRASH_RUNS):
        cfg = live_config(seed, CRASH_DURATION, ctx.tmp / f"crash{i}",
                          crash=True)
        with spans.span("run_live", transport="tcp", crash=i + 1) as whole:
            report = _run(out, cfg, f"crash run {i + 1}")
        if report.crash is not None:
            out.add("live.supervisor.recovery_s",
                    report.crash.recovery_seconds)
            whole["recovery_s"] = report.crash.recovery_seconds

    # 3. single layers, called directly.
    direct_calls(out, seed, ctx.tmp)

    # 4. same workload, workers in this process: untraced, then profiled.
    per_msg: dict[str, float] = {}
    profile = cProfile.Profile()
    for label in ("local", "local.profiled"):
        cfg = live_config(seed, TRACED_DURATION, ctx.tmp / label,
                          transport="local")
        with spans.span("run_live", transport=label):
            if label == "local.profiled":
                profile.enable()
            report = _run(out, cfg, f"{label} run")
            profile.disable()
        per_msg[label] = report.wall_seconds / max(
            report.conformance.receives, 1)
    self_s, _calls = layers.profile_layers(profile, SRC)
    for layer in LIVE_SELF_LAYERS:
        out.add(f"{layer}.self_s", self_s.get(layer, 0.0))
    # Fixed-duration runs: the traced and untraced walls are equal by
    # construction, so the overhead is taken per delivered message.
    out.add("trace_overhead_frac",
            (per_msg["local.profiled"] - per_msg["local"])
            / per_msg["local"])
    out.info.update(
        stderr_lines=count_lines(sorted(ctx.tmp.glob("*/worker-*.log"))),
        profile_tottime_s=sum(self_s.values()),
        local_wall_per_msg_s=per_msg)
    return out
