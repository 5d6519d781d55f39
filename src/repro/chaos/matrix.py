"""The chaos conformance matrix: every fault kind × both runtimes.

``run_matrix`` is what ``repro chaos`` executes.  Each cell injects one
fault kind — through the DES interposer (:mod:`repro.chaos.des`) or the
live interposer (:mod:`repro.chaos.live`) — and then *proves* the run
survived it:

* **consistent** — the independent verifier (DES) or the journal
  conformance replay (live) found every complete global checkpoint
  orphan-free (the paper's Theorem 2), with no protocol anomalies;
* **recovered** — faults were actually injected, checkpoint rounds kept
  finalizing after the fault window closed (Theorem 1 convergence), and
  every recovery obligation specific to the kind held: wire faults lost
  no message for good (:func:`~repro.chaos.live.lost_messages`), storage
  faults were healed by the bounded write retry, crashes completed the
  rollback-and-restart cycle.  A DES cell is also not recovered when
  :func:`~repro.chaos.des.run_plan` — the judge the fuzzer shares —
  reports any other violation (stuck status, non-dense csns, divergent
  finalized sets, a broken round prefix, an incomplete crash cycle).
  A cell that injected nothing is **vacuous**: neither ok nor failed.

The matrix must *discriminate*: an unknown fault kind yields a failing
cell (not a silent skip), and running the live wire cells with the
resilience layer disabled (``retries=False``) makes the drop cell lose
messages and fail — evidence the green matrix is earned, not vacuous.

DES cells are pure functions of (kind, seed) and fan out over the
harness executor's spawn-safe worker pool; live cells run wall-clock
time serially so their timers do not contend.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..harness.executor import JobCancelled, JobError, map_jobs
from ..obs import Tracer
from .des import run_des_cell
from .plan import (
    ALL_KINDS,
    ChaosError,
    CRASH_KINDS,
    FaultPlan,
    STORAGE_KINDS,
    single_fault_plan,
)

#: The full conformance matrix: one cell per kind per runtime.
DEFAULT_KINDS: tuple[str, ...] = ALL_KINDS

#: Live cell geometry (kept small: the whole live row stays under a
#: minute even on a loaded CI box).
LIVE_N = 3
LIVE_INTERVAL = 0.35
LIVE_TIMEOUT = 0.15
LIVE_RATE = 30.0
#: Sends inside this trailing window may legitimately race shutdown.
LIVE_GRACE = 1.0


@dataclass
class CellResult:
    """Outcome of one (runtime, fault kind) matrix cell."""

    runtime: str
    fault: str
    consistent: bool = False
    recovered: bool = False
    injected: dict[str, int] = field(default_factory=dict)
    recovered_actions: dict[str, int] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    @property
    def vacuous(self) -> bool:
        """The cell ran but injected nothing: it tested nothing."""
        return self.error is None and not any(self.injected.values())

    @property
    def ok(self) -> bool:
        return (self.consistent and self.recovered and self.error is None
                and not self.vacuous)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable cell verdict (the `--format json` shape)."""
        return {
            "runtime": self.runtime,
            "fault": self.fault,
            "ok": self.ok,
            "vacuous": self.vacuous,
            "consistent": self.consistent,
            "recovered": self.recovered,
            "injected": dict(sorted(self.injected.items())),
            "recovered_actions": dict(sorted(
                self.recovered_actions.items())),
            "detail": self.detail,
            "error": self.error,
        }


@dataclass
class MatrixReport:
    """All cells of one ``repro chaos`` invocation."""

    cells: list[CellResult]
    seed: int
    transport: str

    @property
    def ok(self) -> bool:
        return bool(self.cells) and all(c.ok for c in self.cells)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable report (the `--format json` shape)."""
        return {
            "seed": self.seed,
            "transport": self.transport,
            "ok": self.ok,
            "cells": [c.as_dict() for c in self.cells],
        }

    def render(self) -> str:
        """Human-readable matrix table."""
        lines = [f"chaos matrix — seed={self.seed} "
                 f"transport={self.transport}",
                 f"  {'fault':<12} {'runtime':<8} {'consistent':<11} "
                 f"{'recovered':<10} {'injected':<10} result"]
        for c in self.cells:
            injected = sum(c.injected.values())
            verdict = "OK" if c.ok else "VACUOUS" if c.vacuous else (
                f"FAILED ({c.error})" if c.error else "FAILED")
            lines.append(
                f"  {c.fault:<12} {c.runtime:<8} "
                f"{str(c.consistent):<11} {str(c.recovered):<10} "
                f"{injected:<10} {verdict}")
        lines.append(f"  RESULT: {'OK' if self.ok else 'FAILED'} "
                     f"({sum(1 for c in self.cells if c.ok)}/"
                     f"{len(self.cells)} cells)")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# DES cells
# --------------------------------------------------------------------------


def _des_cell(item: tuple[str, int]) -> dict[str, Any]:
    """Spawn-safe worker-pool entry: one DES cell as a picklable dict."""
    kind, seed = item
    return run_des_cell(kind, seed=seed)


def _des_cell_result(kind: str, outcome: Any) -> CellResult:
    if isinstance(outcome, JobCancelled):
        return CellResult(runtime="des", fault=kind, error="cancelled")
    if isinstance(outcome, JobError):
        return CellResult(runtime="des", fault=kind, error=outcome.error)
    return CellResult(
        runtime="des", fault=kind,
        consistent=not outcome["orphans"] and not outcome["anomalies"],
        recovered=outcome["recovered"] and not outcome["violations"],
        injected=outcome["injected"],
        recovered_actions=outcome["recovered_actions"],
        detail={"rounds": outcome["rounds"],
                "post_fault_rounds": outcome["post_fault_rounds"],
                "orphans": outcome["orphans"],
                "dropped_by_cause": outcome["dropped_by_cause"],
                "makespan": outcome["makespan"]})


# --------------------------------------------------------------------------
# live cells
# --------------------------------------------------------------------------


def default_live_plan(kind: str, seed: int,
                      duration: float) -> FaultPlan:
    """The canonical one-fault live plan for ``kind`` (crash excluded —
    live crashes use the supervisor's SIGKILL machinery, not a plan)."""
    lo, hi = 0.2 * duration, 0.6 * duration
    if kind == "drop":
        return single_fault_plan("drop", seed, p=0.25, start=lo, end=hi)
    if kind == "duplicate":
        return single_fault_plan("duplicate", seed, p=0.4,
                                 start=lo, end=hi)
    if kind == "reorder":
        return single_fault_plan("reorder", seed, p=0.5, start=lo, end=hi)
    if kind == "delay":
        return single_fault_plan("delay", seed, p=0.4, start=lo, end=hi,
                                 delay=0.2)
    if kind == "partition":
        return single_fault_plan("partition", seed, start=lo, end=hi,
                                 group_a=(0,),
                                 group_b=tuple(range(1, LIVE_N)))
    if kind == "torn-write":
        return single_fault_plan("torn-write", seed, p=0.5,
                                 start=0.1 * duration, end=0.8 * duration)
    if kind == "fsync-fail":
        return single_fault_plan("fsync-fail", seed, p=0.5,
                                 start=0.1 * duration, end=0.8 * duration)
    if kind == "slow-flush":
        return single_fault_plan("slow-flush", seed, p=0.5,
                                 start=0.1 * duration, end=0.8 * duration,
                                 delay=0.02)
    raise ChaosError(f"unknown fault kind {kind!r}")


def _chaos_evidence(run_dir: Path) -> tuple[dict[str, int], dict[str, int],
                                            int]:
    """Sum the per-worker run-end ``chaos`` journal events."""
    from ..live.journal import iter_run_journals
    injected: dict[str, int] = {}
    actions: dict[str, int] = {}
    retried = 0
    for _pid, _inc, events in iter_run_journals(run_dir):
        for ev in events:
            if ev["ev"] != "chaos":
                continue
            for k, v in ev.get("injected", {}).items():
                injected[k] = injected.get(k, 0) + v
            for k, v in ev.get("resilience", {}).items():
                actions[k] = actions.get(k, 0) + v
            actions["host_dup_dropped"] = (
                actions.get("host_dup_dropped", 0) + ev.get("dup_dropped", 0))
            retried += ev.get("retried_writes", 0)
    return injected, actions, retried


def run_live_cell(kind: str, *, seed: int = 0, transport: str = "local",
                  duration: float = 2.5, retries: bool = True,
                  run_dir: str | Path | None = None) -> CellResult:
    """Run one live matrix cell end-to-end (run + conformance replay)."""
    from ..live import LiveRunConfig, run_live
    from .live import lost_messages

    def execute(cell_dir: Path) -> CellResult:
        cfg = LiveRunConfig(
            n=LIVE_N, transport=transport, duration=duration,
            checkpoint_interval=LIVE_INTERVAL, timeout=LIVE_TIMEOUT,
            rate=LIVE_RATE, seed=seed, run_dir=str(cell_dir),
            resilience=retries)
        if kind in CRASH_KINDS:
            cfg.crash_at = 0.45 * duration
            cfg.crash_pid = cfg.n - 1
        else:
            cfg.chaos = default_live_plan(kind, seed, duration)
        report = run_live(cfg)
        injected, actions, retried = _chaos_evidence(cell_dir)
        detail: dict[str, Any] = {
            "rounds": len(report.conformance.rounds_completed),
            "orphans": sum(len(o)
                           for o in report.conformance.orphans.values()),
            "retried_writes": retried,
        }
        if kind in CRASH_KINDS:
            injected["crash"] = 1 if report.crash is not None else 0
            if report.crash is not None:
                actions["rollbacks"] = report.conformance.rollbacks
                detail["recovered_seq"] = report.crash.recovered_seq
            recovered = report.crash is not None and report.ok
        else:
            recovered = (report.ok and sum(injected.values()) > 0)
            if kind in STORAGE_KINDS and kind != "slow-flush":
                # Every failed attempt must have been healed by a retry.
                recovered = recovered and retried >= 1
            if kind not in STORAGE_KINDS:
                # Delivery completeness: with the resilience layer on, no
                # injected wire fault may lose an app message for good.
                lost = lost_messages(cell_dir, grace=LIVE_GRACE)
                detail["lost_messages"] = len(lost)
                recovered = recovered and not lost
        return CellResult(
            runtime="live", fault=kind,
            consistent=report.conformance.consistent,
            recovered=recovered, injected=injected,
            recovered_actions=actions, detail=detail)

    try:
        if run_dir is not None:
            path = Path(run_dir)
            path.mkdir(parents=True, exist_ok=True)
            return execute(path)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as td:
            return execute(Path(td))
    except ChaosError as exc:
        return CellResult(runtime="live", fault=kind, error=str(exc))
    except Exception as exc:  # a cell failure must not kill the matrix
        return CellResult(runtime="live", fault=kind,
                          error=f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# the matrix
# --------------------------------------------------------------------------


def run_matrix(kinds: Sequence[str] = DEFAULT_KINDS,
               runtimes: Sequence[str] = ("des", "live"), *,
               seed: int = 0, transport: str = "local",
               duration: float = 2.5, retries: bool = True,
               jobs: int = 1, run_root: str | Path | None = None,
               tracer: Tracer | None = None,
               cancel_event: Any = None) -> MatrixReport:
    """Run the fault × runtime conformance matrix.

    ``retries=False`` disables the live resilience layer — the
    discrimination mode: seeded drops then lose messages for good and
    the drop cell must fail.  ``run_root`` keeps every live cell's run
    directory (journals, checkpoints, traces) for post-mortems.

    ``cancel_event`` (a :class:`threading.Event`) cancels cooperatively:
    DES cells stop dispatching through the executor's cancel hook, live
    cells stop between cells; every skipped cell reports
    ``error="cancelled"`` so a cancelled matrix is visibly partial, not
    silently green.
    """

    def cancelled() -> bool:
        return cancel_event is not None and cancel_event.is_set()

    cells: list[CellResult] = []
    known = [k for k in kinds if k in ALL_KINDS]
    unknown = [k for k in kinds if k not in ALL_KINDS]
    if "des" in runtimes:
        outcomes = map_jobs(_des_cell, [(k, seed) for k in known],
                            jobs=jobs, cancel_event=cancel_event)
        cells.extend(_des_cell_result(k, outcome)
                     for k, outcome in zip(known, outcomes))
        cells.extend(CellResult(
            runtime="des", fault=k,
            error=f"unknown fault kind {k!r}") for k in unknown)
    if "live" in runtimes:
        for k in known:
            if cancelled():
                cells.append(CellResult(runtime="live", fault=k,
                                        error="cancelled"))
                continue
            cell_dir = (Path(run_root) / f"cell-{transport}-{k}"
                        if run_root is not None else None)
            cells.append(run_live_cell(
                k, seed=seed, transport=transport, duration=duration,
                retries=retries, run_dir=cell_dir))
        cells.extend(CellResult(
            runtime="live", fault=k,
            error=f"unknown fault kind {k!r}") for k in unknown)
    report = MatrixReport(cells=cells, seed=seed, transport=transport)
    if tracer is not None and tracer.enabled:
        # Deterministic summary stream: cell index as the timestamp, no
        # wall-clock values — reruns emit byte-identical events.
        for i, cell in enumerate(report.cells):
            tracer.point("chaos.cell", float(i), fault=cell.fault,
                         cell_runtime=cell.runtime, ok=cell.ok,
                         injected=sum(cell.injected.values()),
                         recovered=cell.recovered,
                         consistent=cell.consistent)
    return report
