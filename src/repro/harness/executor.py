"""Parallel experiment execution with an on-disk result cache.

``run_many`` fans a batch of independent :class:`ExperimentConfig`s out
over a ``multiprocessing`` worker pool.  Workers are spawn-safe: a config
is picklable and fully determines its run, so each worker rebuilds the
simulation from scratch and ships back a slim :class:`RunSummary` (config
+ flat metrics + orphan counts) instead of the live :class:`RunResult`
object graph, which holds an entire simulator and cannot cross a process
boundary.  A crashed worker is captured as a :class:`RunFailure` carrying
the config and traceback rather than killing the batch.

Because every run is deterministic in its config (seeded RNG streams, no
wall-clock reads — enforced by ``repro verify --lint``), results can be
memoised on disk: :class:`ResultCache` keys each summary by a stable hash
of the config, so repeated sweeps skip already-completed points and any
config change (or cache-format bump) is automatically a miss.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import queue as queue_mod
import sys
import threading
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

# Private alias: the canonical flat-dict adapter lives in repro.api (one
# RunOutcome surface for every host — see docs/API.md).  The PR-4 era
# ``repro.harness.executor.MetricsView`` re-export is retired; import it
# from ``repro.api``.
from ..api import MetricsView as _MetricsView
from .experiment import ExperimentConfig

# Keying, caching and dispatching a batch load no simulator: the run
# path (numpy, the DES) is imported by the first run, in _run_one.
if TYPE_CHECKING:
    from .runner import RunResult

#: Bump to invalidate every cached summary (format or semantics change).
CACHE_VERSION = 1

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Progress is either off (None/False), on (True → stderr lines), or a
#: callable ``(done, total, outcome)``.
ProgressArg = Any


@dataclass
class RunSummary:
    """Picklable reduction of a :class:`RunResult` (no live objects).

    Carries exactly what the harness consumers (sweep tables, comparison
    tables, replication summaries) read: the config, the flat
    ``RunMetrics.as_dict()`` record, the orphan counts, and the
    truncation flag.
    """

    config: ExperimentConfig
    metrics_dict: dict[str, Any]
    orphans: dict[int, int] = field(default_factory=dict)
    truncated: bool = False
    #: True when this summary was served from a :class:`ResultCache`.
    cached: bool = False

    @property
    def metrics(self) -> "_MetricsView":
        """Duck-typed ``RunMetrics`` surface (``.as_dict()``, flat attrs)."""
        return _MetricsView(self.metrics_dict)

    @property
    def consistent(self) -> bool:
        """Every verified global checkpoint is orphan-free."""
        return all(v == 0 for v in self.orphans.values())

    @property
    def ok(self) -> bool:
        """Acceptance (RunOutcome): consistent and ran to quiescence."""
        return self.consistent and not self.truncated

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready outcome record (the RunOutcome surface)."""
        return {
            "protocol": self.config.protocol,
            "n": self.config.n,
            "seed": self.config.seed,
            "ok": self.ok,
            "consistent": self.consistent,
            "truncated": self.truncated,
            "orphans": {str(k): v for k, v in sorted(self.orphans.items())},
            "metrics": dict(self.metrics_dict),
        }

    @classmethod
    def from_result(cls, result: RunResult) -> "RunSummary":
        """Reduce a live :class:`RunResult` to its picklable summary."""
        return cls(config=result.config,
                   metrics_dict=result.metrics.as_dict(),
                   orphans=dict(result.orphans),
                   truncated=result.truncated)


@dataclass
class RunFailure:
    """A run that raised: the config plus the worker's traceback."""

    config: ExperimentConfig
    error: str
    traceback: str

    def __str__(self) -> str:
        return (f"{self.config.protocol} (n={self.config.n}, "
                f"seed={self.config.seed}): {self.error}")


@dataclass
class JobError:
    """A generic :func:`map_jobs` item that raised."""

    item: Any
    error: str
    traceback: str


@dataclass
class JobCancelled:
    """A :func:`map_jobs` item never dispatched: the batch was cancelled.

    Cooperative cancellation (``cancel_event``) stops *dispatching*;
    items already in flight finish normally and keep their real
    outcomes, so a cancelled batch still reports partial results.
    """

    item: Any


# -- cache ---------------------------------------------------------------------


def config_key(cfg: ExperimentConfig, *, salt: str = "") -> str:
    """Stable content hash of a config (+ optional salt/namespace).

    Any field change produces a different key; bumping
    :data:`CACHE_VERSION` invalidates everything at once.
    """
    payload = {"version": CACHE_VERSION, "salt": salt, "config": asdict(cfg)}
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class ResultCache:
    """On-disk memo of finished runs under ``.repro-cache/``.

    One JSON file per key; writes are atomic (tmp file + rename) so a
    crashed run never leaves a truncated entry behind.  Unreadable or
    version-mismatched entries read as misses.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """The on-disk location of one entry."""
        return self.root / f"{key}.json"

    # Generic JSON payloads (used by e.g. the recovery table cache) -----

    def load_json(self, key: str) -> dict[str, Any] | None:
        """A raw cached payload, or None on miss/corruption/version skew."""
        try:
            payload = json.loads(self.path_for(key).read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or \
                payload.get("version") != CACHE_VERSION:
            return None
        return payload

    def store_json(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically write a raw payload (version stamp added)."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"version": CACHE_VERSION, **payload}
        path = self.path_for(key)
        tmp = path.with_suffix(".json.tmp")
        # No ``indent``: it selects the pure-Python encoder, whose closures
        # are left in a reference cycle per call.
        tmp.write_text(json.dumps(payload, sort_keys=True, default=repr),
                       "utf-8")
        tmp.replace(path)

    # Run summaries -----------------------------------------------------

    def load(self, cfg: ExperimentConfig,
             key: str | None = None) -> RunSummary | None:
        """The cached summary for ``cfg``, or None on a miss.

        ``key`` is ``config_key(cfg)`` when the caller already has it.
        """
        payload = self.load_json(key or config_key(cfg))
        if payload is None or "metrics" not in payload:
            return None
        return RunSummary(
            config=cfg,
            metrics_dict=dict(payload["metrics"]),
            orphans={int(k): int(v)
                     for k, v in payload.get("orphans", {}).items()},
            truncated=bool(payload.get("truncated", False)),
            cached=True)

    def store(self, summary: RunSummary, key: str | None = None) -> None:
        """Memoise a finished run under its config hash (``key``, when
        the caller already has it)."""
        self.store_json(key or config_key(summary.config), {
            "config": asdict(summary.config),
            "metrics": summary.metrics_dict,
            "orphans": {str(k): v for k, v in summary.orphans.items()},
            "truncated": summary.truncated,
        })

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed


# -- generic parallel map ------------------------------------------------------


def _invoke(payload: tuple[Callable[[Any], Any], int, Any]
            ) -> tuple[int, Any]:
    """Top-level worker shim (picklable under spawn): capture, don't die."""
    fn, index, item = payload
    try:
        return index, fn(item)
    except Exception as exc:  # noqa: BLE001 - failures travel as values
        return index, JobError(item=item, error=repr(exc),
                               traceback=traceback.format_exc())


def map_jobs(fn: Callable[[Any], Any], items: Sequence[Any],
             jobs: int = 1,
             on_result: Callable[[int, Any], None] | None = None,
             cancel_event: "threading.Event | None" = None) -> list[Any]:
    """Order-preserving map with per-item failure capture.

    ``jobs <= 1`` (or a single item) runs inline — byte-identical to the
    parallel path because items are independent and ``fn`` is
    deterministic; ``jobs > 1`` fans out over a spawn-context pool.  An
    item whose ``fn`` raises yields a :class:`JobError` in its slot
    instead of aborting the batch.  ``on_result(index, outcome)`` fires
    as each item completes (completion order, not input order).

    ``cancel_event`` (a :class:`threading.Event`, settable from any
    thread) requests *cooperative* cancellation: no further item is
    dispatched once it is set, in-flight workers drain normally, and
    every undispatched item yields a :class:`JobCancelled` in its slot —
    so the caller always gets one outcome per item and can tell partial
    results from losses.
    """
    items = list(items)
    out: list[Any] = [None] * len(items)
    payloads = [(fn, i, item) for i, item in enumerate(items)]

    def cancelled() -> bool:
        return cancel_event is not None and cancel_event.is_set()

    def finish(index: int, outcome: Any) -> None:
        out[index] = outcome
        if on_result is not None:
            on_result(index, outcome)

    if jobs <= 1 or len(items) <= 1:
        for payload in payloads:
            if cancelled():
                finish(payload[1], JobCancelled(item=payload[2]))
                continue
            finish(*_invoke(payload))
        return out
    # Wave dispatch: at most ``jobs`` payloads are submitted at a time,
    # the next one going out only as a result comes back — the window
    # that makes stop-dispatching-on-cancel possible (imap would ship
    # the whole batch to the pool up front).
    ctx = mp.get_context("spawn")
    results: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
    with ctx.Pool(processes=min(jobs, len(items))) as pool:

        def submit(payload: tuple[Callable[[Any], Any], int, Any]) -> None:
            pool.apply_async(_invoke, (payload,), callback=results.put,
                             error_callback=lambda exc, p=payload:
                             results.put((p[1], JobError(
                                 item=p[2], error=repr(exc),
                                 traceback=""))))

        next_up = 0
        in_flight = 0
        while next_up < len(items) and in_flight < jobs \
                and not cancelled():
            submit(payloads[next_up])
            next_up += 1
            in_flight += 1
        while in_flight:
            index, outcome = results.get()
            in_flight -= 1
            finish(index, outcome)
            if next_up < len(items) and not cancelled():
                submit(payloads[next_up])
                next_up += 1
                in_flight += 1
    for payload in payloads[next_up:]:
        finish(payload[1], JobCancelled(item=payload[2]))
    return out


# -- batch experiment execution ------------------------------------------------


def _run_one(cfg: ExperimentConfig) -> RunSummary:
    """Worker body: rebuild the simulation from the config, reduce."""
    from .runner import run_experiment
    return RunSummary.from_result(run_experiment(cfg))


def _outcome_tag(outcome: RunSummary | RunFailure) -> str:
    if isinstance(outcome, RunFailure):
        return "FAILED"
    return "cached" if outcome.cached else "ok"


def _emit_progress(progress: ProgressArg, done: int, total: int,
                   outcome: RunSummary | RunFailure) -> None:
    if not progress:
        return
    if callable(progress):
        progress(done, total, outcome)
        return
    cfg = outcome.config
    print(f"[{done}/{total}] {cfg.protocol} n={cfg.n} seed={cfg.seed} "
          f"... {_outcome_tag(outcome)}", file=sys.stderr)


def run_many(configs: Sequence[ExperimentConfig], jobs: int = 1,
             cache: ResultCache | None = None,
             progress: ProgressArg = None,
             cancel_event: "threading.Event | None" = None
             ) -> list[RunSummary | RunFailure]:
    """Run a batch of independent configs, optionally in parallel.

    Returns one outcome per completed config, in input order: a
    :class:`RunSummary` on success (``.cached`` marks cache hits) or a
    :class:`RunFailure` capturing the config and traceback.  The serial
    path (``jobs=1``) and the pool path produce identical summaries —
    runs are deterministic in their configs — so ``jobs`` is purely a
    wall-clock knob.

    ``cancel_event`` stops dispatch cooperatively (see
    :func:`map_jobs`): already-running configs drain and are cached as
    usual, undispatched ones are simply absent from the result — the
    cache is never left with a partial or torn entry, so a re-run picks
    up exactly where the cancelled batch stopped.
    """
    configs = list(configs)
    total = len(configs)
    out: list[RunSummary | RunFailure | None] = [None] * total
    pending: list[tuple[int, ExperimentConfig]] = []
    done = 0
    # Hashed once per config: the same key serves the load and the store.
    keys = [config_key(cfg) for cfg in configs] if cache is not None else []
    for i, cfg in enumerate(configs):
        hit = cache.load(cfg, keys[i]) if cache is not None else None
        if hit is not None:
            out[i] = hit
            done += 1
            _emit_progress(progress, done, total, hit)
        else:
            pending.append((i, cfg))

    def _finish(pos: int, outcome: Any) -> None:
        nonlocal done
        index, cfg = pending[pos]
        if isinstance(outcome, JobCancelled):
            return                     # undispatched: no slot, no cache
        if isinstance(outcome, JobError):
            outcome = RunFailure(config=cfg, error=outcome.error,
                                 traceback=outcome.traceback)
        elif cache is not None:
            cache.store(outcome, keys[index])
        out[index] = outcome
        done += 1
        _emit_progress(progress, done, total, outcome)

    map_jobs(_run_one, [cfg for _, cfg in pending], jobs=jobs,
             on_result=_finish, cancel_event=cancel_event)
    return [o for o in out if o is not None]


def failures(outcomes: Iterable[RunSummary | RunFailure]) -> list[RunFailure]:
    """The :class:`RunFailure` entries of a batch."""
    return [o for o in outcomes if isinstance(o, RunFailure)]


def raise_failures(outcomes: Iterable[RunSummary | RunFailure]) -> None:
    """Raise one RuntimeError summarising every failed run in a batch."""
    failed = failures(outcomes)
    if failed:
        detail = "\n\n".join(f"--- {f}\n{f.traceback}" for f in failed)
        raise RuntimeError(
            f"{len(failed)} experiment run(s) failed:\n{detail}")
