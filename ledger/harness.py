"""What every workload child shares: paths, scratch space, RSS, outcome.

Hygiene rules kept here: every run directory, state dir, cache and
journal of a pass lives under one fresh directory removed at exit; the
program's subprocesses get ``repro`` on ``PYTHONPATH`` from this
checkout's ``src``; their stderr goes to files in the scratch directory
and only its line count is reported.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .spans import SpanRecorder

#: The checkout: the directory that holds ``ledger/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Parent of every scratch directory.  Inside the checkout because the
#: driver's contract confines reads and writes to it; gitignored.
SCRATCH_PARENT = ROOT / ".ledger-tmp"


def require_repro() -> None:
    """Put this checkout's ``repro`` first on ``sys.path`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: no program to measure: {SRC}/repro "
                         f"is missing")
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for ``python -m repro...`` subprocesses."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(SRC) if not existing
                         else str(SRC) + os.pathsep + existing)
    return env


def fresh_setup_s(workload: str, seed: int) -> float:
    """One more ``setup_s`` sample, from a fresh interpreter.

    Imports happen once per process, at its start; a pass that sampled its
    set-up only there would report whatever the host was doing in that one
    second.  The DES passes call this at their end, twenty seconds later.
    """
    done = subprocess.run(
        [sys.executable, "-m", "ledger", "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=120.0, check=True, text=True)
    return float(done.stdout.strip().splitlines()[-1])


@contextmanager
def scratch() -> Iterator[Path]:
    """One fresh directory for everything a pass writes; removed at exit."""
    SCRATCH_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="pass-", dir=SCRATCH_PARENT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass            # another pass still has a directory in it


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus its largest reaped child
    where the program runs in children (live workers, the serve process).

    ``ru_maxrss`` is in KiB on Linux; ``RUSAGE_CHILDREN`` covers only
    children already waited for, so call this after they have exited.  A
    DES pass's only child is the ledger's own set-up probe: not counted.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def count_lines(paths: Iterable[Path]) -> int:
    """Total newline count of the captured stderr/log files."""
    total = 0
    for path in paths:
        try:
            total += path.read_bytes().count(b"\n")
        except OSError:
            pass
    return total


#: Direct-call drivers: calls per batch and batches (one sample per
#: batch, so 20k calls per metric); file-writing drivers sample per call.
BATCH = 2000
BATCHES = 10
FILE_CALLS = 40


@dataclass(frozen=True)
class Context:
    """What one pass of one workload is asked to do."""

    workload: str
    seed: int
    #: How long the pass measures for (set-up and teardown come on top).
    seconds: float
    #: Wall seconds the workload module (and through it ``repro``) took
    #: to import in this process — part of ``setup_s``.
    import_s: float
    #: The pass's scratch directory (see :func:`scratch`).
    tmp: Path
    #: Seed-0 digest pinned in ``baseline.json`` (DES, seed 0 only).
    pinned_digest: str | None = None


@dataclass
class Outcome:
    """What one pass of one workload measured."""

    #: Operations attempted / failed (one DES repeat, one live run, one
    #: serve job); a failed check is a failed operation.
    attempted: int = 0
    failed: int = 0
    #: Why operations failed, in words.
    problems: list[str] = field(default_factory=list)
    #: Metric name -> samples (timed pass: native end-to-end metrics and
    #: ``setup_s``; traced pass: per-layer metrics).
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Timed pass: wall seconds of each operation (fills non-native cells).
    op_s: list[float] = field(default_factory=list)
    #: Digests, exact counts, stderr line counts — reported, not timed.
    info: dict[str, Any] = field(default_factory=dict)
    spans: SpanRecorder | None = None

    def check(self, ok: bool, problem: str) -> bool:
        """Record a failed check; returns ``ok`` for chaining."""
        if not ok:
            self.problems.append(problem)
        return ok

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))


def per_call(out: Outcome, metric: str, scale: float,
             call: Callable[[Any], Any], items: Sequence[Any]) -> None:
    """Direct-call driver: ``BATCHES`` samples of the wall time of one
    ``call(item)``, times ``scale`` (1e9 for ns, 1e6 for us)."""
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for i in range(BATCH):
            call(items[i % len(items)])
        out.add(metric, (time.perf_counter() - t0) / BATCH * scale)


def per_file_call(out: Outcome, metric: str, call: Callable[[Any], Any],
                  items: Sequence[Any]) -> None:
    """Direct-call driver for file writers/readers: one millisecond sample
    per ``call(item)``, ``FILE_CALLS`` calls."""
    for i in range(FILE_CALLS):
        t0 = time.perf_counter()
        call(items[i % len(items)])
        out.add(metric, (time.perf_counter() - t0) * 1e3)
