"""Run journal: the conformance evidence stream of a live run.

Every worker appends one JSON line per observable protocol event to its
own journal file ``journal-P<pid>-<incarnation>.jsonl`` (one file per
incarnation so a SIGKILLed process and its restarted successor never share
a file descriptor).  The supervisor writes ``supervisor.jsonl`` with run
metadata, crash injections and recovery milestones.

Journaled worker events:

``start``     worker (re)started: pid, incarnation, epoch, resume seq
``send``      application send: uid, dst, size  (journaled *before* the
              socket write, so every uid a peer can ever receive has a
              send record even if the sender is killed mid-send)
``recv``      application receive: uid, src, size
``tentative`` CT taken: csn, digest
``finalize``  checkpoint finalized: csn, reason, exclude uid, the window
              increments (new_sent/new_recv), digest (the log itself is
              in the ``C_k`` file)
``rollback``  system-wide recovery applied: seq, epoch
``anomaly``   a proven-impossible message arrived
``stop``      clean shutdown

The conformance layer (:mod:`repro.live.conformance`) replays these files
through :mod:`repro.causality` to check Theorem 2 on the real execution.

Flush semantics: high-rate events (``send``/``recv``) are buffered and
written in batches; round-boundary and lifecycle events (everything
else) force a flush, as does :meth:`Journal.flush` — which the TCP
transport invokes as its ``pre_flush`` hook *before* every socket write,
so a ``send`` record is always durable before the frame it describes can
reach a peer (the journal-before-send discipline, REP107).  A SIGKILL
can therefore truncate the file only inside its final flushed chunk:
at most one torn line, always the last — which the reader skips.  A
malformed line anywhere *else* is real corruption and raises.

Reading: :func:`iter_journal` streams one file's records line by line
(what the conformance replay and the chaos evidence scans fold, so no
end-of-run check holds a whole journal); :func:`read_journal` and
:func:`worker_events` are its list-shaped forms, for tests and tools
that want every record at once.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Any, Iterator

_JOURNAL_RE = re.compile(r"^journal-P(\d+)-(\d+)\.jsonl$")

#: Events that force a flush: round boundaries, checkpoints, lifecycle.
FLUSH_EVENTS = frozenset(
    {"start", "tentative", "finalize", "rollback", "anomaly", "stop",
     "chaos"})

#: Safety valve: flush after this many buffered events regardless.
MAX_BUFFERED_EVENTS = 1024


class Journal:
    """Append-only JSONL event stream for one worker incarnation."""

    def __init__(self, run_dir: str | Path, pid: int,
                 incarnation: int) -> None:
        self.pid = pid
        self.incarnation = incarnation
        self.path = (Path(run_dir)
                     / f"journal-P{pid}-{incarnation}.jsonl")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        self._idx = 0
        self._buf: list[str] = []

    def log(self, ev: str, **data: Any) -> None:
        """Append one event (monotone per-file index + wall timestamp).

        Buffered: becomes durable at the next :meth:`flush` — which
        round-boundary events, the transport's pre-write hook, and
        :meth:`close` all trigger.
        """
        record = {"ev": ev, "idx": self._idx, "pid": self.pid,
                  "inc": self.incarnation, "wall": time.time(), **data}
        self._idx += 1
        self._buf.append(json.dumps(record, sort_keys=True))
        if ev in FLUSH_EVENTS or len(self._buf) >= MAX_BUFFERED_EVENTS:
            self.flush()

    def flush(self) -> None:
        """Write and fsync-flush everything buffered (idempotent)."""
        if self._buf and not self._fh.closed:
            self._fh.write("".join(line + "\n" for line in self._buf))
            self._buf.clear()
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._fh.closed:
            self.flush()
            self._fh.close()


def iter_journal(path: str | Path) -> Iterator[dict[str, Any]]:
    """Parse one journal file line by line, skipping a SIGKILL-truncated
    last line.

    Journal writes are whole-line appends, so a kill mid-write can tear
    at most the *final* line of the file.  A malformed line followed by
    more data is not a torn tail but corruption — surfaced loudly
    instead of silently truncating the evidence stream.  The file is
    read one line at a time, so nothing but the current line and the
    record handed out is held; a malformed line is judged when the next
    line (or the end of the file) shows whether it was the last.
    """
    torn: int | None = None  # number of a malformed line, if the last
    number = 0
    with Path(path).open(encoding="utf-8") as fh:
        for chunk in fh:
            # str.splitlines' line breaks, as a whole-file read splits.
            for line in chunk.splitlines():
                number += 1
                if torn is not None:
                    raise ValueError(
                        f"corrupt journal line {torn} in {path}: a "
                        f"malformed line before the final one cannot be "
                        f"a torn tail")
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    torn = number  # torn tail of a killed writer, if last
                    continue
                yield record


def read_journal(path: str | Path) -> list[dict[str, Any]]:
    """Every record of one journal file (:func:`iter_journal`, as a list)."""
    return list(iter_journal(path))


def iter_run_journals(run_dir: str | Path
                      ) -> Iterator[tuple[int, int, Iterator[dict[str, Any]]]]:
    """Yield ``(pid, incarnation, events)`` for every worker journal,
    ordered by pid then incarnation; ``events`` is the file's
    :func:`iter_journal` stream, which opens the file on first use."""
    entries = []
    for path in sorted(Path(run_dir).glob("journal-P*.jsonl")):
        m = _JOURNAL_RE.match(path.name)
        if m:
            entries.append((int(m.group(1)), int(m.group(2)), path))
    for pid, inc, path in sorted(entries):
        yield pid, inc, iter_journal(path)


def worker_events(run_dir: str | Path) -> dict[int, list[dict[str, Any]]]:
    """Per-pid event streams in causal (incarnation, index) order."""
    out: dict[int, list[dict[str, Any]]] = {}
    for pid, _inc, events in iter_run_journals(run_dir):
        out.setdefault(pid, []).extend(events)
    return out
