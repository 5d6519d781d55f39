"""Durable job state under ``.repro-serve/``.

One directory per job::

    <state-dir>/jobs/<job-id>/job.json       the JobRecord (atomic writes)
    <state-dir>/jobs/<job-id>/events.jsonl   the serve event stream
    <state-dir>/jobs/<job-id>/artifacts/     run outputs (traces, reports)

``job.json`` writes go through the same tmp-file + ``rename`` discipline
as the executor's :class:`~repro.harness.executor.ResultCache`: a crash
mid-write leaves either the old record or the new one, never a torn
file.  On restart :meth:`JobStore.recover` reloads every record —
*queued* jobs re-enter the queue exactly as submitted, while jobs that
were *running* when the server died are marked failed with an explicit
cause (their worker process is gone; silently re-running them could
double side effects), and so are queued jobs of a kind this release no
longer runs, so a recovered queue is honest about what was lost.
Finished jobs come back as they are, so a restarted server still lists
them and replays their streams; recovery reads no finished job's
``events.jsonl``, and of any other job's stream only the last line
(:meth:`JobStore.reopen_stream`).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, BinaryIO, TextIO

from .protocol import (
    JOB_KINDS,
    JOB_STATES,
    TERMINAL_STATES,
    TRANSITIONS,
    ProtocolError,
)

#: Default state directory, relative to the working directory.
DEFAULT_STATE_DIR = ".repro-serve"


@dataclass
class JobRecord:
    """Everything the server persists about one job."""

    id: str
    kind: str
    spec: dict[str, Any]
    priority: int = 0
    #: Submission order; ties on priority break FIFO by this number.
    seq: int = 0
    state: str = "queued"
    error: str | None = None
    #: The job body's JSON result payload (terminal states only).
    result: dict[str, Any] | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def advance(self, new_state: str) -> None:
        """Move the state machine; an illegal move is a server bug."""
        if new_state not in JOB_STATES:
            raise ProtocolError(f"unknown job state {new_state!r}")
        if new_state not in TRANSITIONS[self.state]:
            raise ProtocolError(
                f"illegal transition {self.state!r} -> {new_state!r} "
                f"for job {self.id}")
        self.state = new_state

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record (the ``GET /jobs/{id}`` shape)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - set of names
        return cls(**{k: v for k, v in data.items() if k in known})


def _id_number(name: str) -> int:
    """``j0042`` -> 42; any other name -> 0."""
    return int(name[1:]) if name.startswith("j") and name[1:].isdigit() \
        else 0


class JobStore:
    """Filesystem persistence for :class:`JobRecord` objects."""

    def __init__(self, root: str | Path = DEFAULT_STATE_DIR) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        #: Open ``events.jsonl`` handles of running jobs (see
        #: :meth:`append_event`).
        self._event_files: dict[str, TextIO] = {}
        #: The highest job number on disk or allocated; -1 until the
        #: jobs directory is first scanned (:meth:`next_id`).
        self._last_id = -1

    # -- paths ----------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        """One job's state directory."""
        return self.jobs_dir / job_id

    def record_path(self, job_id: str) -> Path:
        """Where one job's ``job.json`` record lives."""
        return self.job_dir(job_id) / "job.json"

    def events_path(self, job_id: str) -> Path:
        """Where one job's ``events.jsonl`` stream lives."""
        return self.job_dir(job_id) / "events.jsonl"

    def artifacts_dir(self, job_id: str) -> Path:
        """Where one job's run outputs (traces, reports) live."""
        return self.job_dir(job_id) / "artifacts"

    # -- records --------------------------------------------------------

    def next_id(self) -> str:
        """Allocate the next job id (``j0001``, ``j0002``, ...).

        Ids are dense and ordered so a restarted server continues the
        numbering instead of colliding with persisted jobs.  The jobs
        directory is scanned once per store (here or by
        :meth:`load_all`); after that the high-water mark lives in
        memory, so a submit costs the same at job 2,000 as at job 1.  An
        id whose directory appeared since (a record saved under an
        explicit id) is skipped.
        """
        if self._last_id < 0:
            self._scan()
        last = self._last_id
        while True:
            last += 1
            job_id = f"j{last:04d}"
            if not self.job_dir(job_id).exists():
                self._last_id = last
                return job_id

    def _scan(self) -> list[str]:
        """Every job directory name, sorted; sets the id high-water
        mark."""
        names = sorted(p.name for p in self.jobs_dir.iterdir()) \
            if self.jobs_dir.is_dir() else []
        self._last_id = max((_id_number(n) for n in names), default=0)
        return names

    def save(self, record: JobRecord) -> None:
        """Atomically persist one record (tmp file + rename)."""
        path = self.record_path(record.id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        # No ``indent``: it selects the pure-Python encoder, whose closures
        # are left in a reference cycle per call.
        tmp.write_text(json.dumps(record.as_dict(), sort_keys=True), "utf-8")
        tmp.replace(path)

    def load(self, job_id: str) -> JobRecord | None:
        """One persisted record, or None if absent/corrupt."""
        try:
            data = json.loads(self.record_path(job_id).read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or "id" not in data:
            return None
        return JobRecord.from_dict(data)

    def load_all(self) -> list[JobRecord]:
        """Every persisted record, in submission order."""
        records = []
        for name in self._scan():
            rec = self.load(name)
            if rec is not None:
                records.append(rec)
        return sorted(records, key=lambda r: r.seq)

    def append_event(self, job_id: str, line: str, *,
                     hold: bool = False) -> None:
        """Append one already-encoded event line to the job's stream.

        Every append is flushed before it returns.  ``hold`` keeps the
        file handle for the job's next append instead of closing it: the
        scheduler holds one handle for as long as a job is running and
        lets go of it with the job's last event.
        """
        fh = self._event_files.pop(job_id, None)
        if fh is None:
            path = self.events_path(job_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = path.open("a", encoding="utf-8")
        try:
            fh.write(line + "\n")
            fh.flush()
        except BaseException:
            fh.close()
            raise
        if hold:
            self._event_files[job_id] = fh
        else:
            fh.close()

    def read_event_lines(self, job_id: str) -> list[str]:
        """Every complete line of the job's stream, exactly as appended.

        A tail without its newline is a torn append from a crashed
        server and is left out.
        """
        path = self.events_path(job_id)
        lines: list[str] = []
        if not path.is_file():
            return lines
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                if not line.endswith("\n"):
                    break              # torn tail from a crashed append
                if line.strip():
                    lines.append(line[:-1])
        return lines

    def read_events(self, job_id: str) -> list[dict[str, Any]]:
        """Every event on the job's stream so far (skips torn tails)."""
        events: list[dict[str, Any]] = []
        for line in self.read_event_lines(job_id):
            try:
                events.append(json.loads(line))
            except ValueError:
                break                  # torn line a restart appended to
        return events

    # -- restart recovery ----------------------------------------------

    def recover(self) -> tuple[list[JobRecord], list[JobRecord],
                               list[JobRecord]]:
        """Reload persisted jobs; returns ``(requeue, failed_now, finished)``.

        Queued jobs come back verbatim (``requeue``); jobs persisted as
        *running* are transitioned to failed with an explicit cause and
        re-saved (``failed_now``) — their worker died with the server.
        So is a queued job whose kind this server no longer runs (a
        state directory written by an older release).  Jobs that were
        already terminal come back as they are (``finished``): their
        streams are closed, so recovery does not open them.  Reopen the
        stream of every other job (:meth:`reopen_stream`) before
        appending to it.
        """
        requeue: list[JobRecord] = []
        failed_now: list[JobRecord] = []
        finished: list[JobRecord] = []
        for rec in self.load_all():
            if rec.terminal:
                finished.append(rec)
                continue
            if rec.state == "running":
                rec.error = "server terminated while the job was running"
            elif rec.kind not in JOB_KINDS:
                rec.error = f"unknown job kind {rec.kind!r}"
            else:
                requeue.append(rec)
                continue
            rec.advance("failed")
            self.save(rec)
            failed_now.append(rec)
        return requeue, failed_now, finished

    def reopen_stream(self, job_id: str) -> int:
        """Ready a recovered job's stream for appends; returns the
        ``seq`` its next event takes.

        The stream is cut back to its last newline, so the next event
        does not land on the text a crash left mid-append, and the
        ``seq`` is one past that last complete line — the only line this
        reads.
        """
        try:
            with self.events_path(job_id).open("r+b") as fh:
                end, last = _last_line(fh)
                if end < fh.seek(0, os.SEEK_END):
                    fh.truncate(end)
        except FileNotFoundError:
            return 0
        if not last:
            return 0
        try:
            return int(json.loads(last)["seq"]) + 1
        except (ValueError, KeyError, TypeError):
            # Not an event this server wrote: count the lines instead.
            return len(self.read_event_lines(job_id))


#: Bytes read per step when a stream is scanned from its end.
_TAIL_BLOCK = 4096


def _last_line(fh: BinaryIO) -> tuple[int, bytes]:
    """``(end, line)`` of a stream opened in binary mode: the offset just
    past its last newline (0 if none) and the complete line that newline
    ends, without it.  Reads backwards from the end in blocks, so the
    cost is the length of the last two lines, not of the stream."""
    pos = fh.seek(0, os.SEEK_END)
    tail = b""
    while pos > 0:
        step = min(_TAIL_BLOCK, pos)
        pos -= step
        fh.seek(pos)
        tail = fh.read(step) + tail
        newline = tail.rfind(b"\n")
        if newline > 0 and tail.rfind(b"\n", 0, newline) >= 0:
            break
    newline = tail.rfind(b"\n")
    if newline < 0:
        return pos, b""
    start = tail.rfind(b"\n", 0, newline) + 1
    return pos + newline + 1, tail[start:newline]
