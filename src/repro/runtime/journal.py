"""Crash-safe append-only JSONL result journal.

The supervised suite runner streams one JSON record per verdicted job
into a journal file, so that a killed *supervisor* — not just a killed
worker — can resume a batch: on restart, every job with a journaled
record is skipped and only the un-verdicted remainder runs.

Durability model:

* **Appends are fsync'd.**  Each record is one ``json.dumps`` line
  written, flushed and ``os.fsync``'d before :meth:`Journal.append`
  returns; a record the caller saw acknowledged survives a crash.
* **Reloads tolerate torn tails.**  A crash mid-append can leave a
  partial final line (no terminating newline).  :func:`read_journal`
  silently drops exactly that — an *incomplete final line* — and
  returns every fully-written record before it.  Invalid *complete*
  lines are not a torn tail; they mean the file was damaged some other
  way and raise :class:`JournalError` rather than silently dropping
  history.
* **Reopens self-repair.**  Opening a :class:`Journal` for append first
  truncates a torn tail, so the next record starts on a fresh line
  instead of concatenating onto garbage.

Records are flat JSON objects; the journal itself imposes no schema
beyond "one object per line" (the suite runner keys on ``type`` and
``job`` fields, see :mod:`repro.runtime.supervisor`).
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

from repro.core.errors import ReproError


class JournalError(ReproError):
    """A journal file is damaged beyond torn-tail repair."""


def _trim_torn_tail(path: str) -> int:
    """Truncate an unterminated final line; returns the bytes dropped."""
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return 0
    with handle:
        data = handle.read()
        if not data or data.endswith(b"\n"):
            return 0
        cut = data.rfind(b"\n") + 1  # 0 when the whole file is one torn line
        handle.truncate(cut)
        return len(data) - cut


class Journal:
    """Append-only, fsync'd JSONL writer (also a context manager).

    ``fresh=True`` discards any existing file first — the caller is
    starting a new batch, not resuming one.
    """

    def __init__(self, path: str, fresh: bool = False, fsync: bool = True) -> None:
        self.path = path
        self._fsync = fsync
        if fresh:
            self.repaired_bytes = 0
            self._handle = open(path, "w", encoding="utf-8")
        else:
            self.repaired_bytes = _trim_torn_tail(path)
            self._handle = open(path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        """Durably append one record (flushed and fsync'd)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _complete_lines(text: str) -> Iterator[tuple[str, bool]]:
    """Yield ``(line, is_complete)`` — the final line is incomplete when
    the text does not end in a newline."""
    lines = text.split("\n")
    terminated = text.endswith("\n")
    for index, line in enumerate(lines):
        if not line:
            continue
        yield line, index < len(lines) - 1 or terminated


def read_journal(path: str, strict: bool = False) -> list[dict]:
    """Load every fully-written record from a journal.

    A missing file reads as an empty journal (nothing was verdicted).
    An incomplete final line — the signature of a crash mid-append — is
    skipped, unless ``strict`` is set.  A malformed *complete* line (or
    a non-object record) always raises :class:`JournalError`: that is
    corruption, not a torn tail.
    """
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except FileNotFoundError:
        return []
    records: list[dict] = []
    for number, (line, complete) in enumerate(_complete_lines(text), start=1):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"record is {type(record).__name__}, not an object")
        except ValueError as err:
            if not complete:
                if strict:
                    raise JournalError(f"{path}: torn final line {number}")
                continue
            raise JournalError(f"{path}: corrupt record on line {number}: {err}")
        records.append(record)
    return records


def journaled_results(path: str) -> dict[str, dict]:
    """Job id -> latest ``result`` record, for resume filtering."""
    results: dict[str, dict] = {}
    for record in read_journal(path):
        if record.get("type") == "result" and isinstance(record.get("job"), str):
            results[record["job"]] = record
    return results


class LineTail:
    """Byte-offset tailer over a JSONL file another process appends to.

    :meth:`poll` resumes from the offset of the previous poll and
    returns only the *complete* lines appended since.  It tolerates
    every state a ``kill -9`` of the writer can leave:

    * **torn final line** — buffered until its newline arrives (the
      writer fsyncs whole lines, but a reader can race mid-append); it
      is never returned as a line;
    * **truncation/replacement** — a file that shrank below the offset
      (torn-tail repair on reopen, a wholesale rewrite) or vanished is
      re-read from byte 0, and the poll reports the reset so the caller
      drops whatever it derived from the old contents.

    Parsing, and what to do with a line that does not parse, stays with
    the caller.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Bytes consumed so far, including a buffered torn tail.
        self.offset = 0
        self._tail = b""
        #: The last poll found no file.
        self.missing = False

    def poll(self) -> tuple[bool, list[tuple[int, bytes]]]:
        """``(reset, lines)``: whether the reader started over, and each
        new non-empty complete line (without its newline) paired with
        the byte offset where it starts."""
        reset = False
        try:
            with open(self.path, "rb") as handle:
                size = handle.seek(0, os.SEEK_END)
                if size < self.offset:
                    self._restart()
                    reset = True
                self.missing = False
                if size == self.offset:
                    return reset, []
                handle.seek(self.offset)
                data = handle.read()
        except FileNotFoundError:
            self._restart()
            self.missing = True
            return True, []
        position = self.offset - len(self._tail)
        self.offset += len(data)
        lines = (self._tail + data).split(b"\n")
        self._tail = lines.pop()  # b"" when the data ended on a newline
        complete = []
        for line in lines:
            if line:
                complete.append((position, line))
            position += len(line) + 1
        return reset, complete

    def _restart(self) -> None:
        self.offset = 0
        self._tail = b""


class JournalIndex:
    """Incremental job-id -> ``result``-record lookup over a *growing*
    journal another process is appending to.

    The cluster router uses this as its idempotency oracle: before
    re-driving a request whose shard died mid-flight, it asks the dead
    shard's journal whether the job already completed — a journaled
    verdict is returned to the client as-is instead of being recomputed
    (and re-journaled) on another shard.

    Unlike :func:`journaled_results`, a lookup does not re-read the
    whole file: :meth:`refresh` tails it with a :class:`LineTail`, which
    buffers a torn final line until its newline arrives and starts over
    when a shard restart's torn-tail repair shrinks the file.  A
    corrupt complete line is skipped, not fatal: for *dedupe* the safe
    failure direction is a miss (recompute) rather than an exception
    that wedges failover.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lines = LineTail(path)
        self._results: dict[str, dict] = {}
        self._claims: dict[str, dict] = {}

    def refresh(self) -> None:
        """Absorb any bytes appended since the last refresh."""
        reset, lines = self._lines.poll()
        if reset:
            self._results = {}
            self._claims = {}
        for _offset, line in lines:
            try:
                record = json.loads(line.decode("utf-8", errors="replace"))
            except ValueError:
                continue  # damaged line: a dedupe miss, never a crash
            if not isinstance(record, dict) or not isinstance(record.get("job"), str):
                continue
            if record.get("type") == "result":
                self._results[record["job"]] = record
            elif record.get("type") == "claim":
                self._claims[record["job"]] = record

    def result(self, job_id: str) -> Optional[dict]:
        """The journaled ``result`` record for ``job_id``, if any
        (refreshes first)."""
        self.refresh()
        return self._results.get(job_id)

    def completed(self, job_id: str) -> bool:
        """Has ``job_id`` a journaled verdict already?"""
        return self.result(job_id) is not None

    def records(self) -> dict[str, dict]:
        """Job id -> latest ``result`` record (refreshes first; the
        returned dict is a snapshot copy)."""
        self.refresh()
        return dict(self._results)

    def known_result(self, job_id: str) -> Optional[dict]:
        """The ``result`` record for ``job_id`` as of the last refresh
        (deliberately refresh-free, like :meth:`pending_claim` — for
        routing decisions that must be consistent with the claim
        table)."""
        return self._results.get(job_id)

    def pending_claim(self, job_id: str) -> Optional[dict]:
        """The latest ``claim`` record for ``job_id`` with no verdict
        yet — evidence that some shard incarnation *admitted* the job
        and may be computing it right now.

        Deliberately does **not** refresh: the routing hot path calls
        this immediately after a dedupe sweep already refreshed every
        shard index, and a stale miss only costs the shard-side
        coalescer one extra arrival.
        """
        if job_id in self._results:
            return None
        return self._claims.get(job_id)

    def __contains__(self, job_id: str) -> bool:
        return self.completed(job_id)

    def __len__(self) -> int:
        return len(self._results)
