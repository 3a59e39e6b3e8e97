"""Persistent cross-run verdict store (``--verdict-store DIR``).

Verdicts in this reproduction are pure functions of *(engine version,
canonical system, property kind, budget signature)*: the exploration and
analysis layers are deterministic, and the canonical state keys of
:mod:`repro.semantics.canonical` are alpha-invariant.  That makes whole
verdicts cacheable **across processes and across restarts** — which is
what this module does, lifting the in-memory replay speedup of the
hash-consed state cache (``BENCH_canonical.json``) to whole-job
granularity for repeat traffic against ``serve``/``cluster``/``suite``.

Layout — a directory of sharded append-only JSONL segments::

    store/
        seg-<pid>-<token>.jsonl     # one segment per writer process
        seg-compact-<token>.jsonl   # produced by compaction

Every writer owns exactly one segment, so concurrent shard processes
never interleave bytes within one file (Python's buffered appends are
not atomic); readers merge all segments.  Each segment follows the
:mod:`repro.runtime.journal` durability discipline:

* **appends are whole fsync'd lines** (:class:`~repro.runtime.journal.
  Journal`) — an acknowledged record survives a crash;
* **reads are incremental and paranoid** — per-segment byte-offset
  tailing in the style of :class:`~repro.runtime.journal.JournalIndex`:
  a torn final line is buffered until its newline arrives, a corrupt
  complete line is skipped, and a segment that shrank (torn-tail repair
  on reopen) or vanished (compaction) resets its tail.  The failure
  direction is always a **miss** (recompute the verdict), never a wrong
  hit and never an exception on the admission path;
* **the in-memory index holds offsets, not verdicts** — key → (offset,
  length, engine) per segment, so a long-running server's memory does
  not grow with verdict and witness sizes.  Every hit re-reads its line
  and re-verifies the checksum, so a line damaged or removed after it
  was indexed is a miss too.

Keying — ``store_key`` hashes ``(engine version, canonical system
signature, kind, budget signature)``.  System signatures are
content-addressed the way the worker interprets targets: zoo entries by
name (the builder is deterministic), inline/``.spi`` sources by the
**alpha-invariant canonical key** of the instantiated process (two
alpha-renamed sources share a store key iff their canonical keys
match), system files by content digest.  Budget signatures carry
``max_states``/``max_depth`` plus the *normalized* ``secret``/``sender``
(the worker's defaults applied, so ``secret=None`` and the default
``"KAB"`` key identically).  Anything that cannot be keyed (unreadable
file, parse error) degrades to ``None`` — a miss, never a fault.

Invalidation — records carry the engine version that computed them and
lookups only return records stamped with the *current*
``repro.__version__``.  There is no TTL: a verdict never goes stale by
sitting still, only by the engine changing.  ``compact()`` rewrites the
store to one segment, dropping superseded duplicates and stale-engine
records; ``invalidate()`` wipes it.

Storability — only *budget-pure* verdicts are written through:
``exhaustion`` absent, or every reason in
:data:`~repro.runtime.exhaustion.BUDGET_REASONS` (``states``/``depth``
are part of the key; ``deadline``/``cancelled``/``fault`` qualified
verdicts depend on wall-clock luck or transient faults and must be
recomputed, never replayed — see :func:`storable_result`).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import uuid
from typing import Mapping, NamedTuple, Optional

from repro import engine_version
from repro.core.errors import ReproError
from repro.runtime.exhaustion import BUDGET_REASONS
from repro.runtime.journal import Journal, LineTail
from repro.runtime.worker import Job

#: Store-record schema version (bumped on incompatible layout changes).
#: 2: the key's ``reduce: "full"`` axis means symmetry merging alone
#: (under 1 it also meant partial-order reduction), so version-1 keys
#: never match and their records are never served.
#: 3: env states are keyed on process and knowledge together, which
#: moves budget-truncated frontiers, so version-2 keys never match.
STORE_VERSION = 3

#: Segment filename prefix; everything else in the directory is ignored.
SEGMENT_PREFIX = "seg-"


class StoreError(ReproError):
    """The verdict store directory cannot be used."""


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return _digest(handle.read())


def _source_signature(source: str) -> str:
    """Alpha-invariant signature of an inline process source: the
    canonical key of the instantiated system, so two alpha-renamed
    spellings of one process share a store key iff their canonical keys
    match (the property the key-invariance tests pin)."""
    from repro.semantics.system import instantiate
    from repro.syntax.parser import parse_process

    key = instantiate(parse_process(source)).canonical_key()
    return f"src:{_digest(key.encode('utf-8'))}"


def system_signature(target: Mapping[str, str]) -> str:
    """Canonical signature of *what system* a job verifies.

    Mirrors how :mod:`repro.runtime.worker` interprets targets: zoo
    entries are named deterministic builders, sources are canonicalized,
    system files are content-addressed (same bytes, same system — a
    conservative approximation that can only cause misses, never wrong
    hits).
    """
    if "zoo" in target:
        return f"zoo:{target['zoo']}"
    if "source" in target:
        return _source_signature(target["source"])
    if "spi" in target:
        with open(target["spi"], "r", encoding="utf-8") as handle:
            return _source_signature(handle.read())
    if "sysfile" in target:
        return f"sysfile:{_file_digest(target['sysfile'])}"
    if {"impl", "spec"} <= set(target):
        return (
            f"check:{_file_digest(target['impl'])}:{_file_digest(target['spec'])}"
        )
    raise StoreError(f"target {sorted(target)!r} cannot be keyed")


def budget_signature(job: Job) -> dict:
    """The budget axes a verdict depends on, with the worker's defaults
    applied so equivalent spellings key identically (``secret=None`` on
    a zoo secrecy job *is* ``secret="KAB"``)."""
    from repro.semantics.reduction import reduction_mode

    secret = sender = None
    if job.kind == "secrecy":
        secret = job.secret or ("KAB" if "zoo" in job.target else None)
    elif job.kind == "authentication":
        sender = job.sender or "A"
    return {
        "max_states": job.max_states,
        "max_depth": job.max_depth,
        "secret": secret,
        "sender": sender,
        # A budget-truncated verdict can legitimately differ between
        # reduction modes (the horizon covers different states), so a
        # warm hit must never cross modes.
        "reduce": reduction_mode(),
    }


def store_key(job: Job, engine: Optional[str] = None) -> Optional[str]:
    """The verdict-store key for ``job``, or ``None`` when the job
    cannot be keyed (unreadable file, parse error...).

    ``None`` is a *miss*, never an error: key trouble on the admission
    path must cost one recompute, not a failed request.
    """
    try:
        material = {
            "v": STORE_VERSION,
            "engine": engine or engine_version(),
            "kind": job.kind,
            "system": system_signature(job.target),
            "budget": budget_signature(job),
        }
    except Exception:
        return None
    return _digest(
        json.dumps(material, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


def record_checksum(key: str, engine: str, result: Mapping) -> str:
    """Integrity stamp carried by every store record.

    The durability property the store promises is *miss, never wrong
    hit*: a flipped byte inside a record's ``result`` still parses as
    valid JSON, so structural validation alone cannot catch it.  The
    checksum binds ``(key, engine, result)`` together; readers drop any
    record whose stamp does not re-derive.
    """
    material = json.dumps(
        {"key": key, "engine": engine, "result": result},
        sort_keys=True,
        separators=(",", ":"),
    )
    return _digest(material.encode("utf-8"))[:16]


def storable_result(result: object) -> bool:
    """Whether a verdict is a pure function of its store key.

    Exact verdicts are.  Budget-qualified verdicts (``states``/``depth``
    exhaustion) are too — the budget is part of the key.  Verdicts
    qualified by ``deadline``/``cancelled``/``fault`` are **not**: they
    record what a particular run failed to finish, are retryable by
    design (see :class:`~repro.runtime.exhaustion.Exhaustion`), and
    persisting one would freeze a transient degradation into a
    permanent answer.
    """
    if not isinstance(result, Mapping):
        return False
    exhaustion = result.get("exhaustion")
    if exhaustion is None:
        return True
    if not isinstance(exhaustion, Mapping):
        return False
    reasons = exhaustion.get("reasons")
    if not isinstance(reasons, (list, tuple)) or not reasons:
        return False
    return set(reasons) <= BUDGET_REASONS


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------


class _Entry(NamedTuple):
    """Where a segment holds a key's record: the line's byte span and
    the engine that computed it — never the record itself."""

    offset: int
    length: int
    engine: str


def _parse_record(line: bytes) -> Optional[dict]:
    """A checksum-valid store record from one line, or ``None``."""
    try:
        record = json.loads(line.decode("utf-8", errors="replace"))
    except ValueError:
        return None  # damaged line: a cache miss, never a crash
    if (
        not isinstance(record, dict)
        or record.get("type") != "verdict"
        or not isinstance(record.get("key"), str)
        or not isinstance(record.get("result"), dict)
    ):
        return None
    if record.get("sum") != record_checksum(
        record["key"], str(record.get("engine")), record["result"]
    ):
        return None  # damaged payload: a miss, never a wrong hit
    return record


class _SegmentTail:
    """Incremental reader of one segment file: a
    :class:`~repro.runtime.journal.LineTail` whose lines are parsed as
    store records, skipping damaged ones.

    The index maps each key to its record's byte span, so memory grows
    with the number of keys, not with verdict sizes; :meth:`read`
    re-reads and re-verifies the line on every use.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.lines = LineTail(path)
        #: key -> where its latest record in this segment lies.
        self.index: dict[str, _Entry] = {}

    def refresh(self) -> None:
        reset, lines = self.lines.poll()
        if reset:
            self.index = {}
        for offset, line in lines:
            record = _parse_record(line)
            if record is not None:
                self.index[record["key"]] = _Entry(
                    offset, len(line), sys.intern(str(record.get("engine")))
                )

    def read(self, key: str, entry: _Entry) -> Optional[dict]:
        """The record at ``entry``, read from disk and checksum-verified
        now; ``None`` when the line has vanished or no longer verifies."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(entry.offset)
                line = handle.read(entry.length)
        except OSError:
            return None
        record = _parse_record(line)
        if record is None or record["key"] != key:
            return None
        return record


class VerdictStore:
    """Process-shared persistent verdict cache over ``directory``.

    One instance per process; any number of processes (cluster shards,
    suite runners, servers) may share the directory.  Reads merge every
    segment; writes go to this process's own segment, so writers never
    contend.  All methods fail towards *miss* — a store that cannot be
    read costs recomputes, never failed requests.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.engine = engine_version()
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as err:
            raise StoreError(f"cannot create verdict store {directory!r}: {err}")
        if not os.path.isdir(directory):
            raise StoreError(f"verdict store {directory!r} is not a directory")
        self._tails: dict[str, _SegmentTail] = {}
        self._writer: Optional[Journal] = None
        self._writer_path: Optional[str] = None

    # -- reading -------------------------------------------------------

    def _segments(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in names
            if name.startswith(SEGMENT_PREFIX) and name.endswith(".jsonl")
        )

    def refresh(self) -> None:
        """Absorb new segments and new bytes in known segments."""
        live = set(self._segments())
        for path in live:
            if path not in self._tails:
                self._tails[path] = _SegmentTail(path)
        for path, tail in list(self._tails.items()):
            tail.refresh()
            if tail.lines.missing and path not in live:
                del self._tails[path]

    def lookup(self, key: Optional[str]) -> Optional[dict]:
        """The stored verdict ``result`` for ``key`` under the current
        engine version, or ``None`` (miss).  Refreshes first."""
        record = self.record(key)
        return record["result"] if record is not None else None

    def record(self, key: Optional[str]) -> Optional[dict]:
        """Like :meth:`lookup` but returns the whole store record."""
        if key is None:
            return None
        self.refresh()
        for tail in self._tails.values():
            entry = tail.index.get(key)
            if entry is not None and entry.engine == self.engine:
                record = tail.read(key, entry)
                if record is not None:
                    return record
        return None

    def __contains__(self, key: str) -> bool:
        return self.record(key) is not None

    # -- writing -------------------------------------------------------

    def _ensure_writer(self) -> Journal:
        if self._writer is None:
            token = uuid.uuid4().hex[:8]
            self._writer_path = os.path.join(
                self.directory, f"{SEGMENT_PREFIX}{os.getpid()}-{token}.jsonl"
            )
            self._writer = Journal(self._writer_path, fresh=False)
        return self._writer

    def put(
        self,
        key: Optional[str],
        result: Mapping,
        kind: Optional[str] = None,
        protocol: Optional[str] = None,
    ) -> bool:
        """Write one verdict through (durably, fsync'd).

        Refuses non-:func:`storable_result` verdicts and un-keyed jobs
        (``key=None``); skips keys that already have a current-engine
        record (concurrent writers can still race one in — duplicates
        are harmless, compaction removes them).  Returns whether a
        record was appended.
        """
        if key is None or not storable_result(result):
            return False
        if self.record(key) is not None:
            return False
        record = {
            "type": "verdict",
            "key": key,
            "engine": self.engine,
            "time": time.time(),
            "result": dict(result),
            "sum": record_checksum(key, self.engine, dict(result)),
        }
        if kind is not None:
            record["kind"] = kind
        if protocol is not None:
            record["protocol"] = protocol
        self._ensure_writer().append(record)
        return True

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._writer_path = None

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- maintenance ---------------------------------------------------

    def stats(self) -> dict:
        """Occupancy snapshot (refreshes first)."""
        self.refresh()
        engines: dict[str, int] = {}
        keys: set[str] = set()
        records = 0
        for tail in self._tails.values():
            for key, entry in tail.index.items():
                records += 1
                engines[entry.engine] = engines.get(entry.engine, 0) + 1
                if entry.engine == self.engine:
                    keys.add(key)
        size = 0
        for path in self._segments():
            try:
                size += os.path.getsize(path)
            except OSError:
                pass
        return {
            "directory": self.directory,
            "engine": self.engine,
            "segments": len(self._tails),
            "bytes": size,
            "records": records,
            "keys": len(keys),
            "engines": engines,
        }

    def compact(self) -> dict:
        """Rewrite the store as one fresh segment: latest record per
        key, current engine only; stale-engine records and superseded
        duplicates are dropped.

        Crash-safe in the append-only way: the survivor segment is
        fully written and fsync'd *before* any old segment is unlinked;
        a crash in between leaves duplicates, which are harmless.
        Intended as a maintenance operation (``repro-spi store
        compact``) — a writer process that races it simply starts a new
        segment on its next write.

        Live-writer safe: a record another process appends to an open
        segment *after* our tail read would be silently lost if we
        unlinked that segment.  So after the survivor segment is
        durable, every old segment is re-tailed (late records are
        appended to the survivor segment too), and a segment that has
        grown past its final tailed offset by unlink time is left in
        place — the duplicate records it holds are harmless and the
        next compaction retires it.
        """
        before = self.stats()
        self.close()  # our own segment (if any) is compacted too
        old = self._segments()
        for path in old:
            if path not in self._tails:
                self._tails[path] = _SegmentTail(path)
        survivors: dict[str, dict] = {}

        def absorb() -> None:
            # Records are read back through the index: one that no
            # longer verifies is dropped, like any other damaged line.
            for tail in self._tails.values():
                tail.refresh()
                for key, entry in tail.index.items():
                    if entry.engine == self.engine and key not in survivors:
                        record = tail.read(key, entry)
                        if record is not None:
                            survivors[key] = record

        absorb()
        compact_path = os.path.join(
            self.directory, f"{SEGMENT_PREFIX}compact-{uuid.uuid4().hex[:8]}.jsonl"
        )
        written: set[str] = set()
        journal: Optional[Journal] = None
        try:
            if survivors:
                journal = Journal(compact_path, fresh=True)
                for key in sorted(survivors):
                    journal.append(survivors[key])
                written = set(survivors)
            # Final re-tail: catch records a live writer appended to an
            # old segment between our first read and now.
            absorb()
            late = set(survivors) - written
            if late:
                if journal is None:
                    journal = Journal(compact_path, fresh=True)
                for key in sorted(late):
                    journal.append(survivors[key])
        finally:
            if journal is not None:
                journal.close()
        kept = 0
        for path in old:
            if path == compact_path:
                continue
            tail = self._tails.get(path)
            try:
                size = os.path.getsize(path)
            except OSError:
                size = None  # already gone
            if size is not None and (tail is None or size > tail.lines.offset):
                kept += 1  # grew since the final tail read: do not unlink
                continue
            try:
                os.unlink(path)
            except OSError:
                pass
        self._tails = {}
        after = self.stats()
        return {
            "before": before,
            "after": after,
            "dropped_records": before["records"] - after["records"],
            "kept_segments": kept,
        }

    def verify(self, replay: bool = True, max_failures: int = 20) -> dict:
        """Integrity pass over every segment (``repro-spi store verify``).

        Unlike the read path — which silently *skips* anything damaged,
        because a miss is the right failure direction for a cache — this
        pass **reports** every complete line that is not a valid,
        checksummed store record.  For current-engine records whose
        result carries a ``witness``, the witness is additionally
        validated: checksum always, and (with ``replay=True``) a full
        independent replay against the unreduced, uncached transition
        relation.  A torn final line is counted separately — a
        crash-truncated tail is expected, not corruption.
        """
        self.refresh()
        report: dict = {
            "directory": self.directory,
            "engine": self.engine,
            "segments": 0,
            "records": 0,
            "stale_engine": 0,
            "torn": 0,
            "corrupt": 0,
            "witnesses": 0,
            "witness_ok": 0,
            "witness_failed": 0,
            "failures": [],
        }

        def fail(description: str) -> None:
            if len(report["failures"]) < max_failures:
                report["failures"].append(description)

        for path in self._segments():
            report["segments"] += 1
            name = os.path.basename(path)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError as err:
                report["corrupt"] += 1
                fail(f"{name}: unreadable: {err}")
                continue
            lines = data.split(b"\n")
            if lines.pop():  # bytes after the last newline
                report["torn"] += 1
            for lineno, line in enumerate(lines, start=1):
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8", errors="replace"))
                except ValueError:
                    report["corrupt"] += 1
                    fail(f"{name}:{lineno}: not valid JSON")
                    continue
                if (
                    not isinstance(record, dict)
                    or record.get("type") != "verdict"
                    or not isinstance(record.get("key"), str)
                    or not isinstance(record.get("result"), dict)
                ):
                    report["corrupt"] += 1
                    fail(f"{name}:{lineno}: not a store record")
                    continue
                if record.get("sum") != record_checksum(
                    record["key"], str(record.get("engine")), record["result"]
                ):
                    report["corrupt"] += 1
                    fail(f"{name}:{lineno}: record checksum mismatch")
                    continue
                report["records"] += 1
                if record.get("engine") != self.engine:
                    report["stale_engine"] += 1
                    continue
                witness = record["result"].get("witness")
                if witness is None:
                    continue
                report["witnesses"] += 1
                if replay:
                    from repro.semantics.replay import replay_witness

                    outcome = replay_witness(witness)
                    ok, reason = outcome.ok, outcome.reason
                else:
                    from repro.analysis.witness import Witness, WitnessError

                    try:
                        ok = Witness.from_json(witness).verify_checksum()
                        reason = None if ok else "witness checksum mismatch"
                    except WitnessError as err:
                        ok, reason = False, str(err)
                if ok:
                    report["witness_ok"] += 1
                else:
                    report["witness_failed"] += 1
                    fail(
                        f"{name}:{lineno}: witness for key "
                        f"{record['key'][:12]}…: {reason}"
                    )
        report["ok"] = report["corrupt"] == 0 and report["witness_failed"] == 0
        return report

    def invalidate(self) -> int:
        """Delete every segment; returns the number of records wiped.

        Rarely needed by hand — an engine-version bump already makes
        every stored record invisible to lookups.
        """
        count = self.stats()["records"]
        self.close()
        for path in self._segments():
            try:
                os.unlink(path)
            except OSError:
                pass
        self._tails = {}
        return count


__all__ = [
    "STORE_VERSION",
    "StoreError",
    "VerdictStore",
    "budget_signature",
    "engine_version",
    "record_checksum",
    "storable_result",
    "store_key",
    "system_signature",
]
