"""Supervised parallel verification: a crash-tolerant worker pool.

Real verification runs are *batches* — Definition 4 quantifies over
attackers and testers, so checking a protocol zoo means dozens of
independent bounded jobs.  This module makes fleets of runs resilient
the way :mod:`repro.runtime.deadline` made single runs resilient: a
worker crash, OOM kill, or hang costs one job's increment of work, not
the batch.

Architecture:

* a :class:`WorkerPool` owns the *process mechanics*: a pool of
  ``multiprocessing`` *spawn*-context workers, each with its own duplex
  pipe (a killed worker can only corrupt its own channel), a watchdog
  thread that SIGKILLs workers over their RSS limit, past their hard
  deadline, or missing heartbeats, and a reaper that turns dead
  processes into events.  The pool is long-lived and reusable — the
  batch runner below and the verification service
  (:mod:`repro.service.server`) drive the same pool;
* each **worker** (:mod:`repro.runtime.worker`) executes one job at a
  time, streams heartbeats from a daemon thread, and autosaves
  periodic exploration checkpoints;
* :func:`run_suite` supplies the *batch policy* on top: a queue of
  :class:`Job`\\ s, exponential-backoff retries resuming from
  checkpoints, degradation to qualified fault verdicts when retries run
  out, and a crash-safe :class:`~repro.runtime.journal.Journal` so a
  killed *supervisor* resumes a batch by skipping journaled jobs.

Failure handling matrix:

========================  =============================================
observed failure          response
========================  =============================================
worker exits / signalled  retry with exponential backoff; ``explore``
                          jobs resume from the last autosaved
                          checkpoint
RSS over ``max_rss_mb``   SIGKILL ("oom"), then retry/resume as above
hard deadline exceeded    SIGKILL ("hang"), then retry/resume
missed heartbeats         SIGKILL ("stalled"), then retry/resume
job raises in-process     worker survives; same retry path
retries exhausted         degrade to a qualified partial verdict with
                          ``Exhaustion(reason="fault")`` — the batch
                          still completes
corrupt checkpoint        the retried attempt restarts from scratch
supervisor killed         ``resume=True`` re-runs only un-journaled
                          jobs
SIGINT/SIGTERM (drain)    stop dispatching, let in-flight jobs finish,
                          flush the journal; un-run jobs stay
                          un-journaled so ``--resume`` completes them
========================  =============================================
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Iterable, Optional, Sequence

from repro.core.errors import ReproError
from repro.obs.metrics import current_metrics
from repro.obs.stats import SuiteStats
from repro.obs.trace import trace_event
from repro.runtime.exhaustion import Exhaustion
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import Journal, journaled_results
from repro.runtime.worker import Job, JobError, worker_main

#: Outcome statuses.
OK = "ok"            #: the job produced a verdict (possibly qualified)
FAULT = "fault"      #: retries exhausted; degraded to a partial verdict
SKIPPED = "skipped"  #: already journaled; not re-run (``resume=True``)


class SupervisorError(ReproError):
    """The suite runner was misconfigured (duplicate ids, bad plan...)."""


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JobOutcome:
    """Final fate of one job in a supervised suite.

    ``status`` is ``"ok"`` (verdicted, possibly qualified), ``"fault"``
    (retry budget exhausted — ``result`` then carries an
    ``Exhaustion(reason="fault")`` record and whatever partial progress
    a checkpoint preserved) or ``"skipped"`` (verdicted by an earlier,
    journaled run).  ``events`` narrates crashes and retries.
    """

    job: Job
    status: str
    attempts: int
    elapsed: float
    result: Optional[dict] = None
    error: Optional[str] = None
    events: tuple[str, ...] = ()

    @property
    def violated(self) -> bool:
        """True when the verdict reports a broken property/attack."""
        return bool(self.result and self.result.get("violated"))

    @property
    def exact(self) -> bool:
        return bool(self.result and self.result.get("exact"))

    def describe(self) -> str:
        if self.status == FAULT:
            return f"{self.job.id}: FAULT after {self.attempts} attempt(s) ({self.error})"
        summary = (self.result or {}).get("summary", "no result")
        prefix = "skipped, " if self.status == SKIPPED else ""
        retries = f", {self.attempts} attempt(s)" if self.attempts > 1 else ""
        return f"{self.job.id}: {prefix}{summary}{retries}"


@dataclass(frozen=True)
class SuiteReport:
    """Everything a suite run produced, in job-submission order.

    ``drained`` marks a run stopped early by a drain request (SIGINT/
    SIGTERM): in-flight jobs were allowed to finish, but queued jobs
    never ran and are absent from ``outcomes`` — re-run the batch with
    ``resume=True`` to complete them.
    """

    outcomes: tuple[JobOutcome, ...]
    elapsed: float
    workers: int
    spawned: int = 0
    drained: bool = False
    submitted: int = 0

    def by_status(self, status: str) -> tuple[JobOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == status)

    @property
    def completed(self) -> bool:
        """Every submitted job is verdicted (ok, degraded, or skipped)."""
        if self.submitted and len(self.outcomes) < self.submitted:
            return False
        return all(o.status in (OK, FAULT, SKIPPED) for o in self.outcomes)

    @property
    def violations(self) -> tuple[JobOutcome, ...]:
        return tuple(o for o in self.outcomes if o.violated)

    def records(self) -> list[dict]:
        """The outcomes as journal-shaped result records."""
        return [
            {
                "job": o.job.id,
                "status": o.status,
                "attempts": o.attempts,
                "elapsed": round(o.elapsed, 4),
                "result": o.result,
                "error": o.error,
                "events": list(o.events),
            }
            for o in self.outcomes
        ]

    def stats(self) -> SuiteStats:
        """Aggregate per-job stat blocks into one :class:`SuiteStats`."""
        return SuiteStats.from_records(
            self.records(),
            wall_seconds=self.elapsed,
            workers=self.workers,
            spawned=self.spawned or None,
        )

    def describe(self) -> str:
        parts = [
            f"suite: {len(self.outcomes)} job(s) on {self.workers} worker(s) "
            f"in {self.elapsed:.2f}s"
        ]
        skipped = len(self.by_status(SKIPPED))
        faults = len(self.by_status(FAULT))
        if skipped:
            parts.append(f"skipped {skipped} journaled job(s)")
        if faults:
            parts.append(f"{faults} degraded to fault verdicts")
        if self.violations:
            parts.append(f"{len(self.violations)} property violation(s)")
        if self.drained:
            unrun = max(0, self.submitted - len(self.outcomes))
            parts.append(f"drained with {unrun} job(s) unrun (resume to complete)")
        return "; ".join(parts)


# ----------------------------------------------------------------------
# Pool bookkeeping
# ----------------------------------------------------------------------


@dataclass
class _Pending:
    """A job waiting to run (or running), with its retry state."""

    job: Job
    attempt: int = 1
    ready_at: float = 0.0
    started_first: Optional[float] = None
    events: list[str] = field(default_factory=list)


@dataclass
class _Worker:
    """Supervisor-side handle of one pool process.

    ``current`` is an opaque caller-owned payload (the suite runner
    stores a :class:`_Pending`, the service a ticket) — the pool only
    uses it to mean "busy" and hands it back on death.
    ``hard_deadline`` optionally overrides the pool-wide hard deadline
    for the job in flight (services dispatch per-request deadlines).
    """

    index: int
    proc: multiprocessing.process.BaseProcess
    conn: mp_connection.Connection
    current: Optional[object] = None
    started_at: float = 0.0
    last_beat: float = 0.0
    kill_reason: Optional[str] = None
    hard_deadline: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid


def _rss_mb(pid: Optional[int]) -> Optional[float]:
    """Resident set size of a process in MiB via /proc (None off-Linux)."""
    if pid is None:
        return None
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        import resource

        return int(fields[1]) * resource.getpagesize() / (1024 * 1024)
    except (OSError, IndexError, ValueError):
        return None


def _kill_reason(
    worker: _Worker,
    now: float,
    max_rss_mb: Optional[float],
    hard_deadline: Optional[float],
    heartbeat_grace: float,
    rss_of: Callable[[Optional[int]], Optional[float]] = _rss_mb,
) -> Optional[str]:
    """Why the watchdog should SIGKILL this worker now, or ``None``.

    Pure decision logic (injectable RSS reader) so the policy is unit
    testable without real processes.  Only busy workers are judged: an
    idle worker holds no job to protect, and a dead idle worker is
    reaped by the main loop anyway.
    """
    if worker.current is None:
        return None
    if max_rss_mb is not None:
        rss = rss_of(worker.pid)
        if rss is not None and rss > max_rss_mb:
            return f"oom: rss {rss:.0f}MiB > {max_rss_mb:.0f}MiB"
    if hard_deadline is not None and now - worker.started_at > hard_deadline:
        return f"hang: job exceeded hard deadline {hard_deadline:.1f}s"
    if now - worker.last_beat > heartbeat_grace:
        return f"stalled: no heartbeat for {now - worker.last_beat:.1f}s"
    return None


# ----------------------------------------------------------------------
# The reusable worker pool
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoolEvent:
    """One thing the pool observed during :meth:`WorkerPool.poll`.

    ``kind`` is ``"message"`` (a non-heartbeat worker message; see
    :func:`repro.runtime.worker.worker_main` for the schema) or
    ``"exit"`` (the process died — ``description`` says how, and
    ``current`` hands back whatever payload the worker was holding so
    the caller can retry or fail it).
    """

    kind: str
    worker: _Worker
    message: Optional[dict] = None
    description: Optional[str] = None

    @property
    def current(self) -> Optional[object]:
        """The dead worker's payload, read when the event is handled:
        a worker that sent its result and then died in the same poll is
        released by the caller's handling of that result first, so its
        exit hands back nothing to retry."""
        return self.worker.current if self.kind == "exit" else None


class WorkerPool:
    """A long-lived supervised pool of spawn-context worker processes.

    The pool owns *process mechanics only*: spawning and replacing
    workers, the heartbeat/RSS/deadline watchdog, SIGKILL, reaping, and
    the pipe plumbing.  What a job *means* — retries, degradation,
    journaling, client responses — stays with the caller, which is why
    both the one-shot batch runner (:func:`run_suite`) and the
    long-running verification service drive the same class.

    Args:
        size: target number of live workers (:meth:`ensure` tops up to
            this after crashes).
        heartbeat_interval: watchdog scan period and worker heartbeat
            period.
        heartbeat_grace: missed-heartbeat window before a SIGKILL.
        max_rss_mb: per-worker RSS kill limit (needs /proc).
        hard_deadline: pool-wide wall-clock kill limit per dispatched
            job; :meth:`dispatch` may override per job.
        max_spawns: lifetime spawn budget — ``None`` for unbounded
            (services replace workers forever), a number to break
            pathological crash loops (batch runs).
        selector: an event loop's selector; each live worker's pipe is
            registered in it for reading (data ``("worker", worker)``)
            from spawn until reap, so worker messages and deaths wake
            the loop.
    """

    def __init__(
        self,
        size: int,
        *,
        heartbeat_interval: float = 0.25,
        heartbeat_grace: float = 15.0,
        max_rss_mb: Optional[float] = None,
        hard_deadline: Optional[float] = None,
        max_spawns: Optional[int] = None,
        name: str = "repro-worker",
        selector: Optional[selectors.BaseSelector] = None,
    ) -> None:
        if size < 1:
            raise SupervisorError("need at least one worker")
        self.size = size
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = heartbeat_grace
        self.max_rss_mb = max_rss_mb
        self.hard_deadline = hard_deadline
        self.max_spawns = max_spawns
        self.name = name
        self.selector = selector
        self.spawned = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._pool: list[_Worker] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._next_index = 0
        self._watchdog = threading.Thread(
            target=self._watch, daemon=True, name=f"{name}-watchdog"
        )
        self._watchdog.start()

    # -- introspection -------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when the lifetime spawn budget is spent."""
        return self.max_spawns is not None and self.spawned >= self.max_spawns

    def workers(self) -> list[_Worker]:
        with self._lock:
            return list(self._pool)

    def idle(self) -> list[_Worker]:
        return [
            w for w in self.workers()
            if w.current is None and w.kill_reason is None
        ]

    def busy(self) -> list[_Worker]:
        return [w for w in self.workers() if w.current is not None]

    def alive_count(self) -> int:
        with self._lock:
            return len(self._pool)

    # -- lifecycle -----------------------------------------------------

    def spawn(self) -> Optional[_Worker]:
        """Start one worker process (``None`` when the budget is spent)."""
        if self.exhausted:
            return None
        self.spawned += 1
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._next_index, self.heartbeat_interval),
            name=f"{self.name}-{self._next_index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(
            index=self._next_index, proc=proc, conn=parent_conn,
            last_beat=time.monotonic(),
        )
        self._next_index += 1
        with self._lock:
            self._pool.append(worker)
        if self.selector is not None:
            self.selector.register(parent_conn, selectors.EVENT_READ, ("worker", worker))
        return worker

    def ensure(self, target: Optional[int] = None) -> None:
        """Spawn until ``min(target, size)`` workers are alive (or the
        spawn budget runs out)."""
        goal = self.size if target is None else min(target, self.size)
        while self.alive_count() < goal:
            if self.spawn() is None:
                break

    def dispatch(
        self,
        worker: _Worker,
        payload: dict,
        current: object,
        hard_deadline: Optional[float] = None,
    ) -> bool:
        """Send ``payload`` to an idle worker, marking it busy with
        ``current``.  Returns ``False`` (and condemns the worker) when
        the pipe is already broken — the caller should requeue."""
        now = time.monotonic()
        worker.current = current
        worker.started_at = now
        worker.last_beat = now
        worker.hard_deadline = hard_deadline
        try:
            worker.conn.send(payload)
            return True
        except (BrokenPipeError, OSError):
            worker.current = None
            worker.hard_deadline = None
            self.kill(worker, "dispatch pipe broken")
            return False

    def release(self, worker: _Worker) -> None:
        """Mark a worker idle again (its job was fully handled)."""
        worker.current = None
        worker.hard_deadline = None

    def kill(self, worker: _Worker, reason: str) -> None:
        """Condemn a worker: record why and SIGKILL the process."""
        if worker.kill_reason is None:
            worker.kill_reason = reason
        self._sigkill(worker)

    def poll(self, timeout: float = 0.1) -> list[PoolEvent]:
        """Reap dead workers and drain worker messages.

        Returns ``"exit"`` events for processes found dead (their
        in-flight payload attached) followed by ``"message"`` events for
        everything workers sent (heartbeats are absorbed into
        ``last_beat`` and not surfaced).  Waits up to ``timeout`` for
        traffic; pass ``0`` for a non-blocking sweep.
        """
        events: list[PoolEvent] = []
        with self._lock:
            dead = [w for w in self._pool if not w.proc.is_alive()]
        for worker in dead:
            events.append(self._reap(worker))
        with self._lock:
            conns = {w.conn: w for w in self._pool}
        if not conns:
            if timeout:
                time.sleep(timeout)
            return events
        for conn in mp_connection.wait(list(conns), timeout=timeout):
            worker = conns[conn]
            try:
                while conn.poll():
                    message = conn.recv()
                    worker.last_beat = time.monotonic()
                    if (
                        isinstance(message, dict)
                        and message.get("type") != "heartbeat"
                    ):
                        events.append(PoolEvent("message", worker, message=message))
            except (EOFError, OSError):
                # Pipe torn: the process is dead or dying.  Make it
                # unambiguous and reap it now — a pipe left at EOF would
                # keep waking the caller's event loop until a later sweep.
                self._sigkill(worker)
                events.append(self._reap(worker))
        return events

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop the watchdog and terminate every worker (politely, then
        with SIGKILL)."""
        self._stop.set()
        self._watchdog.join(timeout=timeout)
        with self._lock:
            leftovers = list(self._pool)
            self._pool.clear()
        for worker in leftovers:
            self._unwatch(worker)
            try:
                worker.conn.send({"type": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        for worker in leftovers:
            worker.proc.join(timeout=timeout)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=timeout)
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- internals -----------------------------------------------------

    def _reap(self, worker: _Worker) -> PoolEvent:
        """Remove a dead worker; returns its ``"exit"`` event."""
        with self._lock:
            if worker in self._pool:
                self._pool.remove(worker)
        self._unwatch(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=1.0)
        if worker.kill_reason is not None:
            description = f"worker killed ({worker.kill_reason})"
        else:
            code = worker.proc.exitcode
            if code is not None and code < 0:
                description = f"worker died on signal {-code}"
            else:
                description = f"worker exited with status {code}"
        return PoolEvent("exit", worker, description=description)

    def _unwatch(self, worker: _Worker) -> None:
        """Drop the worker's pipe from the selector (before it closes)."""
        if self.selector is not None:
            try:
                self.selector.unregister(worker.conn)
            except (KeyError, ValueError, OSError):
                pass

    def _sigkill(self, worker: _Worker) -> None:
        if worker.pid is not None:
            try:
                os.kill(worker.pid, getattr(signal, "SIGKILL", signal.SIGTERM))
            except (OSError, ProcessLookupError):
                pass

    def _watch(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            now = time.monotonic()
            with self._lock:
                snapshot = list(self._pool)
            for worker in snapshot:
                hard = (
                    worker.hard_deadline
                    if worker.hard_deadline is not None
                    else self.hard_deadline
                )
                reason = _kill_reason(
                    worker, now, self.max_rss_mb, hard, self.heartbeat_grace
                )
                if reason is not None and worker.kill_reason is None:
                    worker.kill_reason = reason
                    trace_event("suite.kill", worker=worker.index, reason=reason)
                    self._sigkill(worker)


# ----------------------------------------------------------------------
# Suite assembly helpers
# ----------------------------------------------------------------------


def zoo_jobs(
    max_states: int = 4000,
    max_depth: int = 40,
    protocols: Optional[Iterable[str]] = None,
    kinds: Sequence[str] = ("secrecy", "authentication"),
) -> list[Job]:
    """The standard batch over the protocol zoo: for every protocol,
    one job per requested property kind (session-key secrecy against an
    eavesdropper, payload authentication against an impersonator)."""
    from repro.protocols.zoo import ZOO

    names = sorted(protocols) if protocols is not None else sorted(ZOO)
    unknown = [name for name in names if name not in ZOO]
    if unknown:
        raise SupervisorError(f"unknown zoo protocols: {unknown}")
    return [
        Job(
            id=f"zoo:{name}:{kind}",
            kind=kind,
            target={"zoo": name},
            max_states=max_states,
            max_depth=max_depth,
        )
        for name in names
        for kind in kinds
    ]


def job_checkpoint_path(job: Job, directory: Optional[str]) -> Optional[str]:
    """Where a job's exploration autosaves live (``None``: no autosave)."""
    if job.kind != "explore" or directory is None:
        return None
    safe = "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in job.id)
    return os.path.join(directory, f"{safe}.ckpt")


def checkpointed_states(job: Job, directory: Optional[str]) -> int:
    """States preserved in a job's autosave (0 when none is loadable)."""
    path = job_checkpoint_path(job, directory)
    if path is None or not os.path.exists(path):
        return 0
    from repro.runtime.checkpoint import Checkpoint, CheckpointError

    try:
        return Checkpoint.load(path).graph.state_count()
    except CheckpointError:
        return 0


# ----------------------------------------------------------------------
# The batch runner
# ----------------------------------------------------------------------


def run_suite(
    jobs: Sequence[Job],
    workers: int = 2,
    retries: int = 2,
    job_deadline: Optional[float] = None,
    max_rss_mb: Optional[float] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    retry_faults: bool = False,
    checkpoint_dir: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_attempts: Sequence[int] = (1,),
    heartbeat_interval: float = 0.25,
    heartbeat_grace: float = 15.0,
    hang_grace: float = 5.0,
    backoff_base: float = 0.25,
    backoff_cap: float = 8.0,
    on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    drain: Optional[threading.Event] = None,
    verdict_store: Optional[str] = None,
) -> SuiteReport:
    """Run a batch of verification jobs under supervision.

    Args:
        jobs: the batch; ids must be unique (they key the journal and
            checkpoint files).
        workers: pool size (spawn-context processes).
        retries: extra attempts per job after its first.
        job_deadline: cooperative per-job wall-clock limit in seconds;
            the watchdog hard-kills at ``1.5 × deadline + hang_grace``
            as a backstop for non-polling hangs.
        max_rss_mb: per-worker RSS limit; exceeding it is treated as an
            OOM (SIGKILL + retry).  Needs /proc; silently inactive
            elsewhere.
        journal_path: stream verdicts to this crash-safe JSONL file.
        resume: skip jobs already verdicted in ``journal_path``.
        retry_faults: with ``resume``, re-run jobs whose journaled
            verdict was a degraded ``"fault"`` — the way to complete a
            batch whose earlier run shed or degraded jobs (service
            drain, crash-looped workers).
        checkpoint_dir: where ``explore`` autosaves live (default: a
            temporary directory, removed afterwards; pass a real path
            to keep checkpoints across supervisor restarts).
        fault_plan: test instrumentation — inject this
            :class:`FaultPlan` into workers for the attempts listed in
            ``fault_attempts`` (default: first attempt only, so a
            deterministic crash is recovered rather than repeated).
        on_outcome: called with each :class:`JobOutcome` as it is
            decided (progress reporting).
        drain: optional event; once set, no further jobs are
            dispatched — in-flight jobs finish (their verdicts are
            journaled), queued jobs stay un-journaled, and the report
            comes back ``drained=True``.  Wired to SIGINT/SIGTERM by
            the CLI (see :mod:`repro.runtime.lifecycle`).
        verdict_store: directory of a persistent cross-run
            :class:`~repro.service.store.VerdictStore`.  Jobs whose key
            has a stored verdict are served from it (``attempts=0``,
            journaled like a computed outcome so ``resume`` still
            works); budget-pure ``ok`` verdicts are written through.
            Degraded fault outcomes are never written — they stay
            retryable.

    Returns:
        A :class:`SuiteReport`; every submitted job appears exactly
        once, in submission order — except under ``drain``, where jobs
        that never started are absent.
    """
    jobs = list(jobs)
    ids = [job.id for job in jobs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise SupervisorError(f"duplicate job ids: {dupes}")
    if workers < 1:
        raise SupervisorError("need at least one worker")
    if resume and journal_path is None:
        raise SupervisorError("resume=True needs a journal_path")

    started = time.monotonic()
    done: dict[str, JobOutcome] = {}

    def decide(outcome: JobOutcome) -> None:
        done[outcome.job.id] = outcome
        trace_event(
            "suite.outcome",
            job=outcome.job.id,
            status=outcome.status,
            attempts=outcome.attempts,
        )
        if on_outcome is not None:
            on_outcome(outcome)

    # -- resume: skip journaled jobs ----------------------------------
    prior = journaled_results(journal_path) if resume else {}
    queue: list[_Pending] = []
    for job in jobs:
        record = prior.get(job.id)
        if record is not None and not (retry_faults and record.get("status") == FAULT):
            decide(JobOutcome(
                job=job,
                status=SKIPPED,
                attempts=int(record.get("attempts", 1)),
                elapsed=0.0,
                result=record.get("result"),
                error=record.get("error"),
            ))
        else:
            queue.append(_Pending(job))

    journal = (
        Journal(journal_path, fresh=not resume) if journal_path is not None else None
    )

    # -- verdict store: cache-aside before the pool, write-through after.
    # Fault-plan runs bypass it entirely: injected crashes are test
    # instrumentation that must actually run, and a warm store would
    # short-circuit them.
    store = None
    store_keys: dict[str, str] = {}
    store_hits = store_misses = 0
    witness_replayed = witness_failed = 0
    if verdict_store is not None and fault_plan is None:
        from repro.service.store import VerdictStore, store_key

        store = VerdictStore(verdict_store)
        for pending in list(queue):
            key = store_key(pending.job)
            if key is None:
                continue
            result = store.lookup(key)
            if result is None:
                store_misses += 1
                store_keys[pending.job.id] = key
                continue
            store_hits += 1
            queue.remove(pending)
            outcome = JobOutcome(
                job=pending.job,
                status=OK,
                attempts=0,  # no worker ever dispatched
                elapsed=0.0,
                result=result,
                events=("served from verdict store",),
            )
            if journal is not None:
                journal.append({
                    "type": "result",
                    "job": outcome.job.id,
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "elapsed": 0.0,
                    "result": outcome.result,
                    "error": None,
                    "events": list(outcome.events),
                })
            decide(outcome)

    scratch = checkpoint_dir
    scratch_owned = False
    if scratch is None and any(p.job.kind == "explore" for p in queue):
        scratch = tempfile.mkdtemp(prefix="repro-suite-")
        scratch_owned = True
    elif scratch is not None:
        os.makedirs(scratch, exist_ok=True)

    hard_deadline = (
        job_deadline * 1.5 + hang_grace if job_deadline is not None else None
    )
    plan_json = fault_plan.to_json() if fault_plan is not None else None
    # Every legitimate spawn is a pool slot or a post-crash replacement;
    # the cap only breaks pathological crash loops (e.g. workers dying
    # on import) instead of spinning forever.
    pool = WorkerPool(
        workers,
        heartbeat_interval=heartbeat_interval,
        heartbeat_grace=heartbeat_grace,
        max_rss_mb=max_rss_mb,
        hard_deadline=hard_deadline,
        max_spawns=workers + len(queue) * (retries + 1),
        name="repro-suite-worker",
    )

    def journal_outcome(outcome: JobOutcome) -> None:
        if journal is None:
            return
        journal.append({
            "type": "result",
            "job": outcome.job.id,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "elapsed": round(outcome.elapsed, 4),
            "result": outcome.result,
            "error": outcome.error,
            "events": list(outcome.events),
        })

    def degrade(pending: _Pending, now: float) -> None:
        """Retry budget exhausted: record a qualified partial verdict."""
        states = checkpointed_states(pending.job, scratch)
        detail = pending.events[-1] if pending.events else "worker lost"
        exhaustion = Exhaustion(
            ("fault",),
            states=states,
            elapsed=(now - pending.started_first) if pending.started_first else None,
            detail=detail,
        )
        outcome = JobOutcome(
            job=pending.job,
            status=FAULT,
            attempts=pending.attempt,
            elapsed=(now - pending.started_first) if pending.started_first else 0.0,
            result=exhaustion.verdict(pending.job.kind),
            error=detail,
            events=tuple(pending.events),
        )
        journal_outcome(outcome)
        decide(outcome)

    def handle_failure(pending: _Pending, description: str, now: float) -> None:
        """One attempt died (crash, kill, or in-worker error)."""
        nonlocal witness_failed
        if description.startswith("CertificationError"):
            # A violation whose witness would not replay: retried like
            # any fault, degraded (never reported as a clean verdict)
            # if certification keeps failing.
            witness_failed += 1
        pending.events.append(f"attempt {pending.attempt}: {description}")
        if pending.attempt >= retries + 1:
            degrade(pending, now)
            return
        delay = min(backoff_cap, backoff_base * (2 ** (pending.attempt - 1)))
        pending.attempt += 1
        pending.ready_at = now + delay
        queue.append(pending)

    def handle_message(worker: _Worker, message: dict, now: float) -> None:
        kind = message.get("type")
        pending = worker.current
        if (
            kind == "started"
            or pending is None
            or message.get("job") != pending.job.id
        ):
            return  # liveness chatter, or a job we already gave up on
        if kind == "result":
            nonlocal witness_replayed
            pool.release(worker)
            if isinstance(message.get("result"), dict) and message["result"].get(
                "certified"
            ):
                witness_replayed += 1
            outcome = JobOutcome(
                job=pending.job,
                status=OK,
                attempts=pending.attempt,
                elapsed=now - (pending.started_first or now),
                result=message["result"],
                events=tuple(pending.events),
            )
            journal_outcome(outcome)
            if store is not None:
                # Write-through (only ok outcomes ever reach here;
                # `put` additionally refuses non-budget-pure verdicts).
                # A store hiccup costs the cache, never the suite.
                try:
                    store.put(
                        store_keys.get(pending.job.id),
                        message["result"],
                        kind=pending.job.kind,
                    )
                except OSError:
                    pass
            decide(outcome)
        elif kind == "error":
            pool.release(worker)
            handle_failure(pending, message.get("error", "worker error"), now)

    def handle_events(events: list[PoolEvent]) -> None:
        now = time.monotonic()
        for event in events:
            if event.kind == "exit":
                if event.current is not None:
                    handle_failure(event.current, event.description or "worker lost", now)
            elif event.message is not None:
                handle_message(event.worker, event.message, now)

    drained = False
    try:
        while len(done) < len(jobs):
            now = time.monotonic()
            draining = drain is not None and drain.is_set()

            # Reap the dead first so their jobs re-enter the queue.
            handle_events(pool.poll(timeout=0))

            if draining:
                # Stop dispatching; once nothing is in flight, stop.
                if not pool.busy():
                    drained = True
                    break
            else:
                # Keep the pool sized to the remaining work.
                pool.ensure(len(jobs) - len(done))

                # Dispatch ready jobs to idle workers.
                for worker in pool.idle():
                    ready = [p for p in queue if p.ready_at <= now]
                    if not ready:
                        break
                    pending = ready[0]
                    queue.remove(pending)
                    if pending.started_first is None:
                        pending.started_first = now
                    sent = pool.dispatch(worker, {
                        "type": "job",
                        "job": pending.job.to_json(),
                        "attempt": pending.attempt,
                        "deadline": job_deadline,
                        "checkpoint": job_checkpoint_path(pending.job, scratch),
                        "fault_plan": (
                            plan_json
                            if plan_json is not None
                            and pending.attempt in fault_attempts
                            else None
                        ),
                    }, current=pending)
                    if sent:
                        trace_event(
                            "suite.dispatch",
                            job=pending.job.id,
                            worker=worker.index,
                            attempt=pending.attempt,
                        )
                    else:
                        queue.append(pending)  # the reaper will respawn

            if len(done) >= len(jobs):
                break

            if pool.alive_count() == 0 and pool.exhausted and queue:
                # Crash-looping pool: degrade whatever is left rather
                # than spinning forever.
                for pending in list(queue):
                    queue.remove(pending)
                    pending.events.append("worker pool exhausted its respawn budget")
                    degrade(pending, time.monotonic())
                continue

            # Drain messages (with a timeout so the loop stays live for
            # backoff expiry and death detection).
            handle_events(pool.poll(timeout=0.1))
    finally:
        pool.shutdown()
        if journal is not None:
            journal.close()
        if store is not None:
            store.close()
        if scratch_owned and scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    elapsed = time.monotonic() - started
    report = SuiteReport(
        outcomes=tuple(done[job.id] for job in jobs if job.id in done),
        elapsed=elapsed,
        workers=workers,
        spawned=pool.spawned,
        drained=drained,
        submitted=len(jobs),
    )
    metrics = current_metrics()
    if metrics is not None:
        metrics.inc("suite.jobs", len(jobs))
        metrics.inc("suite.spawns", pool.spawned)
        metrics.inc(
            "suite.retries", sum(max(0, o.attempts - 1) for o in report.outcomes)
        )
        metrics.inc("suite.faults", len(report.by_status(FAULT)))
        if witness_replayed:
            metrics.inc("witness.replayed", witness_replayed)
        if witness_failed:
            metrics.inc("witness.failed", witness_failed)
        if store is not None:
            metrics.inc("store.hit", store_hits)
            metrics.inc("store.miss", store_misses)
        metrics.set_gauge("suite.workers", workers)
        metrics.observe("suite.seconds", elapsed)
    return report
