"""Consistent-hash sharding and local shard processes.

The cluster router partitions verification traffic across N backend
``repro-spi serve`` processes by *protocol key* (see
:func:`repro.service.protocol.protocol_key`): every request for one
protocol lands on the same shard, so that shard's circuit breakers,
checkpoint files, and journal accumulate exactly the history that
protocol needs — and a protocol that crashes workers takes down at most
its own shard's retry budget.

Two pieces live here, both deliberately free of routing policy:

* :class:`HashRing` — the classic consistent-hash ring with virtual
  nodes.  Hashing is ``sha256``-based, **not** Python's builtin
  ``hash`` (which is salted per process: a router restart must not
  reshuffle the whole keyspace).  When a shard is ejected only *its*
  arc of the ring remaps to the surviving successors; every other key
  keeps its owner — the property that makes failover cheap.
* :class:`LocalShard` — one supervised ``repro-spi serve`` child
  process: spawn (in its own session, so terminal signals reach the
  router alone and shard shutdown stays the router's decision; with a
  parent-death signal, so the shard never outlives its router),
  liveness polling, SIGTERM/SIGKILL, and the respawn-backoff
  bookkeeping the router's supervision loop drives.

Remote shards (pre-started servers registered by address) need neither:
they are a :class:`ShardSpec` with ``local=False`` and their lifecycle
belongs to whoever started them.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.core.errors import ReproError
from repro.runtime.supervisor import backoff_delay


class ShardError(ReproError):
    """A shard definition or spawn went wrong."""


#: ``prctl`` option number from ``<linux/prctl.h>``.
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> Optional[Callable[[], None]]:
    """A ``preexec_fn`` that makes the child die by SIGKILL when the
    thread that spawned it exits, or ``None`` off Linux.

    libc is loaded here, in the parent, so the child between ``fork``
    and ``exec`` only makes the one ``prctl`` call.  A parent that died
    before that call took effect would never send the signal, so the
    child then checks that its parent is still the spawner and
    otherwise kills itself.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    parent = os.getpid()

    def preexec() -> None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    return preexec


def _point(label: str) -> int:
    """A stable 64-bit ring coordinate for ``label``."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Each member contributes ``vnodes`` points on a 2**64 ring; a key is
    owned by the member of the first point clockwise from the key's own
    hash.  More vnodes smooth the load split at the cost of a larger
    sorted array — 64 keeps any member's share within a few percent of
    fair for small clusters.
    """

    def __init__(self, members: Iterable[str] = (), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ShardError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._members: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for member in members:
            self.add(member)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self._members)

    def add(self, member: str) -> None:
        if member in self._members:
            return
        self._members.add(member)
        self._rebuild()

    def remove(self, member: str) -> None:
        if member not in self._members:
            return
        self._members.discard(member)
        self._rebuild()

    def _rebuild(self) -> None:
        pairs = sorted(
            (_point(f"{member}#{v}"), member)
            for member in self._members
            for v in range(self.vnodes)
        )
        self._points = [p for p, _ in pairs]
        self._owners = [m for _, m in pairs]

    def owner(self, key: str, exclude: frozenset = frozenset()) -> Optional[str]:
        """The member owning ``key``, skipping ``exclude`` — or ``None``
        when no eligible member remains."""
        candidates = self.owners(key)
        for member in candidates:
            if member not in exclude:
                return member
        return None

    def owners(self, key: str) -> list[str]:
        """Every member in failover order for ``key``: the owner first,
        then each distinct successor clockwise around the ring."""
        if not self._points:
            return []
        start = bisect.bisect_left(self._points, _point(key))
        ordered: list[str] = []
        seen: set[str] = set()
        for step in range(len(self._points)):
            member = self._owners[(start + step) % len(self._points)]
            if member not in seen:
                seen.add(member)
                ordered.append(member)
                if len(ordered) == len(self._members):
                    break
        return ordered


@dataclass(frozen=True)
class ShardSpec:
    """One shard as the router sees it: a stable id, an address in
    :func:`repro.service.client.parse_address` form, and (local shards
    only) the journal the shard appends verdicts to — which is also the
    router's idempotency oracle during failover."""

    id: str
    address: Any
    journal_path: Optional[str] = None
    local: bool = True


@dataclass(eq=False)
class LocalShard:
    """One supervised local ``repro-spi serve`` child.

    The router's supervision loop owns the policy (when to respawn, how
    long to back off); this class owns the mechanics.  ``fail_streak``
    counts consecutive health failures *and* process deaths since the
    shard last answered a ping — it drives the respawn backoff and
    resets the moment the shard proves healthy again.
    """

    spec: ShardSpec
    argv: Sequence[str]
    log_path: str
    proc: Optional[subprocess.Popen] = None
    restarts: int = 0
    fail_streak: int = 0
    next_spawn_at: float = 0.0
    _log_handle: Any = field(default=None, repr=False)

    @property
    def socket_path(self) -> Optional[str]:
        family, target = self.spec.address
        return target if family == "unix" else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    @property
    def exit_code(self) -> Optional[int]:
        return self.proc.poll() if self.proc is not None else None

    def spawn(self) -> None:
        """Start (or restart) the serve child.

        A stale socket file from the previous incarnation is removed
        first so the child's bind cannot race a connect against a dead
        endpoint.  stdout/stderr append to the shard's log file; the
        child gets its own session so only the router signals it, and a
        parent-death signal so it dies with the router — even a router
        ``kill -9`` — instead of lingering as an orphan that a restarted
        router would duplicate on the same journal.  The signal follows
        the spawning *thread*, so spawn from the router's main loop.
        """
        if self.alive():
            return
        if self.socket_path is not None and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if self._log_handle is None or self._log_handle.closed:
            self._log_handle = open(self.log_path, "ab")
        if self.proc is not None:
            self.restarts += 1
        self.proc = subprocess.Popen(
            list(self.argv),
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
            start_new_session=True,
            preexec_fn=_die_with_parent(),
        )

    def terminate(self) -> None:
        if not self.alive():
            return
        try:
            self.proc.terminate()
        except OSError:
            pass

    def kill(self) -> None:
        if not self.alive():
            return
        try:
            self.proc.kill()
        except OSError:
            pass

    def wait(self, timeout: float) -> Optional[int]:
        """Best-effort wait; returns the exit code or ``None`` on
        timeout."""
        if self.proc is None:
            return None
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def close(self) -> None:
        if self._log_handle is not None and not self._log_handle.closed:
            self._log_handle.close()


def local_shard_argv(
    socket_path: str,
    journal_path: str,
    checkpoint_dir: str,
    workers: int,
    queue_limit: int,
    retries: int,
    job_deadline: Optional[float],
    breaker_threshold: int,
    breaker_cooldown: float,
    drain_grace: float,
    allow_fault_injection: bool,
    python: str = sys.executable,
    verdict_store: Optional[str] = None,
) -> list[str]:
    """The ``repro-spi serve`` command line for one local shard.

    Always passes ``--rebuild-breakers``: a respawned shard replays its
    journal so an open breaker survives the crash that killed the
    process (see :meth:`repro.service.breaker.BreakerBoard.rebuild`).
    Cluster shards also always get ``--dedupe``: the shard treats
    the request id as an idempotency key against its own journal and
    in-flight table, the backstop that keeps verdicts exactly-once when
    a client retry re-drives work the shard is still computing.

    ``verdict_store`` (``cluster --verdict-store``) is deliberately
    **one shared directory** for the whole fleet: each shard does its
    cache-aside lookups and write-throughs against the same store (the
    per-writer-segment layout of :class:`~repro.service.store.
    VerdictStore` makes that safe), so cluster-wide repeat traffic and
    failover re-drives become O(1) lookups
    regardless of which shard the ring picks.
    """
    argv = [
        python, "-m", "repro.cli", "serve",
        "--socket", socket_path,
        "--journal", journal_path,
        "--checkpoint-dir", checkpoint_dir,
        "--workers", str(workers),
        "--queue-limit", str(queue_limit),
        "--retries", str(retries),
        "--breaker-threshold", str(breaker_threshold),
        "--breaker-cooldown", str(breaker_cooldown),
        "--drain-grace", str(drain_grace),
        "--rebuild-breakers",
        "--dedupe",
    ]
    if verdict_store is not None:
        argv += ["--verdict-store", verdict_store]
    if job_deadline is not None:
        argv += ["--job-deadline", str(job_deadline)]
    if allow_fault_injection:
        argv.append("--allow-fault-injection")
    return argv


__all__ = [
    "HashRing",
    "LocalShard",
    "ShardError",
    "ShardSpec",
    "backoff_delay",
    "local_shard_argv",
]
