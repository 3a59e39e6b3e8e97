"""The fault-tolerant cluster router behind ``repro-spi cluster``.

One router process owns a fleet of ``repro-spi serve`` shards and makes
them look like a single verification service that survives shard death:

* **sharding** — requests are routed by
  :func:`~repro.service.protocol.protocol_key` over a consistent-hash
  ring (:class:`~repro.service.shards.HashRing`), so each protocol's
  breaker history, checkpoints, and journal live on exactly one shard
  and a poisonous protocol is a one-shard problem;
* **shard supervision** — local shards are spawned as child processes
  and respawned with exponential backoff when they die; each respawn
  reuses the shard's journal, and the shard replays it at startup to
  rebuild its circuit-breaker state (``--rebuild-breakers``);
* **active health checks** — a :class:`~repro.service.health
  .HealthMonitor` pings every shard on an interval; consecutive
  failures (or a ``draining`` pong) open the shard's breaker and eject
  it from the ring, remapping only its arc to the survivors;
* **failover with exactly-once verdicts** — a request in flight on a
  dying shard is *re-driven*: the router first consults the dead
  shard's journal (:class:`~repro.runtime.journal.JournalIndex`) using
  the request's deterministic id as an idempotency key — a journaled
  verdict is returned as-is (``cached: true``), never recomputed and
  never double-journaled; only an un-verdicted request is resubmitted
  to the next owner on the ring;
* **graceful cluster drain** — SIGTERM closes the listeners, refuses
  new requests with ``draining``, waits (bounded) for in-flight
  forwards, SIGTERMs every local shard so each runs its own journal-
  flushing drain, and exits 0;
* **sole ownership of the shards** — every local shard is spawned with
  ``PR_SET_PDEATHSIG`` (see :class:`~repro.service.shards.LocalShard`),
  so a router that dies, even by ``kill -9``, takes its shards and
  their workers with it; a restarted router on the same ``--dir``
  respawns the fleet, and the shard journals keep every verdict
  exactly once across the restart.

Concurrency model: the router is I/O-bound glue, not a compute engine,
so it uses one blocking thread per client connection (requests are rare
and heavy — seconds of verification each) around a small locked core
(ring membership, in-flight registry).  The main thread runs the
supervision loop: accept, respawn, health sweep, drain.  That loop is
the only place shards are spawned, which matters because the kernel
sends the parent-death signal when the spawning *thread* exits, not
the process.
"""

from __future__ import annotations

import os
import random
import selectors
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.errors import ReproError
from repro.obs.metrics import Metrics, current_metrics
from repro.obs.trace import trace_event
from repro.runtime.atomic import atomic_write_json
from repro.runtime.journal import JournalIndex
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.framing import FramingError, recv_frame, send_frame
from repro.service.health import HealthMonitor
from repro.service.protocol import ProtocolError, Request, parse_request
from repro.service.shards import (
    HashRing,
    LocalShard,
    ShardSpec,
    backoff_delay,
    local_shard_argv,
)


def _cached_response(job_id: str, shard_id: str, record: dict) -> dict:
    """A client reply replayed from a journaled verdict record — ``ok``
    records answer OK, fault records answer DEGRADED, both marked
    ``cached`` so callers can tell a replay from a fresh computation."""
    status = protocol.OK if record.get("status") == "ok" else protocol.DEGRADED
    return protocol.response(
        job_id,
        status,
        result=record.get("result"),
        error=record.get("error"),
        shard=shard_id,
        cached=True,
    )


class ClusterError(ReproError):
    """The cluster was misconfigured (no shards, no listener...)."""


@dataclass(frozen=True)
class RouterConfig:
    """Everything ``repro-spi cluster`` can tune.

    ``dir`` is the cluster's working directory: shard sockets, journals,
    checkpoint dirs, log files, and the ``cluster.json`` discovery file
    all live under it, so one directory is the whole cluster's durable
    state.
    """

    dir: str
    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None
    #: Local shards to spawn and supervise.
    shards: int = 0
    #: Pre-started remote shard addresses (``host:port`` or socket
    #: paths); registered in the ring but not supervised.
    remote: tuple = ()
    workers_per_shard: int = 2
    queue_limit: int = 64
    retries: int = 1
    job_deadline: Optional[float] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: Passed to each local shard as its ``--drain-grace``.
    shard_drain_grace: float = 10.0
    #: How long the router's own drain waits for in-flight forwards
    #: before terminating shards anyway.
    drain_grace: float = 15.0
    health_interval: float = 1.0
    health_timeout: float = 2.0
    #: Consecutive health failures that eject a shard.
    health_failures: int = 2
    #: Seconds an ejected shard waits before its recovery probe.
    health_cooldown: float = 2.0
    respawn_base: float = 0.25
    respawn_cap: float = 8.0
    vnodes: int = 64
    #: Per-forwarded-request socket timeout (a shard that neither
    #: replies nor dies within this is treated as failed).
    forward_timeout: float = 600.0
    allow_fault_injection: bool = False
    tick: float = 0.05
    python: str = sys.executable
    #: One shared persistent :class:`~repro.service.store.VerdictStore`
    #: directory passed to every local shard (``cluster
    #: --verdict-store``): repeat traffic and failover re-drives become
    #: store hits on whichever shard the ring picks, across router
    #: restarts.
    verdict_store: Optional[str] = None


@dataclass(eq=False)
class _Shard:
    """Router-side view of one shard: spec, optional local process,
    journal index (the idempotency oracle), in-flight request ids."""

    spec: ShardSpec
    process: Optional[LocalShard] = None
    journal: Optional[JournalIndex] = None
    inflight: set = field(default_factory=set)
    exit_handled: bool = False
    #: Serializes JournalIndex access (several forwarding threads can
    #: dedupe against the same journal at once; the index's offset
    #: bookkeeping is not re-entrant).
    journal_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def id(self) -> str:
        return self.spec.id

    def journaled(self, job_id: str) -> Optional[dict]:
        """Thread-safe journal lookup."""
        if self.journal is None:
            return None
        with self.journal_lock:
            return self.journal.result(job_id)

    def pending_claim(self, job_id: str) -> Optional[dict]:
        """Thread-safe unresolved-claim lookup.  Deliberately no
        refresh: every routing decision is preceded by a dedupe sweep
        (:meth:`journaled`) that already tailed this journal."""
        if self.journal is None:
            return None
        with self.journal_lock:
            return self.journal.pending_claim(job_id)

    def known_result(self, job_id: str) -> Optional[dict]:
        """Thread-safe refresh-free result lookup (see
        :meth:`pending_claim`)."""
        if self.journal is None:
            return None
        with self.journal_lock:
            return self.journal.known_result(job_id)

    def printable_address(self) -> str:
        family, target = self.spec.address
        return target if family == "unix" else f"{target[0]}:{target[1]}"


class Router:
    """See the module docstring; constructed from a
    :class:`RouterConfig`, driven by :meth:`serve_forever`."""

    def __init__(self, config: RouterConfig) -> None:
        if config.socket_path is None and config.port is None:
            raise ClusterError("cluster needs a unix socket path and/or a TCP port")
        if config.shards < 1 and not config.remote:
            raise ClusterError("cluster needs local shards (--shards) or --remote")
        self.config = config
        self.metrics = Metrics()
        self._rng = random.Random()
        self.health = HealthMonitor(
            interval=config.health_interval,
            timeout=config.health_timeout,
            threshold=config.health_failures,
            cooldown=config.health_cooldown,
            jitter=self._rng.random,
        )
        self._lock = threading.RLock()
        self._shards: dict[str, _Shard] = {}
        self._ring = HashRing(vnodes=config.vnodes)
        self._build_shards()
        self._selector = selectors.DefaultSelector()
        self._listeners: list[socket.socket] = []
        self._conns: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._drain = threading.Event()
        self._draining = False
        self._started_at = time.monotonic()
        self._bound = False
        self.tcp_address: Optional[tuple[str, int]] = None

    # -- construction --------------------------------------------------

    def _make_local_shard(self, shard_id: str) -> _Shard:
        """One local shard wired by directory convention — the same
        convention on every start, which is what lets a router restarted
        on the same ``--dir`` find the journals of the fleet it lost."""
        cfg = self.config
        sock = os.path.join(cfg.dir, f"{shard_id}.sock")
        journal = os.path.join(cfg.dir, f"{shard_id}.jsonl")
        checkpoints = os.path.join(cfg.dir, f"{shard_id}-checkpoints")
        spec = ShardSpec(
            id=shard_id, address=("unix", sock), journal_path=journal,
            local=True,
        )
        argv = local_shard_argv(
            socket_path=sock,
            journal_path=journal,
            checkpoint_dir=checkpoints,
            workers=cfg.workers_per_shard,
            queue_limit=cfg.queue_limit,
            retries=cfg.retries,
            job_deadline=cfg.job_deadline,
            breaker_threshold=cfg.breaker_threshold,
            breaker_cooldown=cfg.breaker_cooldown,
            drain_grace=cfg.shard_drain_grace,
            allow_fault_injection=cfg.allow_fault_injection,
            python=cfg.python,
            verdict_store=cfg.verdict_store,
        )
        return _Shard(
            spec=spec,
            process=LocalShard(
                spec=spec, argv=argv,
                log_path=os.path.join(cfg.dir, f"{shard_id}.log"),
            ),
            journal=JournalIndex(journal),
        )

    def _make_remote_shard(self, shard_id: str, address: Any) -> _Shard:
        from repro.service.client import parse_address

        spec = ShardSpec(
            id=shard_id,
            address=parse_address(address) if isinstance(address, str) else address,
            local=False,
        )
        return _Shard(spec=spec)

    def _build_shards(self) -> None:
        cfg = self.config
        os.makedirs(cfg.dir, exist_ok=True)
        for index in range(cfg.shards):
            shard_id = f"shard-{index:02d}"
            self._shards[shard_id] = self._make_local_shard(shard_id)
        for index, address in enumerate(cfg.remote):
            shard_id = f"remote-{index:02d}"
            self._shards[shard_id] = self._make_remote_shard(shard_id, address)
        for shard in self._shards.values():
            self.health.watch(shard.id, shard.spec.address, launched=shard.spec.local)
        self._rebuild_ring()

    def _rebuild_ring(self) -> None:
        with self._lock:
            self._ring = HashRing(self.health.healthy_ids(), vnodes=self.config.vnodes)

    # -- lifecycle -----------------------------------------------------

    def bind(self) -> None:
        if self._bound:
            return
        cfg = self.config
        if cfg.socket_path is not None:
            if os.path.exists(cfg.socket_path):
                os.unlink(cfg.socket_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(cfg.socket_path)
            self._add_listener(listener)
        if cfg.port is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((cfg.host or "127.0.0.1", cfg.port))
            self.tcp_address = listener.getsockname()[:2]
            self._add_listener(listener)
        self._bound = True

    def _add_listener(self, listener: socket.socket) -> None:
        listener.listen(64)
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, None)
        self._listeners.append(listener)

    def spawn_shards(self) -> None:
        """Start every local shard (idempotent)."""
        now = time.monotonic()
        for shard in self._shards.values():
            if shard.process is not None and not shard.process.alive():
                shard.process.spawn()
                shard.exit_handled = False
                self.metrics.inc("cluster.spawns")
                trace_event("cluster.spawn", shard=shard.id, pid=shard.process.pid)
                shard.process.next_spawn_at = now

    def request_drain(self) -> None:
        """Ask the cluster to drain (thread- and signal-safe)."""
        self._drain.set()

    @property
    def draining(self) -> bool:
        return self._draining or self._drain.is_set()

    def _warm_journals(self) -> None:
        """Prime every shard's JournalIndex.  For a router restarted on
        the same ``--dir`` this *is* the state rebuild: the union of the
        journals is the completed-work picture, and anything a retrying
        client re-drives that no journal knows genuinely never
        finished."""
        for shard in self._shards.values():
            if shard.journal is not None:
                with shard.journal_lock:
                    shard.journal.refresh()

    def serve_forever(self) -> int:
        """Run until drained; returns the process exit status (``0``)."""
        self.bind()
        self.spawn_shards()
        self._warm_journals()
        self.write_discovery()
        try:
            while True:
                if self._drain.is_set():
                    break
                self._accept_ready(self.config.tick)
                now = time.monotonic()
                self._supervise(now)
                self._sweep_health(now)
                with self._lock:
                    self.metrics.set_gauge(
                        "cluster.inflight",
                        sum(len(s.inflight) for s in self._shards.values()),
                    )
                    self.metrics.set_gauge("cluster.live_shards", len(self._ring))
            self._drain_cluster()
        finally:
            self._shutdown()
        return 0

    # -- accept / per-connection handling ------------------------------

    def _accept_ready(self, timeout: float) -> None:
        for key, _ in self._selector.select(timeout):
            listener = key.fileobj
            try:
                conn, _addr = listener.accept()
            except OSError:
                continue
            conn.settimeout(self.config.forward_timeout)
            with self._lock:
                self._conns.add(conn)
            self.metrics.inc("cluster.connections")
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except (FramingError, OSError):
                    break
                if frame is None:
                    break
                reply = self.handle_frame(frame)
                try:
                    send_frame(conn, reply)
                except (FramingError, OSError):
                    break
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def handle_frame(self, frame: dict) -> dict:
        """Answer one request frame (control inline, the rest routed)."""
        self.metrics.inc("cluster.requests")
        try:
            request = parse_request(frame)
        except ProtocolError as err:
            self.metrics.inc("cluster.errors")
            rid = frame.get("id") if isinstance(frame, dict) else None
            return protocol.response(rid, protocol.ERROR, error=str(err))
        if request.kind == "ping":
            with self._lock:
                live = len(self._ring)
            return protocol.response(
                request.id, protocol.PONG, server="repro-spi-cluster",
                pid=os.getpid(), draining=self.draining, shards=live,
            )
        if request.kind == "status":
            return protocol.response(request.id, protocol.STATUS, **self.status())
        if self.draining:
            return protocol.response(
                request.id, protocol.DRAINING, error="cluster is draining"
            )
        return self._route(frame, request)

    # -- routing & failover --------------------------------------------

    def _route(self, frame: dict, request: Request) -> dict:
        key = protocol.protocol_key(request.target)
        # Forward a normalized copy: the id is pinned to the parsed
        # (deterministic) id so the shard journals under the same key
        # the router dedupes on during failover.
        outbound = dict(frame)
        outbound["id"] = request.id
        # Pre-forward idempotency check across *every* journal: a router
        # restarted on the same --dir — or one whose client retried
        # after a dropped reply — must serve the verdict the fleet
        # already computed, not compute it again.  Only ``ok``
        # verdicts dedupe here; a journaled *fault* stays retryable.
        cached = self._dedupe_lookup(request.id)
        if cached is not None:
            self.metrics.inc("cluster.dedupe_hits")
            trace_event("cluster.dedupe", job=request.id, where="admission")
            return cached
        tried: set[str] = set()
        claim_wait_until: Optional[float] = None
        while True:
            shard = self._pick(key, tried, job_id=request.id)
            if shard is None:
                self.metrics.inc("cluster.no_shard")
                return protocol.response(
                    request.id,
                    protocol.OVERLOADED,
                    error="no live shard owns this key (cluster warming up "
                    "or every owner is ejected)",
                    retry_after=round(self.config.health_interval * 2, 3),
                )
            # The pick may have landed on a shard whose journal already
            # holds an ``ok`` verdict for this id (a claim that resolved
            # mid-route): serve it straight from the journal instead of
            # asking the shard to answer ``cached`` over a faulty wire.
            # Fault records deliberately do NOT short-circuit — they
            # stay retryable, and the forward below is that retry.
            record = shard.known_result(request.id)
            if record is not None and record.get("status") == "ok":
                self.metrics.inc("cluster.dedupe_hits")
                trace_event("cluster.dedupe", job=request.id, shard=shard.id)
                return _cached_response(request.id, shard.id, record)
            with self._lock:
                shard.inflight.add(request.id)
            self.metrics.inc("cluster.forwarded")
            trace_event("cluster.route", job=request.id, shard=shard.id)
            try:
                reply = self._forward(shard, frame=outbound, request=request)
            except (ServiceUnavailable, FramingError, OSError) as err:
                detail = f"{type(err).__name__}: {err}"
            else:
                reply.setdefault("shard", shard.id)
                return reply
            finally:
                with self._lock:
                    shard.inflight.discard(request.id)
            # The shard failed mid-flight: treat it as health evidence,
            # then fail over with journal-keyed idempotency.
            tried.add(shard.id)
            self.metrics.inc("cluster.failovers")
            trace_event(
                "cluster.failover", job=request.id, shard=shard.id, detail=detail
            )
            if self.health.note_failure(shard.id, detail):
                self.metrics.inc("cluster.ejected")
                self._rebuild_ring()
            cached = self._fleet_verdict(request.id)
            if cached is not None:
                self.metrics.inc("cluster.dedupe_hits")
                trace_event("cluster.dedupe", job=request.id, shard=shard.id)
                return cached
            if self.draining:
                return protocol.response(
                    request.id, protocol.DRAINING, error="cluster is draining"
                )
            # Exactly-once guard: a failed *transport* is not a failed
            # *computation*.  If this shard holds an unresolved claim
            # for the id and is still breathing, its verdict is coming
            # — failing over now would compute the job a second time on
            # another shard.  Wait and re-drive the same shard (each
            # retry is both a journal poll and a fresh chance at a
            # clean reply) until the claim resolves, the shard dies, or
            # the patience budget runs out.
            if shard.pending_claim(request.id) is not None and self._breathing(shard):
                now = time.monotonic()
                if claim_wait_until is None:
                    claim_wait_until = now + self.config.forward_timeout
                if now < claim_wait_until:
                    tried.discard(shard.id)
                    self.metrics.inc("cluster.claim_waits")
                    trace_event(
                        "cluster.claim_wait", job=request.id, shard=shard.id
                    )
                    time.sleep(self.config.tick)
                    continue

    def _pick(
        self, key: str, tried: set, job_id: Optional[str] = None
    ) -> Optional[_Shard]:
        with self._lock:
            if job_id is not None:
                # Sticky duplicate routing: if some shard is *currently*
                # computing this id (a concurrent duplicate), pin to it —
                # the shard-side coalescer turns the duplicate into a
                # second reply to the same single computation.
                for shard in self._shards.values():
                    if shard.id not in tried and job_id in shard.inflight:
                        return shard
                # A shard whose (already-refreshed) index holds a
                # verdict for this id is where the job lives: an ``ok``
                # record is served from its journal, a fault record is
                # retried *there* so its journal stays the single
                # history for the id.  This closes the race where a
                # claim resolves *between* the caller's dedupe sweep
                # and this scan: the freshly-resolved claim must route
                # to the shard that resolved it, never to a ring
                # successor that would compute the job a second time.
                for shard in self._shards.values():
                    if shard.id not in tried and shard.known_result(job_id):
                        return shard
                # Journal-claim pinning: the in-flight books are empty
                # for an id whose forward failed in *transport* — the
                # claim-wait in _route re-drives it, and a client retry
                # can arrive meanwhile — yet the shard may still be
                # computing it.  That shard is often ejected by the
                # very failure, so the ring would send the re-drive to
                # a successor that computes the job a second time.
                # Shards journal a ``claim`` at admission (see
                # server._handle_frame), so an unresolved claim marks
                # the shard that owns the computation: route the
                # duplicate there and let its coalescer absorb it.
                # Newest claim wins — an older unresolved claim is the
                # corpse of an incarnation that died mid-compute, not a
                # live computation.
                best: Optional[tuple[float, str, _Shard]] = None
                for shard in self._shards.values():
                    if shard.id in tried:
                        continue
                    claim = shard.pending_claim(job_id)
                    if claim is None:
                        continue
                    rank = (float(claim.get("time") or 0.0), shard.id)
                    if best is None or rank > (best[0], best[1]):
                        best = (rank[0], rank[1], shard)
                if best is not None:
                    trace_event(
                        "cluster.claim_pin", job=job_id, shard=best[2].id
                    )
                    return best[2]
            owner = self._ring.owner(key, exclude=frozenset(tried))
            return self._shards[owner] if owner is not None else None

    def _breathing(self, shard: _Shard) -> bool:
        """Whether a claim-holding shard can still deliver its verdict:
        local shards answer by process liveness, remote ones by health
        standing (the only liveness signal the router has for them)."""
        if shard.process is not None:
            return shard.process.alive()
        return shard.id in self.health.healthy_ids()

    def _forward(self, shard: _Shard, frame: dict, request: Request) -> dict:
        timeout = self.config.forward_timeout
        if request.deadline is not None:
            # No point outliving the shard's own budget by much.
            timeout = min(timeout, request.deadline + 30.0)
        client = ServiceClient(shard.spec.address, timeout=timeout, retries=0)
        return client.call(dict(frame))

    def _dedupe_lookup(self, job_id: str) -> Optional[dict]:
        """Scan every shard's journal for an ``ok`` verdict under
        ``job_id``.  Lookups are incremental (byte-offset tailing), so
        this is a stat per shard, not a re-read."""
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            record = shard.journaled(job_id)
            if record is not None and record.get("status") == "ok":
                return protocol.response(
                    job_id,
                    protocol.OK,
                    result=record.get("result"),
                    shard=shard.id,
                    cached=True,
                )
        return None

    def _fleet_verdict(self, job_id: str) -> Optional[dict]:
        """The idempotency lookup after a failed forward: a verdict
        *any* shard already journaled is the answer — re-driving it
        would recompute (and double-journal) completed work.  The sweep
        covers the whole fleet, not just the shard that failed, because
        the computation can land somewhere other than the hop that lost
        the reply: a connection can drop after the shard journaled the
        answer, and the claim-wait re-drive may then fail on a
        *different* connection."""
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            record = shard.journaled(job_id)
            if record is not None:
                return _cached_response(job_id, shard.id, record)
        return None

    # -- supervision ---------------------------------------------------

    def _supervise(self, now: float) -> None:
        """Notice dead local shards, eject them, respawn with backoff."""
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            process = shard.process
            if process is None:
                continue
            if process.alive():
                continue
            if not shard.exit_handled:
                shard.exit_handled = True
                process.fail_streak += 1
                detail = f"shard process exited (status {process.exit_code})"
                self.metrics.inc("cluster.shard_deaths")
                trace_event(
                    "cluster.shard_exit", shard=shard.id, status=process.exit_code
                )
                if self.health.eject(shard.id, detail):
                    self.metrics.inc("cluster.ejected")
                    self._rebuild_ring()
                # Full jitter: when a machine-wide blip kills the whole
                # fleet at once, the respawns (and the health-probe
                # bursts that follow each) must spread out, not march in
                # lockstep against whatever resource just recovered.
                process.next_spawn_at = now + backoff_delay(
                    self.config.respawn_base,
                    self.config.respawn_cap,
                    process.fail_streak,
                    rng=self._rng.random,
                )
            if now >= process.next_spawn_at:
                process.spawn()
                shard.exit_handled = False
                self.metrics.inc("cluster.respawns")
                trace_event("cluster.respawn", shard=shard.id, pid=process.pid)
                # cluster.json names the live pids: a router kill -9
                # check reads them to prove no shard outlived it.
                self.write_discovery()

    def _sweep_health(self, now: float) -> None:
        transitions = self.health.sweep(now)
        if not transitions:
            return
        for shard_id, what in transitions:
            shard = self._shards.get(shard_id)
            self.metrics.inc(f"cluster.{what}")
            trace_event(f"cluster.{what}", shard=shard_id)
            if (
                what == "recovered"
                and shard is not None
                and shard.process is not None
            ):
                shard.process.fail_streak = 0
        self._rebuild_ring()
        self.write_discovery()

    # -- observability -------------------------------------------------

    def status(self) -> dict:
        with self._lock:
            health_rows = self.health.snapshot()
            shard_rows = {}
            for shard in self._shards.values():
                process = shard.process
                shard_rows[shard.id] = {
                    "address": shard.printable_address(),
                    "local": shard.spec.local,
                    "pid": process.pid if process is not None else None,
                    "alive": process.alive() if process is not None else None,
                    "restarts": process.restarts if process is not None else 0,
                    "inflight": len(shard.inflight),
                    "health": health_rows.get(shard.id),
                }
            members = sorted(self._ring.members)
        return {
            "cluster": {
                "pid": os.getpid(),
                "draining": self.draining,
                "uptime": round(time.monotonic() - self._started_at, 3),
                "shards": len(shard_rows),
                "healthy": len(members),
            },
            "shards": shard_rows,
            "ring": {"vnodes": self.config.vnodes, "members": members},
            "metrics": self.metrics.to_json(),
        }

    def write_discovery(self) -> None:
        """Publish ``cluster.json``: where the router listens and which
        shards exist with their journals and pids — ``submit --cluster
        DIR`` and ``cluster-status DIR`` read the router endpoints."""
        with self._lock:
            shard_map = {
                shard.id: {
                    "address": shard.printable_address(),
                    "local": shard.spec.local,
                    "journal": shard.spec.journal_path,
                    "pid": (
                        shard.process.pid if shard.process is not None else None
                    ),
                }
                for shard in self._shards.values()
            }
        payload = {
            "router": {
                "socket": self.config.socket_path,
                "tcp": list(self.tcp_address) if self.tcp_address else None,
                "pid": os.getpid(),
            },
            "shards": shard_map,
        }
        try:
            atomic_write_json(os.path.join(self.config.dir, "cluster.json"), payload)
        except OSError:
            pass  # discovery is advisory; routing must not die for it

    # -- drain & shutdown ----------------------------------------------

    def _drain_cluster(self) -> None:
        """The SIGTERM path: stop accepting, wait for in-flight
        forwards, then propagate the drain to every local shard."""
        self._draining = True
        trace_event(
            "cluster.drain",
            inflight=sum(len(s.inflight) for s in self._shards.values()),
        )
        self._close_listeners()
        deadline = time.monotonic() + self.config.drain_grace
        while time.monotonic() < deadline:
            with self._lock:
                if not any(s.inflight for s in self._shards.values()):
                    break
            time.sleep(self.config.tick)
        # Propagate: each shard runs its own graceful drain (finishes or
        # kills in-flight work, flushes its journal) and exits 0.
        fleet = list(self._shards.values())
        for shard in fleet:
            if shard.process is not None:
                shard.process.terminate()
        grace = self.config.shard_drain_grace + 5.0
        for shard in fleet:
            process = shard.process
            if process is None:
                continue
            if process.wait(grace) is None:
                process.kill()
                process.wait(5.0)
            trace_event(
                "cluster.shard_drained", shard=shard.id, status=process.exit_code
            )

    def _close_listeners(self) -> None:
        for listener in self._listeners:
            try:
                self._selector.unregister(listener)
            except (KeyError, ValueError, OSError):
                pass
            try:
                listener.close()
            except OSError:
                pass
        self._listeners.clear()
        if self._bound and self.config.socket_path is not None:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    def _shutdown(self) -> None:
        self._draining = True
        self._close_listeners()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for shard in self._shards.values():
            if shard.process is not None:
                if shard.process.alive():
                    shard.process.kill()
                    shard.process.wait(5.0)
                shard.process.close()
        self._selector.close()
        self.write_discovery()
        ambient = current_metrics()
        if ambient is not None:
            ambient.absorb(self.metrics)


def run_cluster(config: RouterConfig) -> int:
    """Blocking entry point: bind, install drain-on-SIGINT/SIGTERM
    handlers, route until drained.  Returns the exit status (``0``
    after a clean drain)."""
    from repro.runtime.lifecycle import drain_signals

    router = Router(config)
    router.bind()
    with drain_signals(on_signal=lambda signum: router.request_drain()) as drain:
        if drain.is_set():
            router.request_drain()

        def _watch_drain() -> None:
            drain.wait()
            router.request_drain()

        watcher = threading.Thread(target=_watch_drain, daemon=True)
        watcher.start()
        return router.serve_forever()
