"""The verification server behind ``repro-spi serve``.

A long-running process that accepts framed JSON verification requests
(see :mod:`repro.service.protocol`) on a Unix socket and/or a TCP
listener and dispatches them onto the same supervised
:class:`~repro.runtime.supervisor.WorkerPool` the batch runner uses.
One event loop (``selectors``), no per-connection threads: one
selector watches the listeners, the non-blocking client sockets, every
live worker's pipe (registered by the pool from spawn to reap) and a
wakeup socket that :meth:`Server.request_drain` writes to.  A request,
a worker's result or death, or a drain request therefore ends the wait
at once; the ``tick`` only bounds how late timed housekeeping (queued
deadline expiry, retry backoff, the drain grace) runs.

What makes it a *service* rather than a socket wrapper around
``run_suite`` is the failure policy:

* **admission control** — a bounded queue
  (:class:`~repro.service.admission.AdmissionQueue`); when it is full
  new requests get a fast ``overloaded`` response instead of an
  unbounded backlog;
* **per-request deadlines** — a queued request whose budget expires is
  answered ``degraded`` without wasting a worker; a dispatched one gets
  the remaining budget as its cooperative deadline plus a scaled
  hard-kill backstop;
* **circuit breakers** — repeated worker crashes on one protocol open
  that protocol's breaker (:mod:`repro.service.breaker`); requests for
  it are answered immediately with a cached degraded
  ``Exhaustion(reason="fault")`` verdict while other protocols keep
  verifying normally;
* **supervised workers** — crashed/hung/OOM-killed workers are replaced
  by the pool with no lifetime spawn cap (a service replaces workers
  forever; the breaker, not a spawn budget, is what stops crash loops);
* **graceful drain** — on SIGTERM/SIGINT (or
  :meth:`Server.request_drain`): listeners close, queued requests are
  shed with ``draining`` responses, in-flight jobs get ``drain_grace``
  seconds to finish (then are killed and answered ``degraded``), the
  journal is flushed, and :meth:`Server.serve_forever` returns ``0``.

Every verdict, shed, and degrade is journaled (when a journal is
configured) in the suite-journal schema, so a batch run can finish what
the service could not::

    repro-spi suite --suite-file jobs.json --journal service.jsonl \\
        --resume [--retry-faults]

— shed requests (``type: "shed"``) and in-worker errors (``type:
"error"``) are invisible to resume filtering and simply re-run;
degraded fault verdicts (``status: "fault"``) re-run under
``--retry-faults``.
"""

from __future__ import annotations

import os
import random
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.errors import ReproError
from repro.obs.metrics import Metrics, current_metrics
from repro.obs.trace import trace_event
from repro.runtime.exhaustion import Exhaustion
from repro.runtime.journal import Journal
from repro.runtime.supervisor import (
    WorkerPool,
    checkpointed_states,
    job_checkpoint_path,
)
from repro.service import protocol
from repro.service.admission import AdmissionQueue
from repro.service.breaker import CLOSED, BreakerBoard
from repro.service.framing import FrameDecoder, FramingError, encode_frame
from repro.service.protocol import ProtocolError, Request, parse_request


class ServiceError(ReproError):
    """The server was misconfigured (no listener, bad limits...)."""


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro-spi serve`` can tune.

    ``job_deadline`` is the *default* per-request budget; a request's
    own ``deadline`` field overrides it.  ``retries`` is deliberately
    lower than the batch default — an interactive client is better
    served by a fast degraded answer than a long retry ladder (and can
    resubmit; the breaker remembers).
    """

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None
    workers: int = 2
    queue_limit: int = 64
    retries: int = 1
    job_deadline: Optional[float] = None
    max_rss_mb: Optional[float] = None
    journal_path: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: LRU bound on distinct per-protocol breakers (None = unbounded);
    #: only CLOSED, idle breakers are ever evicted.
    breaker_max: Optional[int] = 1024
    #: Replay the existing journal's verdict history into the breaker
    #: board at startup, so a respawned shard does not relearn a crash
    #: loop from scratch (see :meth:`BreakerBoard.rebuild`).
    rebuild_breakers: bool = False
    drain_grace: float = 10.0
    heartbeat_interval: float = 0.25
    heartbeat_grace: float = 15.0
    hang_grace: float = 5.0
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    #: Longest selector wait in seconds: the loop wakes at once on
    #: socket, worker-pipe and drain events, so this only bounds how
    #: late timed housekeeping (expiry, backoff, drain grace) runs.
    tick: float = 0.05
    #: Accept ``fault_plan`` fields in requests (crash-injection tests
    #: only; a production server refuses them).
    allow_fault_injection: bool = False
    #: Treat the request id as an idempotency key (``serve --dedupe``):
    #: a request whose id already has an ``ok`` verdict in this server's
    #: journal is answered from the journal (``cached: true``), and a
    #: request whose id is currently queued or running is *coalesced*
    #: onto the in-flight ticket instead of computed twice.  Cluster
    #: shards run with this on — it is the shard-side backstop that
    #: keeps verdicts exactly-once when a promoted standby re-drives
    #: work the dead primary already delivered here.
    dedupe: bool = False
    #: Directory of a persistent cross-run
    #: :class:`~repro.service.store.VerdictStore` (``serve
    #: --verdict-store``).  Admission checks it cache-aside — a hit
    #: short-circuits before the worker pool with ``cached: true`` and
    #: a ``store.hit`` metric, and is *not* journaled (the verdict was
    #: never computed here; journaling it again would double-journal
    #: warm restarts) — and completions write budget-pure ``ok``
    #: verdicts through.  Degraded fault verdicts are never written:
    #: they are retryable by design.
    verdict_store: Optional[str] = None


@dataclass(eq=False)
class _Client:
    """One connected peer: its socket, read decoder, and write buffer."""

    sock: socket.socket
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    outbuf: bytearray = field(default_factory=bytearray)
    closed: bool = False


@dataclass(eq=False)
class _Ticket:
    """One admitted request travelling through queue -> worker -> reply.

    ``ready_at``/``deadline_at`` are the attributes
    :class:`AdmissionQueue` keys on; ``probe`` marks the single request
    allowed through a half-open breaker.
    """

    request: Request
    client: Optional[_Client]
    key: str
    admitted_at: float
    deadline_at: Optional[float] = None
    attempt: int = 1
    ready_at: float = 0.0
    started_first: Optional[float] = None
    probe: bool = False
    #: Verdict-store key computed at admission (``--verdict-store``);
    #: ``None`` when there is no store, the job cannot be keyed, or the
    #: request carries test instrumentation (fault plans must run).
    store_key: Optional[str] = None
    events: list[str] = field(default_factory=list)
    #: Duplicate submitters coalesced onto this ticket (``--dedupe``);
    #: they receive the same final answer as the original client.
    extra_clients: list = field(default_factory=list)


class Server:
    """See the module docstring; constructed from a :class:`ServerConfig`,
    driven by :meth:`serve_forever`."""

    def __init__(self, config: ServerConfig) -> None:
        if config.socket_path is None and config.port is None:
            raise ServiceError("serve needs a unix socket path and/or a TCP port")
        if config.workers < 1:
            raise ServiceError("need at least one worker")
        self.config = config
        self.queue: AdmissionQueue[_Ticket] = AdmissionQueue(config.queue_limit)
        self.breakers = BreakerBoard(
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
            max_size=config.breaker_max,
        )
        if config.rebuild_breakers and config.journal_path is not None:
            from repro.runtime.journal import read_journal

            try:
                self.breakers.rebuild(read_journal(config.journal_path))
            except ReproError:
                pass  # a damaged journal must not block the restart
        self.metrics = Metrics()
        self._selector = selectors.DefaultSelector()
        self.pool = WorkerPool(
            config.workers,
            heartbeat_interval=config.heartbeat_interval,
            heartbeat_grace=config.heartbeat_grace,
            max_rss_mb=config.max_rss_mb,
            max_spawns=None,  # services replace workers forever
            name="repro-serve-worker",
            selector=self._selector,
        )
        self.journal = (
            Journal(config.journal_path, fresh=False)
            if config.journal_path is not None
            else None
        )
        if config.dedupe and config.journal_path is not None:
            from repro.runtime.journal import JournalIndex

            self._journal_index: Optional[JournalIndex] = JournalIndex(
                config.journal_path
            )
        else:
            self._journal_index = None
        if config.verdict_store is not None:
            from repro.service.store import VerdictStore

            self.store: Optional[VerdictStore] = VerdictStore(config.verdict_store)
        else:
            self.store = None
        #: request id -> live ticket, for coalescing duplicates.
        self._inflight_ids: dict[str, _Ticket] = {}
        self._listeners: list[socket.socket] = []
        # request_drain() writes one byte here to end the selector wait.
        self._wakeup, self._waker = socket.socketpair()
        for end in (self._wakeup, self._waker):
            end.setblocking(False)
        self._selector.register(self._wakeup, selectors.EVENT_READ, ("wakeup", None))
        self._clients: set[_Client] = set()
        self._drain = threading.Event()
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._started_at = time.monotonic()
        self._bound = False
        #: Where the TCP listener actually landed (port 0 = ephemeral).
        self.tcp_address: Optional[tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------

    def bind(self) -> None:
        """Create and register the listeners (idempotent)."""
        if self._bound:
            return
        cfg = self.config
        if cfg.socket_path is not None:
            if os.path.exists(cfg.socket_path):
                # A stale socket file from a dead server blocks bind();
                # a live server would still hold it open, but two
                # servers on one path is operator error either way.
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
        self._selector.register(listener, selectors.EVENT_READ, ("listener", None))
        self._listeners.append(listener)

    def request_drain(self) -> None:
        """Ask the serve loop to drain (thread- and signal-safe); the
        loop wakes at once instead of finishing its selector wait."""
        self._drain.set()
        try:
            self._waker.send(b"\0")
        except OSError:
            pass  # a wakeup is already pending, or the server has shut down

    @property
    def draining(self) -> bool:
        return self._draining or self._drain.is_set()

    def serve_forever(self) -> int:
        """Run until drained; returns the process exit status (``0``)."""
        self.bind()
        try:
            while True:
                if self._drain.is_set() and not self._draining:
                    self._begin_drain()
                now = time.monotonic()
                self._handle_pool_events(now)
                self._expire_queued(now)
                if not self._draining:
                    self.pool.ensure()
                    self._dispatch_ready(now)
                elif self._drain_finished(now):
                    break
                self.metrics.set_gauge("service.queue_depth", self.queue.depth)
                self.metrics.set_gauge("service.inflight", len(self.pool.busy()))
                self._wait_for_events(self.config.tick)
        finally:
            self._shutdown()
        return 0

    # -- socket plumbing -----------------------------------------------

    def _wait_for_events(self, timeout: float) -> None:
        """Wait up to ``timeout`` for any event and serve the sockets.

        Worker pipes need nothing here: their readiness only ends the
        wait, and the next :meth:`_handle_pool_events` reads them.
        """
        for key, mask in self._selector.select(timeout):
            role, payload = key.data
            if role == "listener":
                self._accept(key.fileobj)
            elif role == "wakeup":
                try:
                    while self._wakeup.recv(64):
                        pass
                except OSError:
                    pass
            elif role == "client":
                client = payload
                if mask & selectors.EVENT_READ:
                    self._read(client)
                if mask & selectors.EVENT_WRITE and not client.closed:
                    self._flush(client)

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _ = listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        client = _Client(sock)
        self._clients.add(client)
        self._selector.register(sock, selectors.EVENT_READ, ("client", client))
        self.metrics.inc("service.connections")

    def _read(self, client: _Client) -> None:
        try:
            data = client.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(client)
            return
        if not data:
            self._close(client)
            return
        try:
            frames = client.decoder.feed(data)
        except FramingError as err:
            self._respond(client, protocol.response(None, protocol.ERROR, error=str(err)))
            self._close(client, after_flush=True)
            return
        for frame in frames:
            self._handle_frame(client, frame)

    def _respond(self, client: Optional[_Client], message: dict) -> None:
        """Queue (and opportunistically send) one response frame.

        A vanished client is not an error: its job still completes and
        its verdict is still journaled — the resume path is the client's
        second chance.
        """
        if client is None or client.closed:
            return
        try:
            client.outbuf.extend(encode_frame(message))
        except FramingError:
            client.outbuf.extend(
                encode_frame(
                    protocol.response(
                        message.get("id"), protocol.ERROR, error="response too large"
                    )
                )
            )
        self._flush(client)

    def _flush(self, client: _Client) -> None:
        while client.outbuf:
            try:
                sent = client.sock.send(client.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close(client)
                return
            del client.outbuf[:sent]
        self._set_write_interest(client, bool(client.outbuf))

    def _set_write_interest(self, client: _Client, wanted: bool) -> None:
        if client.closed:
            return
        mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if wanted else 0)
        try:
            self._selector.modify(client.sock, mask, ("client", client))
        except (KeyError, ValueError, OSError):
            pass

    def _close(self, client: _Client, after_flush: bool = False) -> None:
        if client.closed:
            return
        if after_flush and client.outbuf:
            # Best effort: push what we can before hanging up.
            try:
                client.sock.setblocking(True)
                client.sock.settimeout(1.0)
                client.sock.sendall(bytes(client.outbuf))
            except OSError:
                pass
        client.closed = True
        self._clients.discard(client)
        try:
            self._selector.unregister(client.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            client.sock.close()
        except OSError:
            pass

    # -- request handling ----------------------------------------------

    def _handle_frame(self, client: _Client, frame: dict) -> None:
        self.metrics.inc("service.requests")
        try:
            request = parse_request(frame)
        except ProtocolError as err:
            self.metrics.inc("service.errors")
            rid = frame.get("id") if isinstance(frame, dict) else None
            self._respond(client, protocol.response(rid, protocol.ERROR, error=str(err)))
            return
        if request.kind in protocol.CONTROL_KINDS:
            self._handle_control(client, request)
            return
        if request.fault_plan is not None and not self.config.allow_fault_injection:
            self.metrics.inc("service.errors")
            self._respond(
                client,
                protocol.response(
                    request.id,
                    protocol.ERROR,
                    error="fault injection is disabled on this server",
                ),
            )
            return
        if self._draining:
            self._respond(
                client,
                protocol.response(
                    request.id, protocol.DRAINING, error="server is draining"
                ),
            )
            return
        if self.config.dedupe:
            if self._serve_cached(client, request):
                return
            existing = self._inflight_ids.get(request.id)
            if existing is not None and existing.request.kind == request.kind:
                # Same idempotency key, already queued or running: both
                # submitters get the one verdict.  This is what makes a
                # re-driven request from a second router a no-op instead
                # of a duplicate computation.
                existing.extra_clients.append(client)
                self.metrics.inc("service.coalesced")
                trace_event("service.coalesce", job=request.id)
                return
        hit, store_key = self._check_store(client, request)
        if hit:
            return
        now = time.monotonic()
        key = protocol.protocol_key(request.target)
        breaker = self.breakers.get(key)
        if not breaker.allow():
            self._degrade_fast(client, request, breaker.last_fault or "circuit open")
            return
        ticket = _Ticket(
            request=request,
            client=client,
            key=key,
            admitted_at=now,
            probe=breaker.state != CLOSED,
            store_key=store_key,
        )
        budget = request.deadline or self.config.job_deadline
        if budget is not None:
            ticket.deadline_at = now + budget
        if not self.queue.offer(ticket):
            if ticket.probe:
                breaker.abandon_probe()
            self.metrics.inc("service.shed")
            self._journal({
                "type": "shed", "job": request.id, "protocol": key,
                "reason": "overloaded",
            })
            self._respond(
                client,
                protocol.response(
                    request.id,
                    protocol.OVERLOADED,
                    error=f"admission queue full ({self.queue.limit})",
                    retry_after=round(self.config.backoff_base * 4, 3),
                ),
            )
            return
        if self.config.dedupe:
            self._inflight_ids[request.id] = ticket
            # Claim the idempotency key durably *before* any verdict
            # exists.  A router promoted mid-compute sees no result for
            # a re-driven id, but it does see this claim — and pins the
            # retry back to this shard, where the in-flight coalescer
            # above turns it into the one verdict instead of a second
            # computation on a different shard.  Wall-clock (not
            # monotonic) time: claim recency is compared across shard
            # processes.
            self._journal({
                "type": "claim", "job": request.id, "protocol": key,
                "time": time.time(), "pid": os.getpid(),
            })
        trace_event("service.admit", job=request.id, depth=self.queue.depth)

    def _serve_cached(self, client: Optional[_Client], request: Request) -> bool:
        """Answer from this shard's own journal when the id already has
        an ``ok`` verdict.  Only ``ok`` records dedupe here: serving a
        cached *fault* verdict would freeze a transient degradation into
        a permanent answer (and break parity with a fault-free run) —
        those keep their recompute-on-resubmit semantics."""
        if self._journal_index is None:
            return False
        record = self._journal_index.result(request.id)
        if record is None or record.get("status") != "ok":
            return False
        self.metrics.inc("service.deduped")
        trace_event("service.dedupe", job=request.id)
        self._respond(
            client,
            protocol.response(
                request.id, protocol.OK, result=record["result"], cached=True
            ),
        )
        return True

    def _check_store(
        self, client: Optional[_Client], request: Request
    ) -> tuple[bool, Optional[str]]:
        """Cache-aside verdict-store check at admission.

        Returns ``(answered, store_key)``: on a hit the client already
        got the stored verdict (``cached: true``, ``store.hit`` metric)
        and nothing is journaled — the verdict was computed by some
        earlier process incarnation, and re-journaling it here would
        make a warm restart double-journal.  On a miss the computed key
        rides the ticket so the completion path can write through.
        Fault-injected requests bypass the store entirely: test
        instrumentation must actually run (and must never persist).
        """
        if self.store is None or request.fault_plan is not None:
            return False, None
        from repro.service.store import store_key

        key = store_key(request.job())
        if key is None:
            return False, None
        result = self.store.lookup(key)
        if result is None:
            self.metrics.inc("store.miss")
            return False, key
        self.metrics.inc("store.hit")
        trace_event("service.store_hit", job=request.id)
        self._respond(
            client,
            protocol.response(request.id, protocol.OK, result=result, cached=True),
        )
        return True, key

    def _answer(self, ticket: _Ticket, message: dict) -> None:
        """Deliver a ticket's final answer to its client *and* every
        coalesced duplicate, retiring its idempotency-key entry."""
        if self._inflight_ids.get(ticket.request.id) is ticket:
            del self._inflight_ids[ticket.request.id]
        self._respond(ticket.client, message)
        for client in ticket.extra_clients:
            self._respond(client, message)

    def _handle_control(self, client: _Client, request: Request) -> None:
        if request.kind == "ping":
            # The pong doubles as the cluster health probe: liveness
            # plus the load signals a router ejects/weighs shards on.
            self._respond(
                client,
                protocol.response(
                    request.id,
                    protocol.PONG,
                    server="repro-spi",
                    pid=os.getpid(),
                    draining=self.draining,
                    queue_depth=self.queue.depth,
                    busy=len(self.pool.busy()),
                    breakers_open=self.breakers.open_count,
                ),
            )
        else:
            self._respond(
                client,
                protocol.response(request.id, protocol.STATUS, **self.status()),
            )

    def status(self) -> dict:
        """The ``status`` payload (also what the CLI writes as an
        artifact)."""
        return {
            "server": {
                "pid": os.getpid(),
                "draining": self.draining,
                "uptime": round(time.monotonic() - self._started_at, 3),
            },
            "pool": {
                "size": self.config.workers,
                "alive": self.pool.alive_count(),
                "busy": len(self.pool.busy()),
                "spawned": self.pool.spawned,
            },
            "queue": self.queue.snapshot(),
            "breakers": self.breakers.snapshot(),
            "metrics": self.metrics.to_json(),
        }

    # -- verdict paths -------------------------------------------------

    def _journal(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _degrade_fast(self, client: Optional[_Client], request: Request, detail: str) -> None:
        """Breaker-open fast path: cached fault verdict, no queue time."""
        exhaustion = Exhaustion.single("fault", detail=detail)
        result = exhaustion.verdict(request.kind)
        self.metrics.inc("service.degraded")
        self._journal({
            "type": "result",
            "job": request.id,
            "protocol": protocol.protocol_key(request.target),
            "status": "fault",
            "attempts": 0,
            "elapsed": 0.0,
            "result": result,
            "error": detail,
            "events": ["degraded without dispatch: circuit open"],
        })
        self._respond(
            client,
            protocol.response(
                request.id, protocol.DEGRADED, result=result, error=detail
            ),
        )

    def _degrade(self, ticket: _Ticket, detail: str, reason: str = "fault") -> None:
        """Retry budget (or drain grace, or deadline) exhausted."""
        now = time.monotonic()
        job = ticket.request.job()
        exhaustion = Exhaustion.single(
            reason,
            states=checkpointed_states(job, self.config.checkpoint_dir),
            elapsed=(now - ticket.started_first) if ticket.started_first else None,
            detail=detail,
        )
        result = exhaustion.verdict(ticket.request.kind)
        self.metrics.inc("service.degraded")
        self._journal({
            "type": "result",
            "job": ticket.request.id,
            "protocol": ticket.key,
            "status": "fault",
            "attempts": ticket.attempt,
            "elapsed": round(now - ticket.admitted_at, 4),
            "result": result,
            "error": detail,
            "events": list(ticket.events),
        })
        self._answer(
            ticket,
            protocol.response(
                ticket.request.id, protocol.DEGRADED, result=result, error=detail
            ),
        )

    def _complete(self, ticket: _Ticket, result: dict) -> None:
        now = time.monotonic()
        elapsed = now - ticket.admitted_at
        self.metrics.inc("service.completed")
        self.metrics.observe("service.latency", elapsed)
        if self.store is not None and ticket.store_key is not None:
            # Write-through, only here: `_degrade`/`_degrade_fast`
            # verdicts are retryable fault stubs and must never be
            # persisted.  `put` additionally refuses deadline-qualified
            # results (not budget-pure).  Store trouble costs the cache,
            # never the response.
            try:
                if self.store.put(
                    ticket.store_key,
                    result,
                    kind=ticket.request.kind,
                    protocol=ticket.key,
                ):
                    self.metrics.inc("store.write")
            except OSError:
                self.metrics.inc("store.error")
        self._journal({
            "type": "result",
            "job": ticket.request.id,
            "protocol": ticket.key,
            "status": "ok",
            "attempts": ticket.attempt,
            "elapsed": round(elapsed, 4),
            "result": result,
            "error": None,
            "events": list(ticket.events),
        })
        self._answer(
            ticket,
            protocol.response(ticket.request.id, protocol.OK, result=result),
        )

    def _shed(self, ticket: _Ticket, status: str, reason: str, error: str) -> None:
        """Bounce an already-queued ticket back to its client un-run."""
        if ticket.probe:
            self.breakers.get(ticket.key).abandon_probe()
        self.metrics.inc("service.shed")
        self._journal({
            "type": "shed",
            "job": ticket.request.id,
            "protocol": ticket.key,
            "reason": reason,
        })
        self._answer(
            ticket,
            protocol.response(ticket.request.id, status, error=error),
        )

    # -- scheduling ----------------------------------------------------

    def _expire_queued(self, now: float) -> None:
        # Expiry is its own status, not ``overloaded`` (a retry cannot
        # help: the budget is gone) and not ``degraded`` (nothing ran,
        # there is no verdict stub to qualify).  The journal keeps the
        # same distinction, so a batch resume re-runs expired work.
        for ticket in self.queue.expire(now):
            self._shed(
                ticket,
                protocol.EXPIRED,
                reason="expired",
                error="deadline expired before a worker was free",
            )

    def _dispatch_ready(self, now: float) -> None:
        for worker in self.pool.idle():
            ticket = self.queue.take(now)
            if ticket is None:
                break
            breaker = self.breakers.get(ticket.key)
            if breaker.state != CLOSED and not ticket.probe:
                # The breaker opened while this ticket queued (another
                # request for the same protocol crashed its workers).
                if breaker.allow():
                    ticket.probe = True
                else:
                    self._degrade(ticket, breaker.last_fault or "circuit open")
                    continue
            deadline = None
            if ticket.deadline_at is not None:
                deadline = max(0.0, ticket.deadline_at - now)
            hard = (
                deadline * 1.5 + self.config.hang_grace
                if deadline is not None
                else None
            )
            job = ticket.request.job()
            plan = None
            if (
                self.config.allow_fault_injection
                and ticket.request.fault_plan is not None
                and ticket.attempt in ticket.request.fault_attempts
            ):
                plan = ticket.request.fault_plan
            if ticket.started_first is None:
                ticket.started_first = now
            sent = self.pool.dispatch(
                worker,
                {
                    "type": "job",
                    "job": job.to_json(),
                    "attempt": ticket.attempt,
                    "deadline": deadline,
                    "checkpoint": job_checkpoint_path(job, self.config.checkpoint_dir),
                    "fault_plan": plan,
                },
                current=ticket,
                hard_deadline=hard,
            )
            if sent:
                trace_event(
                    "service.dispatch",
                    job=ticket.request.id,
                    worker=worker.index,
                    attempt=ticket.attempt,
                )
            else:
                self.queue.requeue(ticket)  # dead pipe; the reaper respawns

    def _handle_pool_events(self, now: float) -> None:
        for event in self.pool.poll(timeout=0):
            if event.kind == "exit":
                ticket = event.current
                if ticket is not None:
                    self._worker_died(ticket, event.description or "worker lost", now)
            elif event.message is not None:
                self._worker_message(event.worker, event.message)

    def _worker_died(self, ticket: _Ticket, description: str, now: float) -> None:
        self.metrics.inc("service.crashes")
        ticket.events.append(f"attempt {ticket.attempt}: {description}")
        breaker = self.breakers.get(ticket.key)
        breaker.record_fault(f"{ticket.request.id}: {description}")
        ticket.probe = False
        trace_event(
            "service.crash", job=ticket.request.id, detail=description,
            breaker=breaker.state,
        )
        if self._draining or ticket.attempt > self.config.retries:
            self._degrade(ticket, description)
            return
        delay = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2 ** (ticket.attempt - 1)),
        )
        # Half-to-full jitter: a whole fleet of shards whose workers
        # were OOM-killed by the same machine-wide event must not all
        # re-dispatch on the same exponential schedule.
        delay *= 0.5 + 0.5 * random.random()
        ticket.attempt += 1
        ticket.ready_at = now + delay
        self.queue.requeue(ticket)

    def _worker_message(self, worker, message: dict) -> None:
        kind = message.get("type")
        ticket = worker.current
        if (
            kind == "started"
            or ticket is None
            or message.get("job") != ticket.request.id
        ):
            return
        if kind == "result":
            self.pool.release(worker)
            self.breakers.get(ticket.key).record_success()
            if isinstance(message.get("result"), dict) and message["result"].get(
                "certified"
            ):
                self.metrics.inc("witness.replayed")
            self._complete(ticket, message["result"])
        elif kind == "error":
            # Deterministic in-worker failure: the request's fault, not
            # the protocol's — report it, leave the breaker alone (the
            # worker demonstrably survived).
            self.pool.release(worker)
            self.breakers.get(ticket.key).record_success()
            error = message.get("error", "worker error")
            if error.startswith("CertificationError"):
                # A violation whose witness would not replay must never
                # surface as a clean answer *or* a plain error: retry it
                # like a crash, degrading to a retryable fault verdict
                # when the budget runs out.
                self.metrics.inc("witness.failed")
                ticket.events.append(f"attempt {ticket.attempt}: {error}")
                if self._draining or ticket.attempt > self.config.retries:
                    self._degrade(ticket, error)
                else:
                    delay = min(
                        self.config.backoff_cap,
                        self.config.backoff_base * (2 ** (ticket.attempt - 1)),
                    ) * (0.5 + 0.5 * random.random())
                    ticket.attempt += 1
                    ticket.ready_at = time.monotonic() + delay
                    self.queue.requeue(ticket)
                return
            self.metrics.inc("service.errors")
            self._journal({
                "type": "error", "job": ticket.request.id,
                "protocol": ticket.key, "error": error,
            })
            self._answer(
                ticket,
                protocol.response(ticket.request.id, protocol.ERROR, error=error),
            )

    # -- drain & shutdown ----------------------------------------------

    def _begin_drain(self) -> None:
        self._draining = True
        self._drain_deadline = time.monotonic() + self.config.drain_grace
        trace_event(
            "service.drain",
            queued=self.queue.depth,
            inflight=len(self.pool.busy()),
        )
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
        if self.config.socket_path is not None:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        # Shed everything queued: journaled as "shed" records, which a
        # batch --resume over the same journal re-runs.
        for ticket in self.queue.drain():
            self._shed(
                ticket,
                protocol.DRAINING,
                reason="draining",
                error="server is draining",
            )

    def _drain_finished(self, now: float) -> bool:
        busy = self.pool.busy()
        if not busy:
            return True
        if self._drain_deadline is not None and now > self._drain_deadline:
            for worker in busy:
                self.pool.kill(worker, "drain grace expired")
        return False

    def _shutdown(self) -> None:
        self._draining = True
        self.pool.shutdown()
        if self.journal is not None:
            self.journal.close()
        if self.store is not None:
            self.store.close()
        for client in list(self._clients):
            self._close(client, after_flush=True)
        for listener in self._listeners:
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
        self._selector.close()
        self._wakeup.close()
        self._waker.close()
        ambient = current_metrics()
        if ambient is not None:
            ambient.absorb(self.metrics)


def serve(config: ServerConfig) -> int:
    """Blocking entry point used by the CLI: bind, install drain-on-
    SIGINT/SIGTERM handlers, serve until drained.  Returns the exit
    status (``0`` after a clean drain)."""
    from repro.runtime.lifecycle import drain_signals

    server = Server(config)
    server.bind()
    with drain_signals(on_signal=lambda signum: server.request_drain()) as drain:
        if drain.is_set():  # signal raced bind
            server.request_drain()

        # Mirror the externally-installed event into the server so a
        # programmatic set (tests) also drains.
        def _watch_drain() -> None:
            drain.wait()
            server.request_drain()

        watcher = threading.Thread(target=_watch_drain, daemon=True)
        watcher.start()
        return server.serve_forever()
