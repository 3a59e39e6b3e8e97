"""Tests for the verification service (``repro-spi serve``/``submit``).

Unit layers (framing, protocol schema, admission queue, circuit
breaker) are tested with fakes and injected clocks — no sockets, no
sleeps.  The integration layer starts a real :class:`Server` (real Unix
socket, real spawn-context workers) inside the test process and drives
it with real clients; crash tests inject deterministic ``os._exit``
faults through the request-level fault plan, which only a server
started with ``allow_fault_injection`` accepts.

Timing discipline matches ``test_supervisor.py``: tests wait on
*observable state* (a reply frame, a status snapshot) rather than
sleeping on wall-clock guesses, and every real-process server runs with
near-zero backoff and a heartbeat grace far above scheduling noise.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime.journal import journaled_results, read_journal
from repro.runtime.supervisor import run_suite
from repro.runtime.worker import Job, run_job
from repro.service.admission import AdmissionQueue
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker
from repro.service.client import ServiceClient, ServiceUnavailable, parse_address
from repro.service.framing import (
    FrameDecoder,
    FramingError,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.service.protocol import (
    ProtocolError,
    default_id,
    parse_request,
    protocol_key,
)
from repro.service.server import Server, ServerConfig, ServiceError

#: Deterministic-timing knobs for every real server in this file.
FAST_SERVER = {
    "heartbeat_grace": 60.0,
    "backoff_base": 0.01,
    "backoff_cap": 0.05,
    "tick": 0.01,
}

#: Suite knobs for resume runs (mirrors test_supervisor.FAST).
FAST_SUITE = {"backoff_base": 0.01, "backoff_cap": 0.05, "heartbeat_grace": 60.0}


@contextmanager
def running_server(**overrides):
    """A live server on a Unix socket in a short-lived temp dir.

    Yields ``(server, client)``; tears down by draining and asserting
    the serve loop actually exits — every integration test is therefore
    also a drain test.
    """
    # A private short directory (not pytest's tmp_path) keeps the
    # socket path well under the AF_UNIX ~108-byte limit.
    scratch = tempfile.mkdtemp(prefix="repro-svc-")
    sock_path = os.path.join(scratch, "serve.sock")
    options = dict(socket_path=sock_path, workers=2, **FAST_SERVER)
    options.update(overrides)
    server = Server(ServerConfig(**options))
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServiceClient(("unix", sock_path), timeout=120.0, retries=0)
    finally:
        server.request_drain()
        thread.join(timeout=60)
        alive = thread.is_alive()
        shutil.rmtree(scratch, ignore_errors=True)
        assert not alive, "server failed to drain"


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.02):
    """Poll an observable predicate (no bare sleeps in tests)."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def raw_connect(path: str) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(path)
    return sock


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_blocking_round_trip(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, {"kind": "ping", "id": "x"})
            send_frame(left, {"kind": "status"})
            assert recv_frame(right) == {"kind": "ping", "id": "x"}
            assert recv_frame(right) == {"kind": "status"}
            left.close()
            assert recv_frame(right) is None  # clean EOF at a boundary

    def test_eof_mid_frame_is_an_error(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(encode_frame({"a": 1})[:-2])
            left.close()
            with pytest.raises(FramingError, match="mid-frame"):
                recv_frame(right)

    def test_decoder_reassembles_byte_by_byte(self):
        wire = encode_frame({"kind": "ping"}) + encode_frame({"kind": "status"})
        decoder = FrameDecoder()
        messages = []
        for i in range(len(wire)):
            messages.extend(decoder.feed(wire[i : i + 1]))
        assert messages == [{"kind": "ping"}, {"kind": "status"}]
        assert decoder.pending_bytes == 0

    def test_decoder_batches_multiple_frames(self):
        wire = b"".join(encode_frame({"n": n}) for n in range(5))
        assert FrameDecoder().feed(wire) == [{"n": n} for n in range(5)]

    def test_oversized_announced_frame_refused(self):
        decoder = FrameDecoder(max_frame=16)
        big = encode_frame({"blob": "x" * 64})
        with pytest.raises(FramingError, match="cap 16"):
            decoder.feed(big)

    def test_oversized_outgoing_frame_refused(self):
        with pytest.raises(FramingError, match="refusing to send"):
            encode_frame({"blob": "x" * (9 * 1024 * 1024)})

    def test_non_object_payload_refused(self):
        decoder = FrameDecoder()
        payload = json.dumps([1, 2, 3]).encode()
        frame = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(FramingError, match="not an object"):
            decoder.feed(frame)


# ----------------------------------------------------------------------
# Protocol schema
# ----------------------------------------------------------------------


class TestProtocol:
    def test_parse_minimal_request(self):
        request = parse_request({"kind": "secrecy", "target": {"zoo": "yahalom"}})
        assert request.kind == "secrecy"
        assert request.id == "secrecy:zoo:yahalom"
        assert request.job().target == {"zoo": "yahalom"}

    def test_may_preorder_aliases_check(self):
        request = parse_request({
            "kind": "may-preorder",
            "target": {"impl": "a.sys", "spec": "b.sys"},
        })
        assert request.kind == "check"

    def test_control_kinds_need_no_target(self):
        assert parse_request({"kind": "ping"}).kind == "ping"
        assert parse_request({"kind": "status"}).kind == "status"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request kind"):
            parse_request({"kind": "frobnicate", "target": {"zoo": "yahalom"}})

    def test_missing_target_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty 'target'"):
            parse_request({"kind": "secrecy"})

    def test_bad_job_target_rejected(self):
        with pytest.raises(ProtocolError, match="malformed request"):
            parse_request({"kind": "secrecy", "target": {"nonsense": "x"}})

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ProtocolError, match="bad deadline"):
            parse_request({
                "kind": "secrecy", "target": {"zoo": "yahalom"}, "deadline": 0,
            })

    def test_wrong_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            parse_request({"v": 99, "kind": "ping"})

    def test_default_ids_are_deterministic(self):
        a = default_id("secrecy", {"zoo": "yahalom"})
        assert a == default_id("secrecy", {"zoo": "yahalom"})
        assert a != default_id("authentication", {"zoo": "yahalom"})

    def test_protocol_key_isolates_systems_not_kinds(self):
        """Two kinds against one system share a breaker; two systems
        never do — a crashing protocol must not trip its neighbours."""
        assert protocol_key({"zoo": "yahalom"}) == protocol_key({"zoo": "yahalom"})
        assert protocol_key({"zoo": "yahalom"}) != protocol_key({"zoo": "otway-rees"})


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------


class _Item:
    def __init__(self, name, ready_at=0.0, deadline_at=None):
        self.name = name
        self.ready_at = ready_at
        self.deadline_at = deadline_at


class TestAdmission:
    def test_offer_sheds_when_full(self):
        queue = AdmissionQueue(2)
        assert queue.offer(_Item("a")) and queue.offer(_Item("b"))
        assert not queue.offer(_Item("c"))
        assert queue.depth == 2 and queue.shed == 1 and queue.admitted == 2

    def test_requeue_bypasses_the_limit(self):
        """A retry of work the server already accepted must never be
        shed — the admission decision is made once, at offer time."""
        queue = AdmissionQueue(1)
        first = _Item("a")
        assert queue.offer(first)
        queue.requeue(_Item("a-retry"))
        assert queue.depth == 2
        assert queue.high_water == 2

    def test_take_respects_backoff_and_fifo(self):
        queue = AdmissionQueue(4)
        queue.offer(_Item("cooling", ready_at=100.0))
        queue.offer(_Item("ready"))
        assert queue.take(now=50.0).name == "ready"  # skips the cooling item
        assert queue.take(now=50.0) is None
        assert queue.take(now=100.0).name == "cooling"

    def test_expire_sweeps_past_deadlines(self):
        queue = AdmissionQueue(4)
        queue.offer(_Item("stale", deadline_at=10.0))
        queue.offer(_Item("fresh", deadline_at=99.0))
        queue.offer(_Item("forever"))
        expired = queue.expire(now=20.0)
        assert [item.name for item in expired] == ["stale"]
        assert [item.name for item in queue] == ["fresh", "forever"]

    def test_snapshot_counters(self):
        queue = AdmissionQueue(1)
        queue.offer(_Item("a"))
        queue.offer(_Item("b"))
        assert queue.snapshot() == {
            "depth": 1, "limit": 1, "admitted": 1, "shed": 1, "high_water": 1,
        }

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class _Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestBreaker:
    def test_opens_after_threshold_consecutive_faults(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=3, cooldown=30.0, clock=clock)
        for _ in range(2):
            breaker.record_fault("boom")
            assert breaker.state == CLOSED and breaker.allow()
        breaker.record_fault("boom")
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.last_fault == "boom"

    def test_success_resets_the_fault_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=_Clock())
        breaker.record_fault()
        breaker.record_success()
        breaker.record_fault()
        assert breaker.state == CLOSED  # streak broken; 2 never reached

    def test_cooldown_admits_exactly_one_probe(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_fault("boom")
        assert not breaker.allow()
        clock.now = 11.0
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # second request: probe still in flight

    def test_probe_success_closes(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_fault()
        clock.now = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_probe_fault_reopens_and_restarts_cooldown(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_fault()
        clock.now = 11.0
        assert breaker.allow()
        breaker.record_fault("still broken")
        assert breaker.state == OPEN
        clock.now = 20.0  # 9s into the *new* cooldown
        assert not breaker.allow()
        clock.now = 21.5
        assert breaker.allow()

    def test_abandoned_probe_frees_the_slot(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_fault()
        clock.now = 11.0
        assert breaker.allow()
        breaker.abandon_probe()  # the probe was shed before running
        assert breaker.allow()  # someone else may probe instead

    def test_board_keys_and_snapshot(self):
        board = BreakerBoard(threshold=1, cooldown=5.0, clock=_Clock())
        board.get("zoo:a").record_fault("x")
        board.get("zoo:b")  # healthy, boring
        assert board.get("zoo:a") is board.get("zoo:a")
        snapshot = board.snapshot()
        assert set(snapshot) == {"zoo:a"}  # trivial breakers omitted
        assert snapshot["zoo:a"]["state"] == OPEN
        assert board.open_count == 1


# ----------------------------------------------------------------------
# Client unit behaviour (stub servers, no workers)
# ----------------------------------------------------------------------


@contextmanager
def stub_server(replies):
    """A one-thread stub: each accepted connection reads one frame and
    answers with the next scripted reply."""
    scratch = tempfile.mkdtemp(prefix="repro-stub-")
    path = os.path.join(scratch, "stub.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(8)
    listener.settimeout(30.0)
    served = []

    def run():
        for reply in replies:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                request = recv_frame(conn)
                served.append(request)
                send_frame(conn, reply)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield path, served
    finally:
        listener.close()
        thread.join(timeout=5)
        shutil.rmtree(scratch, ignore_errors=True)


class TestClient:
    def test_parse_address(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("127.0.0.1:8123") == ("tcp", ("127.0.0.1", 8123))
        assert parse_address(":8123") == ("tcp", ("127.0.0.1", 8123))

    def test_overloaded_is_retried_with_backoff(self):
        sleeps = []
        with stub_server([
            {"status": "overloaded", "id": "x", "retry_after": 0.5},
            {"status": "ok", "id": "x", "result": {"summary": "fine"}},
        ]) as (path, served):
            client = ServiceClient(
                ("unix", path), timeout=30.0, retries=2,
                jitter=lambda: 0.0, sleep=sleeps.append,
            )
            reply = client.call({"kind": "ping"})
        assert reply["status"] == "ok"
        assert len(served) == 2
        assert len(sleeps) == 1
        # Jitter floor is half the hinted retry_after (0.5 * 0.5).
        assert sleeps[0] == pytest.approx(0.25)

    def test_connect_failure_rotates_to_the_next_address(self, tmp_path):
        """Given a list of addresses, a dead endpoint costs one rotation:
        the retry goes to the next address, which answers."""
        with stub_server([{"status": "ok", "id": "x"}]) as (path, served):
            client = ServiceClient(
                [("unix", str(tmp_path / "dead.sock")), ("unix", path)],
                timeout=30.0, retries=1, jitter=lambda: 0.0,
                sleep=lambda s: None,
            )
            reply = client.call({"kind": "ping"})
        assert reply["status"] == "ok"
        assert len(served) == 1
        assert client.address == ("unix", path)

    def test_draining_is_not_retried(self):
        with stub_server([
            {"status": "draining", "id": "x", "error": "going away"},
            {"status": "ok", "id": "x"},
        ]) as (path, served):
            client = ServiceClient(
                ("unix", path), timeout=30.0, retries=3,
                jitter=lambda: 0.0, sleep=lambda s: None,
            )
            reply = client.call({"kind": "ping"})
        assert reply["status"] == "draining"
        assert len(served) == 1  # no second attempt against a closing door

    def test_expired_is_not_retried(self):
        """An ``expired`` reply is terminal: the request's deadline is
        gone, so retrying can only burn budget the caller no longer
        has.  Exactly one attempt, the verdict returned as-is."""
        sleeps = []
        with stub_server([
            {"status": "expired", "id": "x", "error": "deadline exceeded"},
            {"status": "ok", "id": "x"},
        ]) as (path, served):
            client = ServiceClient(
                ("unix", path), timeout=30.0, retries=3,
                jitter=lambda: 0.0, sleep=sleeps.append,
            )
            reply = client.call({"kind": "ping"})
        assert reply["status"] == "expired"
        assert len(served) == 1  # fail fast: a dead deadline never revives
        assert sleeps == []  # and no backoff was burned on it

    def test_unreachable_server_raises_after_retries(self):
        sleeps = []
        client = ServiceClient(
            ("unix", "/nonexistent/repro.sock"), timeout=1.0, retries=2,
            jitter=lambda: 0.0, sleep=sleeps.append,
        )
        with pytest.raises(ServiceUnavailable, match="3 attempt"):
            client.call({"kind": "ping"})
        assert len(sleeps) == 2

    def test_deadline_bounds_retries_and_propagates(self):
        from repro.runtime.deadline import Deadline

        clock = _Clock(now=0.0)
        deadline = Deadline(expires_at=5.0, clock=clock)
        with stub_server([
            {"status": "overloaded", "id": "x"},
        ]) as (path, served):
            client = ServiceClient(
                ("unix", path), timeout=30.0, retries=5,
                jitter=lambda: 0.0,
                sleep=lambda s: setattr(clock, "now", 10.0),  # budget gone
            )
            with pytest.raises(ServiceUnavailable, match="deadline expired"):
                client.call({"kind": "ping"}, deadline=deadline)
        # The one attempt that ran carried the remaining budget.
        assert served[0]["deadline"] == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Integration: a real server, real workers
# ----------------------------------------------------------------------


class TestServiceBasics:
    def test_ping_status_and_verdict_parity(self):
        with running_server(workers=2) as (server, client):
            pong = client.ping()
            assert pong["status"] == "pong" and pong["pid"] == os.getpid()

            job = Job(
                id="parity", kind="secrecy", target={"zoo": "needham-schroeder-sk"},
                max_states=400, max_depth=24,
            )
            reply = client.submit(
                "secrecy", {"zoo": "needham-schroeder-sk"},
                id="parity", max_states=400, max_depth=24,
            )
            assert reply["status"] == "ok"

            status = client.status()
            assert status["status"] == "status"
            assert status["pool"]["alive"] >= 1
            assert status["queue"]["admitted"] == 1
            assert status["metrics"]["counters"]["service.completed"] == 1

        # Differential parity: the served verdict equals the same job
        # run in-process (modulo the per-run stat block).
        direct = run_job(job)
        served = dict(reply["result"])
        served.pop("stats", None)
        direct.pop("stats", None)
        assert served == direct

    def test_tcp_listener_with_ephemeral_port(self):
        with running_server(
            socket_path=None, host="127.0.0.1", port=0, workers=1
        ) as (server, _):
            assert server.tcp_address is not None
            host, port = server.tcp_address
            assert port > 0
            tcp_client = ServiceClient(("tcp", (host, port)), timeout=30.0, retries=0)
            assert tcp_client.ping()["status"] == "pong"

    def test_malformed_and_unknown_requests_get_error_frames(self):
        with running_server(workers=1) as (server, client):
            bad = client.call({"kind": "frobnicate", "target": {"zoo": "yahalom"}})
            assert bad["status"] == "error" and "unknown request kind" in bad["error"]

            # Valid schema, unknown system: the *worker* rejects it
            # deterministically; no breaker involvement.
            missing = client.submit(
                "secrecy", {"zoo": "no-such-protocol"}, id="missing"
            )
            assert missing["status"] == "error"
            assert "unknown zoo protocol" in missing["error"]
            assert client.status()["breakers"] == {}

    def test_fault_injection_refused_unless_enabled(self):
        with running_server(workers=1) as (server, client):
            reply = client.submit(
                "secrecy", {"zoo": "yahalom"}, id="sneaky",
                fault_plan={"exit_at": [1]},
            )
            assert reply["status"] == "error"
            assert "fault injection is disabled" in reply["error"]


class TestCrashIsolation:
    """The acceptance scenario: a protocol that deterministically
    crashes its workers degrades, opens its breaker, and leaves every
    other protocol verifying normally."""

    POISON = {"zoo": "otway-rees"}
    HEALTHY = {"zoo": "yahalom"}

    @staticmethod
    def _poison_frame(rid, attempts=(1, 2, 3, 4)):
        return {
            "v": 1, "id": rid, "kind": "secrecy", "target": {"zoo": "otway-rees"},
            "max_states": 1200, "max_depth": 30,
            "fault_plan": {"exit_at": [3]}, "fault_attempts": list(attempts),
        }

    def test_poisoned_protocol_degrades_healthy_ones_verify(self, tmp_path):
        journal = str(tmp_path / "svc.jsonl")
        with running_server(
            workers=2, retries=1, breaker_threshold=3, breaker_cooldown=300.0,
            allow_fault_injection=True, journal_path=journal,
        ) as (server, client):
            # Fire the poison without waiting, then verify a healthy
            # protocol *while* the poison is crashing workers.
            poison_conn = raw_connect(server.config.socket_path)
            send_frame(poison_conn, self._poison_frame("poison-1"))

            healthy = client.submit(
                "secrecy", self.HEALTHY, id="healthy-1",
                max_states=400, max_depth=24,
            )
            assert healthy["status"] == "ok"
            assert healthy["result"]["violated"] is False

            degraded = recv_frame(poison_conn)
            poison_conn.close()
            assert degraded["status"] == "degraded"
            assert degraded["result"]["exhaustion"]["reasons"] == ["fault"]
            assert degraded["result"]["summary"].startswith("no verdict")
            assert "status 70" in degraded["error"]

            # Two crashes so far (attempt 1 + retry); one more opens
            # the breaker mid-request...
            second = client.call(self._poison_frame("poison-2"))
            assert second["status"] == "degraded"
            board = client.status()["breakers"]
            key = protocol_key(self.POISON)
            assert board[key]["state"] == OPEN
            assert board[key]["total_faults"] == 3

            # ...after which the degraded answer is served instantly,
            # without burning a worker.
            started = time.monotonic()
            fast = client.call(self._poison_frame("poison-3"))
            assert fast["status"] == "degraded"
            assert time.monotonic() - started < 1.0
            assert client.status()["metrics"]["counters"]["service.crashes"] == 3

            # The healthy protocol is entirely unaffected throughout.
            again = client.submit(
                "secrecy", self.HEALTHY, id="healthy-2",
                max_states=400, max_depth=24,
            )
            assert again["status"] == "ok"

        # Served healthy verdicts match an in-process run of the same job.
        direct = run_job(Job(
            id="healthy-1", kind="secrecy", target=self.HEALTHY,
            max_states=400, max_depth=24,
        ))
        served = dict(healthy["result"])
        served.pop("stats", None)
        direct.pop("stats", None)
        assert served == direct

        # Journal: degraded fault verdicts for the poison, ok for the
        # healthy requests — and a batch resume with --retry-faults
        # completes the poisoned jobs (no fault plan in the batch).
        results = journaled_results(journal)
        assert results["poison-1"]["status"] == "fault"
        assert results["healthy-1"]["status"] == "ok"
        report = run_suite(
            [
                Job(id="poison-1", kind="secrecy", target=self.POISON,
                    max_states=1200, max_depth=30),
                Job(id="healthy-1", kind="secrecy", target=self.HEALTHY,
                    max_states=400, max_depth=24),
            ],
            workers=2,
            journal_path=journal,
            resume=True,
            retry_faults=True,
            **FAST_SUITE,
        )
        statuses = {o.job.id: o.status for o in report.outcomes}
        assert statuses == {"poison-1": "ok", "healthy-1": "skipped"}

    def test_breaker_half_opens_and_recovers(self):
        with running_server(
            workers=1, retries=0, breaker_threshold=1, breaker_cooldown=0.2,
            allow_fault_injection=True,
        ) as (server, client):
            crashed = client.call(self._poison_frame("crash-once"))
            assert crashed["status"] == "degraded"
            key = protocol_key(self.POISON)
            assert client.status()["breakers"][key]["state"] == OPEN

            # After the cooldown the next request is the half-open
            # probe; sent *without* a fault plan it succeeds and closes
            # the breaker.
            wait_until(
                lambda: client.status()["breakers"][key]["cooldown_remaining"] == 0
            )
            probe = client.submit(
                "secrecy", self.POISON, id="probe",
                max_states=400, max_depth=24,
            )
            assert probe["status"] == "ok"
            assert client.status()["breakers"][key]["state"] == CLOSED


class TestOverloadAndDrain:
    SLOW = {
        "v": 1, "id": "slow", "kind": "explore", "target": {"zoo": "otway-rees"},
        "max_states": 1200, "max_depth": 30,
        "fault_plan": {"latency": 120.0}, "fault_attempts": [1],
    }

    def test_burst_sheds_drain_responds_resume_completes(self, tmp_path):
        """One worker, queue of one: a slow job occupies the worker, the
        next request queues, the third is shed ``overloaded``.  A drain
        then sheds the queued request (``draining``), kills the slow
        job after the grace period (``degraded``), and exits — leaving
        a journal from which a batch resume completes all three."""
        journal = str(tmp_path / "svc.jsonl")
        with running_server(
            workers=1, queue_limit=1, retries=0, drain_grace=0.3,
            allow_fault_injection=True, journal_path=journal,
        ) as (server, client):
            slow_conn = raw_connect(server.config.socket_path)
            send_frame(slow_conn, self.SLOW)
            wait_until(lambda: client.status()["pool"]["busy"] == 1)

            queued_conn = raw_connect(server.config.socket_path)
            send_frame(queued_conn, {
                "v": 1, "id": "queued", "kind": "secrecy",
                "target": {"zoo": "yahalom"}, "max_states": 400, "max_depth": 24,
            })
            wait_until(lambda: client.status()["queue"]["depth"] == 1)

            shed_conn = raw_connect(server.config.socket_path)
            send_frame(shed_conn, {
                "v": 1, "id": "shed", "kind": "secrecy",
                "target": {"zoo": "needham-schroeder-sk"},
                "max_states": 400, "max_depth": 24,
            })
            shed = recv_frame(shed_conn)
            shed_conn.close()
            assert shed["status"] == "overloaded"
            assert shed["retry_after"] > 0

            server.request_drain()
            drained_reply = recv_frame(queued_conn)
            assert drained_reply["status"] == "draining"
            killed_reply = recv_frame(slow_conn)
            assert killed_reply["status"] == "degraded"
            assert "drain grace expired" in killed_reply["error"]
            queued_conn.close()
            slow_conn.close()

        # The journal narrates all three fates...
        records = read_journal(journal)
        by_job = {(r["type"], r["job"]) for r in records}
        assert ("shed", "shed") in by_job
        assert ("shed", "queued") in by_job
        assert ("result", "slow") in by_job
        sheds = {r["job"]: r["reason"] for r in records if r["type"] == "shed"}
        assert sheds == {"shed": "overloaded", "queued": "draining"}

        # ...and a batch resume over it completes every job: shed
        # records are invisible to resume, the degraded slow job is
        # re-run by --retry-faults.
        report = run_suite(
            [
                Job(id="slow", kind="explore", target={"zoo": "otway-rees"},
                    max_states=1200, max_depth=30),
                Job(id="queued", kind="secrecy", target={"zoo": "yahalom"},
                    max_states=400, max_depth=24),
                Job(id="shed", kind="secrecy",
                    target={"zoo": "needham-schroeder-sk"},
                    max_states=400, max_depth=24),
            ],
            workers=2,
            journal_path=journal,
            resume=True,
            retry_faults=True,
            **FAST_SUITE,
        )
        assert report.completed
        assert all(o.status == "ok" for o in report.outcomes)
        assert {o.job.id for o in report.outcomes} == {"slow", "queued", "shed"}

    def test_requests_during_drain_are_refused(self):
        with running_server(
            workers=1, drain_grace=2.0, allow_fault_injection=True
        ) as (server, client):
            # Occupy the worker so the drain has something to wait for,
            # keeping the server alive in its draining phase.
            slow_conn = raw_connect(server.config.socket_path)
            send_frame(slow_conn, self.SLOW)
            wait_until(lambda: client.status()["pool"]["busy"] == 1)

            # Hold a connection open from before the drain; listeners
            # close at drain time but established connections keep
            # getting (refusal) service.  The ping round-trip proves the
            # server accepted it (not merely queued in the backlog).
            conn = raw_connect(server.config.socket_path)
            send_frame(conn, {"v": 1, "kind": "ping"})
            assert recv_frame(conn)["status"] == "pong"
            server.request_drain()
            wait_until(lambda: server.draining and not os.path.exists(
                server.config.socket_path
            ))
            send_frame(conn, {
                "v": 1, "kind": "secrecy", "target": {"zoo": "yahalom"},
            })
            reply = recv_frame(conn)
            conn.close()
            assert reply["status"] == "draining"
            assert recv_frame(slow_conn)["status"] == "degraded"
            slow_conn.close()


class TestServeCli:
    def test_sigterm_drains_serve_subprocess(self, tmp_path):
        """End to end through the real CLI: serve on a Unix socket,
        verify one request, SIGTERM, assert exit 0 and a valid,
        resumable journal — the CI smoke test in miniature."""
        scratch = tempfile.mkdtemp(prefix="repro-cli-")
        sock_path = os.path.join(scratch, "serve.sock")
        journal = str(tmp_path / "serve.jsonl")
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", sock_path, "--journal", journal,
                "--workers", "1", "--drain-grace", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            wait_until(lambda: os.path.exists(sock_path), timeout=60)
            client = ServiceClient(
                ("unix", sock_path), timeout=120.0, retries=5, backoff_base=0.1
            )
            reply = client.submit(
                "secrecy", {"zoo": "needham-schroeder-sk"}, id="cli-1",
                max_states=400, max_depth=24,
            )
            assert reply["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
            shutil.rmtree(scratch, ignore_errors=True)
        assert proc.returncode == 0, output
        assert "listening on unix:" in output
        assert "drained" in output
        assert not os.path.exists(sock_path)  # socket file cleaned up
        results = journaled_results(journal)
        assert results["cli-1"]["status"] == "ok"

    def test_submit_cli_round_trip(self, tmp_path, capsys):
        """``repro-spi submit`` against an in-process server: ping,
        a verdict (exit 0), and --json output."""
        from repro.cli import main

        with running_server(workers=1) as (server, _):
            sock_path = server.config.socket_path
            assert main(["submit", "ping", "--socket", sock_path]) == 0
            assert main([
                "submit", "secrecy", "yahalom", "--socket", sock_path,
                "--max-states", "400", "--max-depth", "24",
            ]) == 0
            assert main([
                "submit", "status", "--socket", sock_path, "--json",
            ]) == 0
        output = capsys.readouterr().out
        assert "pong from pid" in output
        assert "secret kept" in output
        assert '"status": "status"' in output

    def test_submit_cli_needs_an_address(self):
        from repro.cli import main

        assert main(["submit", "ping"]) == 2


# ----------------------------------------------------------------------
# Framing hardening: header-time rejection, poisoned decoders
# ----------------------------------------------------------------------


class TestFramingHardening:
    def test_oversize_rejected_on_header_alone(self):
        """A hostile length prefix is refused the moment the 4-byte
        header is complete — no payload byte is ever buffered."""
        decoder = FrameDecoder()  # default 8 MiB cap
        header_only = (64 * 1024 * 1024).to_bytes(4, "big")
        with pytest.raises(FramingError, match="announced a 67108864-byte"):
            decoder.feed(header_only)
        assert decoder.pending_bytes == 0  # nothing kept, not even the header

    def test_oversize_header_split_across_feeds(self):
        """The check fires on whichever feed completes the header."""
        decoder = FrameDecoder(max_frame=16)
        header = (1 << 30).to_bytes(4, "big")
        assert decoder.feed(header[:3]) == []  # header incomplete: no verdict yet
        with pytest.raises(FramingError, match="cap 16"):
            decoder.feed(header[3:])

    def test_failed_decoder_is_poisoned(self):
        """After a framing error the stream has lost alignment; every
        further feed re-raises instead of mis-parsing payload bytes as
        headers."""
        decoder = FrameDecoder(max_frame=16)
        with pytest.raises(FramingError):
            decoder.feed((1 << 20).to_bytes(4, "big"))
        with pytest.raises(FramingError, match="announced"):
            decoder.feed(encode_frame({"kind": "ping"}))  # a valid frame: too late
        assert decoder.pending_bytes == 0


# ----------------------------------------------------------------------
# FrameDecoder fuzz (Hypothesis): byte-at-a-time, hostile headers
# ----------------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_MESSAGES = st.lists(
    st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4),
    max_size=4,
)


class TestFrameDecoderFuzz:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(messages=_MESSAGES)
    def test_byte_at_a_time_reassembly(self, messages):
        """Feeding a valid stream one byte at a time yields exactly the
        encoded messages, in order, with nothing left buffered."""
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        out = []
        for index in range(len(stream)):
            out.extend(decoder.feed(stream[index:index + 1]))
        assert out == messages
        assert decoder.pending_bytes == 0

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(
        length=st.integers(min_value=1025, max_value=2**32 - 1),
        prefix=_MESSAGES,
    )
    def test_oversize_length_header_poisons_at_the_fourth_byte(
        self, length, prefix
    ):
        """A corrupted length header announcing more than the cap must
        poison the decoder the moment the header completes — before any
        payload byte is accepted — and stay poisoned: a stream that lost
        frame alignment can never be trusted again."""
        decoder = FrameDecoder(max_frame=1024)
        clean = b"".join(encode_frame(m) for m in prefix)
        for index in range(len(clean)):
            decoder.feed(clean[index:index + 1])
        hostile = struct.pack(">I", length)
        decoder.feed(hostile[0:1])
        decoder.feed(hostile[1:2])
        decoder.feed(hostile[2:3])
        with pytest.raises(FramingError, match="announced"):
            decoder.feed(hostile[3:4])
        assert decoder.pending_bytes == 0  # buffer dropped, not leaked
        with pytest.raises(FramingError):
            decoder.feed(b"\x00")  # poisoned for good

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=st.binary(min_size=1, max_size=32))
    def test_non_json_payload_poisons(self, payload):
        try:
            parsed = json.loads(payload.decode("utf-8"))
            if isinstance(parsed, dict):
                return  # accidentally valid: not this test's subject
        except (ValueError, UnicodeDecodeError):
            pass
        decoder = FrameDecoder()
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(FramingError):
            for index in range(len(frame)):
                decoder.feed(frame[index:index + 1])
        with pytest.raises(FramingError):
            decoder.feed(b"")


# ----------------------------------------------------------------------
# Client backoff vs deadline (satellite: never sleep past the budget)
# ----------------------------------------------------------------------


class TestClientDeadlineBackoff:
    def test_huge_retry_after_hint_fails_fast_within_deadline(self):
        """A server-hinted ``retry_after`` far beyond the remaining
        deadline must not be slept: the client refuses the backoff and
        fails fast instead of waking up expired."""
        from repro.runtime.deadline import Deadline

        clock = _Clock(now=0.0)
        deadline = Deadline(expires_at=5.0, clock=clock)
        sleeps = []
        with stub_server([
            {"status": "overloaded", "id": "x", "retry_after": 3600.0},
        ]) as (path, served):
            client = ServiceClient(
                ("unix", path), timeout=30.0, retries=5,
                jitter=lambda: 1.0,  # hinted delay = full 3600 s
                sleep=sleeps.append,
            )
            with pytest.raises(
                ServiceUnavailable, match="deadline expired backing off"
            ):
                client.call({"kind": "ping"}, deadline=deadline)
        assert sleeps == []  # the 3600 s nap was refused, not taken
        assert len(served) == 1

    def test_short_hint_is_capped_at_remaining_budget(self):
        """A sleep smaller than the budget is taken, but clipped to the
        remaining deadline when the two race."""
        from repro.runtime.deadline import Deadline

        clock = _Clock(now=0.0)
        deadline = Deadline(expires_at=10.0, clock=clock)
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.now += seconds

        with stub_server([
            {"status": "overloaded", "id": "x", "retry_after": 2.0},
            {"status": "ok", "id": "x"},
        ]) as (path, served):
            client = ServiceClient(
                ("unix", path), timeout=30.0, retries=2,
                jitter=lambda: 1.0, sleep=sleep,
            )
            reply = client.call({"kind": "ping"}, deadline=deadline)
        assert reply["status"] == "ok"
        assert sleeps == [pytest.approx(2.0)]  # hint honoured: under budget
        assert served[1]["deadline"] == pytest.approx(8.0)  # remaining, not total


# ----------------------------------------------------------------------
# Breaker board bounds (satellite: LRU eviction) and journal rebuild
# ----------------------------------------------------------------------


class TestBreakerBoardBounds:
    def test_idle_closed_breakers_evicted_lru(self):
        board = BreakerBoard(threshold=3, clock=_Clock(), max_size=2)
        board.get("zoo:a")
        board.get("zoo:b")
        board.get("zoo:c")  # evicts a, the least recently used
        assert len(board) == 2
        assert "zoo:a" not in board
        assert "zoo:b" in board and "zoo:c" in board
        assert board.evicted == 1

    def test_touch_refreshes_recency(self):
        board = BreakerBoard(threshold=3, clock=_Clock(), max_size=2)
        board.get("zoo:a")
        board.get("zoo:b")
        board.get("zoo:a")  # a is now the most recent
        board.get("zoo:c")  # so b is the one to go
        assert "zoo:a" in board and "zoo:c" in board
        assert "zoo:b" not in board

    def test_open_breakers_are_never_evicted(self):
        """Forgetting that a protocol is poisonous is the one piece of
        state eviction must not lose; the board exceeds max_size rather
        than dropping an OPEN breaker."""
        clock = _Clock()
        board = BreakerBoard(threshold=1, cooldown=30.0, clock=clock, max_size=2)
        board.get("zoo:bad1").record_fault("boom")
        board.get("zoo:bad2").record_fault("boom")
        board.get("zoo:c")
        board.get("zoo:d")  # only CLOSED candidates (c) can be evicted
        assert "zoo:bad1" in board and "zoo:bad2" in board
        assert "zoo:c" not in board
        assert len(board) == 3  # transiently over max: 2 OPEN + newest

    def test_max_size_must_be_positive(self):
        with pytest.raises(ValueError, match="max_size"):
            BreakerBoard(max_size=0)

    def test_rebuild_replays_journal_history(self):
        """A respawned shard replays its journal: a trailing fault
        streak at threshold leaves the breaker OPEN; intervening
        successes break streaks; non-result and pre-cluster records
        are skipped."""
        board = BreakerBoard(threshold=2, cooldown=30.0, clock=_Clock())
        replayed = board.rebuild([
            {"type": "result", "job": "1", "protocol": "zoo:p", "status": "fault",
             "error": "worker crashed"},
            {"type": "result", "job": "2", "protocol": "zoo:p", "status": "ok"},
            {"type": "result", "job": "3", "protocol": "zoo:p", "status": "fault",
             "error": "worker crashed"},
            {"type": "result", "job": "4", "protocol": "zoo:p", "status": "fault",
             "error": "worker crashed"},
            {"type": "result", "job": "5", "protocol": "zoo:q", "status": "ok"},
            {"type": "shed", "job": "6", "protocol": "zoo:q", "reason": "draining"},
            {"type": "result", "job": "7", "status": "ok"},  # pre-cluster: no key
        ])
        assert replayed == 5
        assert board.get("zoo:p").state == OPEN
        assert board.get("zoo:p").last_fault == "worker crashed"
        assert board.get("zoo:q").state == CLOSED


# ----------------------------------------------------------------------
# Admission expiry (satellite: expired is its own verdict, not overload)
# ----------------------------------------------------------------------


class TestAdmissionExpiry:
    def test_queued_request_expires_with_expired_status(self):
        """A request whose deadline lapses while queued is shed with
        ``expired`` — not ``overloaded`` (a retry cannot help) and not
        ``degraded`` (nothing ran) — and journaled under that reason so
        a batch resume re-runs it."""
        scratch = tempfile.mkdtemp(prefix="repro-exp-")
        journal = os.path.join(scratch, "svc.jsonl")
        try:
            with running_server(
                workers=1, queue_limit=4, retries=0, drain_grace=0.3,
                allow_fault_injection=True, journal_path=journal,
            ) as (server, client):
                slow_conn = raw_connect(server.config.socket_path)
                send_frame(slow_conn, {
                    "v": 1, "id": "slow", "kind": "explore",
                    "target": {"zoo": "otway-rees"},
                    "max_states": 1200, "max_depth": 30,
                    "fault_plan": {"latency": 120.0}, "fault_attempts": [1],
                })
                wait_until(lambda: client.status()["pool"]["busy"] == 1)

                doomed_conn = raw_connect(server.config.socket_path)
                send_frame(doomed_conn, {
                    "v": 1, "id": "doomed", "kind": "secrecy",
                    "target": {"zoo": "yahalom"},
                    "max_states": 400, "max_depth": 24,
                    "deadline": 0.15,  # lapses in the queue
                })
                reply = recv_frame(doomed_conn)
                doomed_conn.close()
                assert reply["status"] == "expired"
                assert "deadline expired" in reply["error"]
                slow_conn.close()
            records = read_journal(journal)
            sheds = {
                r["job"]: r["reason"] for r in records if r["type"] == "shed"
            }
            assert sheds["doomed"] == "expired"
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Event-driven loop: worker pipes and drain requests wake the selector
# ----------------------------------------------------------------------

#: A tick far above anything these tests wait for: a loop that only
#: notices worker traffic or a drain request on its tick fails them.
SLOW_TICK = 2.0


def _watched_workers(server):
    """Identities of the workers whose pipes the server's selector
    watches (``None`` when the serve thread mutated the map mid-read)."""
    try:
        keys = list(server._selector.get_map().values())
    except RuntimeError:
        return None
    return {id(key.data[1]) for key in keys if key.data[0] == "worker"}


class TestEventDrivenLoop:
    SMALL = {"max_states": 400, "max_depth": 24}

    def test_computed_verdict_answered_within_a_tick(self):
        with running_server(workers=1, tick=SLOW_TICK) as (server, client):
            warm = client.submit("secrecy", {"zoo": "yahalom"}, id="warm", **self.SMALL)
            assert warm["status"] == "ok"
            started = time.monotonic()
            reply = client.submit("secrecy", {"zoo": "woo-lam"}, id="timed", **self.SMALL)
            elapsed = time.monotonic() - started
            assert reply["status"] == "ok"
            assert elapsed < 1.0, f"verdict waited {elapsed:.2f}s for the loop"

    def test_killed_worker_is_noticed_through_pipe_eof(self):
        """A worker SIGKILLed mid-job closes its pipe; that EOF wakes the
        loop, which reaps the worker and re-dispatches the request at
        once (zero backoff) instead of at the next tick."""
        with running_server(
            workers=2, tick=SLOW_TICK, backoff_base=0.0, allow_fault_injection=True,
        ) as (server, client):
            # Two concurrent warm-ups, one per worker, so the retry finds
            # a warm worker instead of waiting for an import.
            warm = [raw_connect(server.config.socket_path) for _ in range(2)]
            for index, conn in enumerate(warm):
                send_frame(conn, {
                    "v": 1, "id": f"warm-{index}", "kind": "secrecy",
                    "target": {"zoo": "yahalom"}, **self.SMALL,
                })
            for conn in warm:
                assert recv_frame(conn)["status"] == "ok"
                conn.close()
            conn = raw_connect(server.config.socket_path)
            send_frame(conn, {
                "v": 1, "id": "victim", "kind": "secrecy",
                "target": {"zoo": "woo-lam"}, **self.SMALL,
                # Attempt 1 hangs in its first successor call; the retry
                # runs clean.
                "fault_plan": {"latency": 120.0}, "fault_attempts": [1],
            })
            [busy] = wait_until(lambda: server.pool.busy())
            killed_at = time.monotonic()
            os.kill(busy.pid, signal.SIGKILL)
            reply = recv_frame(conn)
            elapsed = time.monotonic() - killed_at
            conn.close()
            assert reply["status"] == "ok"
            assert elapsed < 1.0, f"retry answered {elapsed:.2f}s after the kill"
            counters = client.status()["metrics"]["counters"]
            assert counters["service.crashes"] == 1

    def test_selector_watches_exactly_the_live_workers(self):
        with running_server(workers=2, tick=SLOW_TICK) as (server, client):
            assert client.ping()["status"] == "pong"
            wait_until(lambda: server.pool.alive_count() == 2)
            victim = server.pool.workers()[0]
            os.kill(victim.pid, signal.SIGKILL)
            # Reaped and replaced well inside one tick.
            wait_until(
                lambda: server.pool.alive_count() == 2
                and all(w is not victim for w in server.pool.workers()),
                timeout=1.0,
            )
            live = {id(w) for w in server.pool.workers()}
            wait_until(lambda: _watched_workers(server) == live)
            assert id(victim) not in _watched_workers(server)

    def test_drain_wakes_an_idle_server(self):
        scratch = tempfile.mkdtemp(prefix="repro-svc-")
        sock_path = os.path.join(scratch, "serve.sock")
        options = dict(socket_path=sock_path, workers=1, **FAST_SERVER)
        options["tick"] = SLOW_TICK
        server = Server(ServerConfig(**options))
        server.bind()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(("unix", sock_path), timeout=120.0, retries=0)
            warm = client.submit("secrecy", {"zoo": "yahalom"}, id="warm", **self.SMALL)
            assert warm["status"] == "ok"
            # Idle: the client's hang-up has been served too, so the
            # loop is waiting on its selector with nothing to do.
            wait_until(lambda: not server._clients)
            started = time.monotonic()
            server.request_drain()
            thread.join(timeout=60)
            elapsed = time.monotonic() - started
            assert not thread.is_alive(), "server failed to drain"
            assert elapsed < 1.0, f"idle drain took {elapsed:.2f}s"
        finally:
            server.request_drain()
            thread.join(timeout=60)
            shutil.rmtree(scratch, ignore_errors=True)
