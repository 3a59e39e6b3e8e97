"""Tests for the fault-tolerant sharded cluster (``repro-spi cluster``).

Layered like the machinery itself:

* unit tests for the consistent-hash ring (determinism, minimal remap
  on member loss, failover order), the health monitor (breaker-backed
  ejection/recovery with injected clock and pinger), the incremental
  journal index (torn tails, corruption, truncation), and the respawn
  backoff;
* router units against *stub* shards — dead sockets and scripted
  replies — pinning the failover contract deterministically: journaled
  verdicts are returned ``cached`` and never recomputed, un-verdicted
  requests re-drive to the next owner, an empty ring sheds
  ``overloaded`` with a retry hint;
* one full integration test: a real router supervising three real
  ``serve`` shards, twelve verification jobs submitted concurrently
  through a retrying client, ``kill -9`` of a busy shard mid-batch —
  every job must come back with a verdict delivered **exactly once**
  (no job computed twice across the three shard journals, none lost)
  and each verdict must equal the single-process ``run_job`` baseline;
  then a drain that exits 0;
* a partitioned shard (``SIGSTOP``: alive, never answering) is ejected
  and its keys are answered by the survivors;
* the same story end to end through the real CLI (``cluster`` +
  ``submit --cluster``, ``cluster-status``), including a router
  ``kill -9``: its shards die with it, and a restart on the same
  ``--dir`` answers every job exactly once from the journals.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

import pytest

from repro.runtime.journal import Journal, JournalIndex, read_journal
from repro.runtime.worker import Job, run_job
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.framing import recv_frame, send_frame
from repro.service.health import HealthMonitor
from repro.service.protocol import protocol_key
from repro.service.router import ClusterError, Router, RouterConfig
from repro.service.shards import (
    HashRing,
    ShardSpec,
    backoff_delay,
    local_shard_argv,
)

ZOO = ["needham-schroeder-sk", "otway-rees", "yahalom", "woo-lam"]
KINDS = ["secrecy", "authentication", "freshness"]

#: Router knobs that make failure detection and respawn fast enough for
#: tests without busy-spinning.
FAST_CLUSTER = {
    "workers_per_shard": 1,
    "queue_limit": 16,
    "retries": 0,
    "health_interval": 0.1,
    "health_timeout": 2.0,
    "health_failures": 2,
    "health_cooldown": 0.3,
    "respawn_base": 0.1,
    "respawn_cap": 1.0,
    "breaker_cooldown": 0.5,
    "shard_drain_grace": 5.0,
    "drain_grace": 10.0,
    "tick": 0.02,
}


def wait_until(predicate, timeout: float = 60.0, interval: float = 0.05):
    """Poll an observable predicate (no bare sleeps in tests)."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process.  A killed process whose parent
    died is reparented, and may stay a zombie until its new parent reaps
    it, so the ``/proc`` state decides; a zombie is not running."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b") ", 1)[1][:1] != b"Z"
    except (OSError, IndexError):
        return False


def _result_counts(journal_paths) -> dict[str, int]:
    """Job id -> number of ``result`` records across the journals."""
    counts: dict[str, int] = {}
    for path in journal_paths:
        for record in read_journal(path):
            if record.get("type") == "result":
                counts[record["job"]] = counts.get(record["job"], 0) + 1
    return counts


def _assert_parity(jobs, replies) -> None:
    """Every served verdict equals the single-process baseline."""
    for job in jobs:
        baseline = run_job(job)
        served = replies[job.id]["result"]
        assert served["holds"] == baseline["holds"], job.id
        assert served["violated"] == baseline["violated"], job.id
        assert served["exact"] == baseline["exact"], job.id


class _Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------


class TestHashRing:
    def test_ownership_is_deterministic_across_instances(self):
        """sha256 points, not Python's salted hash: two rings built from
        the same members agree key by key (a router restart must not
        reshuffle the keyspace)."""
        members = [f"shard-{i:02d}" for i in range(4)]
        a, b = HashRing(members), HashRing(members)
        keys = [f"zoo:proto-{n}" for n in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_removal_remaps_only_the_lost_members_keys(self):
        members = [f"shard-{i:02d}" for i in range(4)]
        ring = HashRing(members)
        keys = [f"zoo:proto-{n}" for n in range(300)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("shard-02")
        for key in keys:
            after = ring.owner(key)
            if before[key] == "shard-02":
                assert after != "shard-02"
            else:
                assert after == before[key]  # survivors keep their keys

    def test_every_member_owns_a_fair_share(self):
        ring = HashRing([f"shard-{i:02d}" for i in range(3)], vnodes=64)
        keys = [f"zoo:proto-{n}" for n in range(900)]
        counts: dict[str, int] = {}
        for key in keys:
            counts[ring.owner(key)] = counts.get(ring.owner(key), 0) + 1
        assert len(counts) == 3
        assert min(counts.values()) > 900 // 3 // 3  # no starved member

    def test_owners_lists_distinct_failover_order(self):
        ring = HashRing(["a", "b", "c"])
        order = ring.owners("zoo:x")
        assert sorted(order) == ["a", "b", "c"]  # every member, once
        assert order[0] == ring.owner("zoo:x")
        assert ring.owner("zoo:x", exclude=frozenset({order[0]})) == order[1]

    def test_exhausted_ring_returns_none(self):
        ring = HashRing(["a", "b"])
        assert ring.owner("k", exclude=frozenset({"a", "b"})) is None
        assert HashRing([]).owner("k") is None
        assert HashRing([]).owners("k") == []

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing(["a"])
        ring.add("a")
        ring.remove("ghost")
        assert ring.members == frozenset({"a"})


# ----------------------------------------------------------------------
# Health monitor (injected clock + pinger: no sockets, no sleeps)
# ----------------------------------------------------------------------


class _ScriptedPinger:
    """Pings answer from a mutable per-shard script: a dict payload is a
    pong, an exception instance is raised."""

    def __init__(self):
        self.replies: dict[str, object] = {}
        self.pings: list[str] = []

    def __call__(self, address, timeout):
        self.pings.append(address)
        reply = self.replies[address]
        if isinstance(reply, Exception):
            raise reply
        return reply


def _monitor(clock, pinger, threshold=2, interval=1.0, cooldown=5.0):
    return HealthMonitor(
        interval=interval, timeout=0.1, threshold=threshold,
        cooldown=cooldown, clock=clock, pinger=pinger,
    )


class TestHealthMonitor:
    def test_consecutive_failures_eject(self):
        clock, pinger = _Clock(), _ScriptedPinger()
        monitor = _monitor(clock, pinger, threshold=2)
        monitor.watch("s0", "addr0")
        pinger.replies["addr0"] = ConnectionRefusedError("down")
        assert monitor.healthy("s0")  # new shards start healthy
        clock.now = 1.0
        assert monitor.sweep() == []  # first failure: under threshold
        clock.now = 2.0
        assert monitor.sweep() == [("s0", "ejected")]
        assert not monitor.healthy("s0")
        assert monitor.healthy_ids() == frozenset()

    def test_draining_pong_counts_as_failure(self):
        clock, pinger = _Clock(), _ScriptedPinger()
        monitor = _monitor(clock, pinger, threshold=1)
        monitor.watch("s0", "addr0")
        pinger.replies["addr0"] = {"status": "pong", "draining": True}
        clock.now = 1.0
        assert monitor.sweep() == [("s0", "ejected")]
        assert "draining" in monitor.snapshot()["s0"]["last_error"]

    def test_recovery_is_paced_by_breaker_cooldown(self):
        clock, pinger = _Clock(), _ScriptedPinger()
        monitor = _monitor(clock, pinger, threshold=1, cooldown=5.0)
        monitor.watch("s0", "addr0")
        pinger.replies["addr0"] = ConnectionRefusedError("down")
        clock.now = 1.0
        assert monitor.sweep() == [("s0", "ejected")]
        pinger.replies["addr0"] = {"status": "pong"}  # shard came back
        clock.now = 2.0
        assert monitor.sweep() == []  # cooldown not over: no probe yet
        clock.now = 6.5
        assert monitor.sweep() == [("s0", "recovered")]
        assert monitor.healthy("s0")

    def test_healthy_shards_probed_at_interval_not_every_sweep(self):
        clock, pinger = _Clock(), _ScriptedPinger()
        monitor = _monitor(clock, pinger, interval=1.0)
        monitor.watch("s0", "addr0")
        pinger.replies["addr0"] = {"status": "pong"}
        clock.now = 1.0
        monitor.sweep()
        monitor.sweep()  # same instant: not due again
        assert len(pinger.pings) == 1
        clock.now = 2.1
        monitor.sweep()
        assert len(pinger.pings) == 2

    def test_note_failure_ejects_without_waiting_for_probe(self):
        """Forwarding errors are health evidence: ejection latency is
        one failed request, not threshold x interval."""
        clock, pinger = _Clock(), _ScriptedPinger()
        monitor = _monitor(clock, pinger, threshold=2)
        monitor.watch("s0", "addr0")
        assert not monitor.note_failure("s0", "reset")  # 1/2
        assert monitor.note_failure("s0", "reset")  # 2/2 -> ejected now
        assert not monitor.healthy("s0")
        assert not monitor.note_failure("s0", "reset")  # already out

    def test_eject_is_immediate_on_conclusive_evidence(self):
        clock, pinger = _Clock(), _ScriptedPinger()
        monitor = _monitor(clock, pinger, threshold=3)
        monitor.watch("s0", "addr0")
        assert monitor.eject("s0", "process exited")  # one call, not 3
        assert not monitor.healthy("s0")
        assert not monitor.eject("s0", "again")  # second call: no transition

    def test_unknown_shards_are_inert(self):
        monitor = _monitor(_Clock(), _ScriptedPinger())
        assert not monitor.note_failure("ghost", "x")
        assert not monitor.note_success("ghost")
        assert not monitor.eject("ghost", "x")
        assert not monitor.check("ghost")


# ----------------------------------------------------------------------
# Journal index (the idempotency oracle)
# ----------------------------------------------------------------------


class TestJournalIndex:
    def test_sees_records_appended_after_open(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        index = JournalIndex(path)
        assert index.result("a") is None  # file does not exist yet
        journal = Journal(path)
        journal.append({"type": "result", "job": "a", "status": "ok"})
        assert index.result("a")["status"] == "ok"
        journal.append({"type": "result", "job": "b", "status": "fault"})
        assert index.result("b")["status"] == "fault"
        journal.close()

    def test_torn_tail_is_buffered_not_parsed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        whole = json.dumps({"type": "result", "job": "a", "status": "ok"}) + "\n"
        torn = json.dumps({"type": "result", "job": "b", "status": "ok"})
        with open(path, "w") as handle:
            handle.write(whole + torn[:10])  # writer died mid-line
        index = JournalIndex(path)
        assert index.result("a") is not None
        assert index.result("b") is None  # half a record is no record
        with open(path, "a") as handle:
            handle.write(torn[10:] + "\n")  # the line completes later
        assert index.result("b") is not None

    def test_corrupt_line_is_a_miss_not_a_crash(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write("{this is not json}\n")
            handle.write(json.dumps({"type": "result", "job": "a"}) + "\n")
        index = JournalIndex(path)
        assert index.result("a") is not None

    def test_truncation_resets_the_index(self, tmp_path):
        """A shard restart repairs torn tails by truncating; a shrink
        below the reader's offset must re-read, not mis-parse."""
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            for job in ("a", "b", "c"):
                handle.write(json.dumps({"type": "result", "job": job}) + "\n")
        index = JournalIndex(path)
        assert index.result("c") is not None
        with open(path, "w") as handle:  # replaced with a shorter file
            handle.write(json.dumps({"type": "result", "job": "z"}) + "\n")
        assert index.result("z") is not None
        assert index.result("c") is None

    def test_non_result_records_are_ignored(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"type": "shed", "job": "a"}) + "\n")
        assert JournalIndex(path).result("a") is None

    def test_tailing_concurrent_with_in_progress_append(self, tmp_path):
        """A reader polling while a live writer appends — the exact
        shape of a router deduping against a journal a shard is
        actively writing.  Every record must eventually be seen, none
        twice, and a poll that lands mid-write (torn tail) must simply
        complete on a later poll."""
        path = str(tmp_path / "j.jsonl")
        total = 400
        index = JournalIndex(path)
        seen: dict[str, dict] = {}
        stop = threading.Event()
        reader_error: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set() or len(seen) < total:
                    seen.update(index.records())
                    if len(seen) >= total:
                        break
            except BaseException as err:  # pragma: no cover - diagnostic
                reader_error.append(err)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            # An unbuffered raw writer lets us split one record across
            # two os.write calls, guaranteeing some polls race a torn
            # tail rather than hoping the scheduler obliges.
            with open(path, "wb", buffering=0) as handle:
                for n in range(total):
                    line = (
                        json.dumps(
                            {"type": "result", "job": f"job-{n}", "seq": n}
                        ).encode()
                        + b"\n"
                    )
                    cut = len(line) // 2
                    handle.write(line[:cut])
                    handle.write(line[cut:])
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive(), "reader never caught up"
        assert not reader_error, reader_error
        assert len(seen) == total
        for n in range(total):
            assert seen[f"job-{n}"]["seq"] == n
        # And the index never fabricated a record from a torn tail: a
        # final full refresh agrees with a from-scratch read.
        assert JournalIndex(path).records() == index.records()

    def test_pending_claim_tracks_admission_without_verdict(self, tmp_path):
        """``claim`` records mark in-flight work: a claim with no
        result is pending; a result resolves it; a respawned shard's
        fresh claim supersedes the old one."""
        path = str(tmp_path / "j.jsonl")
        index = JournalIndex(path)
        journal = Journal(path)
        journal.append({"type": "claim", "job": "a", "time": 1.0, "pid": 11})
        index.refresh()
        assert index.pending_claim("a")["pid"] == 11
        assert index.pending_claim("b") is None
        # A newer claim (another incarnation re-admitted) replaces it.
        journal.append({"type": "claim", "job": "a", "time": 2.0, "pid": 12})
        index.refresh()
        assert index.pending_claim("a")["pid"] == 12
        # The verdict resolves the claim.
        journal.append({"type": "result", "job": "a", "status": "ok"})
        index.refresh()
        assert index.pending_claim("a") is None
        assert index.result("a")["status"] == "ok"
        journal.close()

    def test_pending_claim_does_not_refresh(self, tmp_path):
        """The lookup is deliberately refresh-free (the routing hot
        path piggybacks on the dedupe sweep's refresh)."""
        path = str(tmp_path / "j.jsonl")
        index = JournalIndex(path)
        index.refresh()
        with Journal(path) as journal:
            journal.append({"type": "claim", "job": "a", "time": 1.0})
        assert index.pending_claim("a") is None  # not yet refreshed
        index.refresh()
        assert index.pending_claim("a") is not None


# ----------------------------------------------------------------------
# Shard helpers
# ----------------------------------------------------------------------


class TestShardHelpers:
    def test_backoff_doubles_and_caps(self):
        assert backoff_delay(0.25, 8.0, 1) == pytest.approx(0.25)
        assert backoff_delay(0.25, 8.0, 2) == pytest.approx(0.5)
        assert backoff_delay(0.25, 8.0, 4) == pytest.approx(2.0)
        assert backoff_delay(0.25, 8.0, 99) == pytest.approx(8.0)

    def test_local_shard_argv_always_rebuilds_breakers(self):
        argv = local_shard_argv(
            socket_path="/tmp/s.sock", journal_path="/tmp/s.jsonl",
            checkpoint_dir="/tmp/ck", workers=1, queue_limit=8, retries=0,
            job_deadline=None, breaker_threshold=3, breaker_cooldown=30.0,
            drain_grace=5.0, allow_fault_injection=False,
        )
        assert "--rebuild-breakers" in argv
        assert "--allow-fault-injection" not in argv
        assert argv[:3] == [sys.executable, "-m", "repro.cli"]


# ----------------------------------------------------------------------
# Router units against stub shards (no subprocesses)
# ----------------------------------------------------------------------


@contextmanager
def stub_shard(replies):
    """A scripted remote shard on a Unix socket: each accepted
    connection reads one frame and answers the next scripted reply
    (``None`` closes the connection without replying)."""
    scratch = tempfile.mkdtemp(prefix="repro-stubshard-")
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
                served.append(recv_frame(conn))
                if reply is not None:
                    send_frame(conn, reply)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield path, served
    finally:
        listener.close()
        thread.join(timeout=5)
        shutil.rmtree(scratch, ignore_errors=True)


def _stub_router(tmp_path, remotes, **overrides):
    options = dict(
        dir=str(tmp_path / "cluster"),
        socket_path=str(tmp_path / "router.sock"),
        shards=0,
        remote=tuple(remotes),
        health_failures=1,  # first forwarding error ejects
        forward_timeout=10.0,
    )
    options.update(overrides)
    return Router(RouterConfig(**options))


SECRECY = {
    "v": 1, "kind": "secrecy", "target": {"zoo": "yahalom"},
    "max_states": 400, "max_depth": 24,
}


class TestRouterUnits:
    def test_config_validation(self, tmp_path):
        with pytest.raises(ClusterError, match="socket|port"):
            Router(RouterConfig(dir=str(tmp_path), shards=1))
        with pytest.raises(ClusterError, match="shards"):
            Router(RouterConfig(
                dir=str(tmp_path), socket_path=str(tmp_path / "r.sock")
            ))

    def test_ping_and_status_answered_by_router(self, tmp_path):
        router = _stub_router(tmp_path, ["/nonexistent/shard.sock"])
        pong = router.handle_frame({"v": 1, "kind": "ping"})
        assert pong["status"] == "pong"
        assert pong["server"] == "repro-spi-cluster"
        status = router.handle_frame({"v": 1, "kind": "status"})
        assert status["status"] == "status"
        assert status["cluster"]["shards"] == 1
        assert "remote-00" in status["shards"]

    def test_forwarded_reply_is_tagged_with_its_shard(self, tmp_path):
        with stub_shard([
            {"status": "ok", "id": "secrecy:zoo:yahalom",
             "result": {"holds": True}},
        ]) as (path, served):
            router = _stub_router(tmp_path, [path])
            reply = router.handle_frame(dict(SECRECY))
        assert reply["status"] == "ok"
        assert reply["shard"] == "remote-00"
        assert "cached" not in reply
        # The forwarded frame carried the deterministic id, so the
        # shard journals under the exact key failover would dedupe on.
        assert served[0]["id"] == "secrecy:zoo:yahalom"

    def test_journaled_verdict_wins_over_recompute(self, tmp_path):
        """The exactly-once half of failover: the verdict is already in
        the (dead) owner's journal, so the router serves it ``cached``
        at admission — no forward is even attempted (the dead endpoint
        never sees a connection, so it is not ejected: the journal
        answered before the transport was consulted)."""
        journal_path = str(tmp_path / "dead-shard.jsonl")
        journal = Journal(journal_path)
        journal.append({
            "type": "result", "job": "secrecy:zoo:yahalom", "status": "ok",
            "protocol": "zoo:yahalom", "result": {"holds": True},
        })
        journal.close()
        router = _stub_router(tmp_path, ["/nonexistent/dead.sock"])
        router._shards["remote-00"].journal = JournalIndex(journal_path)
        reply = router.handle_frame(dict(SECRECY))
        assert reply["status"] == "ok"
        assert reply["cached"] is True
        assert reply["shard"] == "remote-00"
        assert reply["result"] == {"holds": True}
        assert router.metrics.counter("cluster.dedupe_hits").value == 1
        # Dedupe answered at admission: nothing was forwarded, so the
        # dead endpoint was never dialed and stays (nominally) healthy.
        assert router.metrics.counter("cluster.forwarded").value == 0
        assert router.health.healthy("remote-00")

    def test_journaled_fault_does_not_dedupe_at_admission(self, tmp_path):
        """Only ``ok`` verdicts dedupe at admission: a journaled *fault*
        stays retryable, so the request is forwarded (and here fails
        over onto the journaled degraded verdict, per failover
        semantics)."""
        journal_path = str(tmp_path / "dead-shard.jsonl")
        journal = Journal(journal_path)
        journal.append({
            "type": "result", "job": "secrecy:zoo:yahalom", "status": "fault",
            "protocol": "zoo:yahalom", "result": {"holds": None},
            "error": "degraded",
        })
        journal.close()
        router = _stub_router(tmp_path, ["/nonexistent/dead.sock"])
        router._shards["remote-00"].journal = JournalIndex(journal_path)
        reply = router.handle_frame(dict(SECRECY))
        # Forwarding was attempted (transport failure), then failover
        # dedupe served the journaled fault as degraded-cached.
        assert reply["status"] == "degraded"
        assert reply["cached"] is True
        assert router.metrics.counter("cluster.forwarded").value == 1
        assert not router.health.healthy("remote-00")

    def test_unjournaled_request_redrives_to_next_owner(self, tmp_path):
        """The other half: the owner died *before* journaling, so the
        request is re-driven to the next live owner — computed once,
        there."""
        with stub_shard([
            {"status": "ok", "id": "secrecy:zoo:yahalom",
             "result": {"holds": True}},
        ]) as (path, served):
            router = _stub_router(tmp_path, ["/nonexistent/dead.sock", path])
            reply = router.handle_frame(dict(SECRECY))
        assert reply["status"] == "ok"
        assert reply["shard"] in ("remote-00", "remote-01")
        assert len(served) == 1
        # Whichever order the ring tried, the dead endpoint is ejected
        # and the metrics narrate at most one failover.
        assert not router.health.healthy(
            "remote-00" if reply["shard"] == "remote-01" else "remote-01"
        ) or router.metrics.counter("cluster.failovers").value == 0

    def test_claim_wait_redrives_the_ejected_claim_holder(self, tmp_path):
        """A failed transport is not a failed computation: the owner
        lost the reply, was ejected for it, but its process is alive
        and its journal holds an unresolved claim for the id.  The
        re-drive must go back to that shard (claim pinning), never to
        the ring successor, which would compute the job a second
        time."""
        job_id = "secrecy:zoo:yahalom"
        members = ["remote-00", "remote-01"]
        owner = HashRing(members).owner(protocol_key(SECRECY["target"]))
        ok = {"status": "ok", "id": job_id, "result": {"holds": True}}
        with stub_shard([None, ok]) as (holder, held), \
                stub_shard([ok]) as (successor, succeeded):
            paths = [holder, successor]
            if owner != members[0]:
                paths.reverse()
            router = _stub_router(tmp_path, paths)
            journal_path = str(tmp_path / "owner.jsonl")
            journal = Journal(journal_path)
            journal.append({"type": "claim", "job": job_id, "time": 1.0})
            journal.close()
            shard = router._shards[owner]
            shard.journal = JournalIndex(journal_path)
            # A live local process: the only liveness signal that
            # survives ejection.
            shard.process = type("Alive", (), {"alive": lambda self: True})()
            reply = router.handle_frame(dict(SECRECY))
        assert reply["status"] == "ok", reply
        assert reply["shard"] == owner
        assert len(held) == 2 and succeeded == []
        assert not router.health.healthy(owner)
        assert router.metrics.counter("cluster.claim_waits").value == 1

    def test_empty_ring_sheds_overloaded_with_retry_hint(self, tmp_path):
        router = _stub_router(tmp_path, ["/nonexistent/a.sock"])
        first = router.handle_frame(dict(SECRECY))  # burns the only shard
        assert first["status"] == "overloaded"
        assert first["retry_after"] > 0
        second = router.handle_frame(dict(SECRECY))  # ring now empty
        assert second["status"] == "overloaded"
        assert router.metrics.counter("cluster.no_shard").value >= 1

    def test_draining_router_refuses_new_work(self, tmp_path):
        router = _stub_router(tmp_path, ["/nonexistent/a.sock"])
        router.request_drain()
        reply = router.handle_frame(dict(SECRECY))
        assert reply["status"] == "draining"

    def test_malformed_frame_is_an_error_not_a_crash(self, tmp_path):
        router = _stub_router(tmp_path, ["/nonexistent/a.sock"])
        reply = router.handle_frame({"v": 1, "kind": "nonsense"})
        assert reply["status"] == "error"


class TestCrossCheck:
    """Unit coverage for ``--cross-check``: sampling determinism,
    divergence scoring, journaling, and the quarantine breaker.  The
    shadow shard itself is exercised by the integration test below."""

    def _router(self, tmp_path, rate):
        router = _stub_router(
            tmp_path, ["/nonexistent/shard.sock"], cross_check=rate
        )
        os.makedirs(router.config.dir, exist_ok=True)
        return router

    def test_rate_validation(self, tmp_path):
        for bad in (-0.1, 1.5):
            with pytest.raises(ClusterError, match="cross-check"):
                self._router(tmp_path, bad)

    def test_sampling_is_deterministic_and_rate_bounded(self, tmp_path):
        router = self._router(tmp_path, 0.5)
        reply = {"status": "ok", "result": {"holds": True}, "shard": "s"}

        def sampled_ids():
            while not router._xcheck_queue.empty():
                router._xcheck_queue.get()
            for i in range(200):
                router._maybe_cross_check(
                    "zoo:yahalom", {"id": f"job-{i}"}, dict(reply)
                )
            ids = set()
            while not router._xcheck_queue.empty():
                ids.add(router._xcheck_queue.get()[1]["id"])
            return ids

        first = sampled_ids()
        # Rate-bounded: roughly half of 200, never all or none.
        assert 50 <= len(first) <= 150
        # Deterministic: a re-driven population makes identical choices.
        assert sampled_ids() == first

    def test_only_fresh_ok_nonviolated_verdicts_qualify(self, tmp_path):
        router = self._router(tmp_path, 1.0)
        outbound = {"id": "secrecy:zoo:yahalom"}
        for reply in (
            {"status": "degraded", "error": "x"},
            {"status": "ok", "result": {"holds": True}, "cached": True},
            {"status": "ok", "result": {"violated": True, "witness": {}}},
            {"status": "ok", "result": "not-a-dict"},
        ):
            router._maybe_cross_check("zoo:yahalom", outbound, reply)
        assert router._xcheck_queue.empty()
        router._maybe_cross_check(
            "zoo:yahalom", outbound,
            {"status": "ok", "result": {"holds": True}},
        )
        assert router._xcheck_queue.qsize() == 1
        assert router._xcheck_stats["sampled"] == 1

    def test_results_agree_compares_only_shared_verdict_fields(self):
        agree = Router._results_agree
        assert agree({"holds": True}, {"holds": True, "states": 999})
        assert agree({"holds": True}, {"secure": False})  # nothing shared
        assert not agree({"holds": True}, {"holds": False})
        assert not agree(
            {"violated": False, "holds": True},
            {"violated": True, "holds": True},
        )

    def test_divergence_journals_trips_breaker_and_quarantines(
        self, tmp_path
    ):
        router = self._router(tmp_path, 1.0)
        key = "zoo:yahalom"
        # Feed the scoring loop one divergent sample, then the shutdown
        # sentinel; the shadow call is answered by a stub shard so the
        # loop exercises its real client path.
        with stub_shard([
            {"status": "ok", "id": "secrecy:zoo:yahalom",
             "result": {"holds": False}},
        ]) as (path, served):
            router._xcheck.spec = ShardSpec(id="xcheck", address=("unix", path))
            router._xcheck_queue.put((
                key,
                {"id": "secrecy:zoo:yahalom", "v": 1, "kind": "secrecy",
                 "target": {"zoo": "yahalom"}},
                {"status": "ok", "shard": "shard-00",
                 "result": {"holds": True}},
            ))
            router._xcheck_queue.put(None)
            router._xcheck_loop()
        assert len(served) == 1
        assert router._xcheck_stats["divergent"] == 1
        # One divergence is a wrong verdict somewhere: quarantined now.
        assert not router._xcheck_board.get(key).allow()
        status = router.status()["crosscheck"]
        assert status["divergent"] == 1
        assert status["quarantined"] == [key]
        # The divergence record is durable and replayable from disk.
        lines = [
            json.loads(line)
            for line in open(
                os.path.join(router.config.dir, "crosscheck.jsonl"),
                encoding="utf-8",
            )
        ]
        assert lines[0]["type"] == "divergence"
        assert lines[0]["protocol"] == key
        assert lines[0]["primary"] == {"holds": True}
        assert lines[0]["crosscheck"] == {"holds": False}
        # And the router now degrades (retryably) instead of serving
        # more confidently-wrong answers for this protocol.
        reply = router.handle_frame(dict(SECRECY))
        assert reply["status"] == "degraded"
        assert "quarantined" in reply["error"]
        assert router.metrics.counter("crosscheck.quarantined").value == 1

    def test_agreement_closes_a_probing_quarantine(self, tmp_path):
        router = self._router(tmp_path, 0.000001)
        key = "zoo:yahalom"
        with router._lock:
            router._xcheck_board.get(key).record_fault("seeded divergence")
        # While the breaker is non-CLOSED every qualifying verdict is
        # force-sampled regardless of the (tiny) configured rate.
        router._maybe_cross_check(
            key, {"id": "probe-1"},
            {"status": "ok", "result": {"holds": True}},
        )
        assert router._xcheck_queue.qsize() == 1
        with stub_shard([
            {"status": "ok", "id": "probe-1", "result": {"holds": True}},
        ]) as (path, served):
            router._xcheck.spec = ShardSpec(id="xcheck", address=("unix", path))
            router._xcheck_queue.put(None)
            router._xcheck_loop()
        assert router._xcheck_stats["agreed"] == 1
        # record_success closed the breaker: the quarantine lifts.
        assert router._xcheck_board.get(key).allow()
        assert router.status()["crosscheck"]["quarantined"] == []

    def test_shadow_error_is_not_a_divergence(self, tmp_path):
        router = self._router(tmp_path, 1.0)
        key = "zoo:yahalom"
        # The shadow endpoint does not exist: absence of a second
        # opinion must score as an error, never trip the quarantine.
        router._xcheck_queue.put((
            key, {"id": "secrecy:zoo:yahalom"},
            {"status": "ok", "shard": "shard-00",
             "result": {"holds": True}},
        ))
        router._xcheck_queue.put(None)
        router._xcheck_loop()
        assert router._xcheck_stats["errors"] == 1
        assert router._xcheck_stats["divergent"] == 0
        assert router._xcheck_board.get(key).allow()
        assert not os.path.exists(
            os.path.join(router.config.dir, "crosscheck.jsonl")
        )


# ----------------------------------------------------------------------
# Integration: real router, real shards, real crashes
# ----------------------------------------------------------------------


@contextmanager
def running_cluster(shards=3, **overrides):
    """A live cluster in a short-lived temp dir.

    Yields ``(router, client)``; tears down by draining and asserting
    the routing loop exits 0 — every integration test is therefore also
    a drain test.
    """
    scratch = tempfile.mkdtemp(prefix="repro-cl-")
    options = dict(
        dir=os.path.join(scratch, "c"),
        socket_path=os.path.join(scratch, "router.sock"),
        shards=shards,
        **FAST_CLUSTER,
    )
    options.update(overrides)
    router = Router(RouterConfig(**options))
    router.bind()
    exit_code: list[int] = []
    thread = threading.Thread(
        target=lambda: exit_code.append(router.serve_forever()), daemon=True
    )
    thread.start()
    client = ServiceClient(
        ("unix", options["socket_path"]), timeout=120.0, retries=5,
        backoff_base=0.05, backoff_cap=0.5,
    )
    try:
        # Ready means *proven* ready: every shard has answered a ping
        # (new shards start optimistically healthy, which is not the
        # same thing), and the discovery file is on disk.
        wait_until(lambda: all(
            h["last_pong"] for h in router.health.snapshot().values()
        ) and len(router.health.healthy_ids()) == shards)
        yield router, client
    finally:
        router.request_drain()
        thread.join(timeout=90)
        alive = thread.is_alive()
        shutil.rmtree(scratch, ignore_errors=True)
        assert not alive, "cluster failed to drain"
        assert exit_code == [0], f"drain exited {exit_code}"


def _zoo_jobs():
    return [
        Job(
            id=f"{kind}:zoo:{name}", kind=kind, target={"zoo": name},
            max_states=2000, max_depth=40,
        )
        for kind in KINDS
        for name in ZOO
    ]


class TestClusterIntegration:
    def test_kill_nine_mid_batch_exactly_once_with_parity(self):
        """The tentpole contract end to end: 12 jobs through a 3-shard
        cluster, one shard killed -9 while busy.  Every job gets a
        verdict, no verdict is computed twice (exactly one ``result``
        record per job across all shard journals), every verdict equals
        the single-process baseline, and the drain exits 0."""
        jobs = _zoo_jobs()
        replies: dict[str, dict] = {}
        errors: list[str] = []
        with running_cluster(shards=3) as (router, client):
            journals = [
                shard.spec.journal_path for shard in router._shards.values()
            ]

            def submit(job):
                try:
                    local = ServiceClient(
                        client.addresses, timeout=120.0, retries=8,
                        backoff_base=0.05, backoff_cap=0.5,
                    )
                    replies[job.id] = local.submit(
                        job.kind, job.target,
                        id=job.id, max_states=job.max_states,
                        max_depth=job.max_depth,
                    )
                except ServiceUnavailable as err:
                    errors.append(f"{job.id}: {err}")

            threads = [
                threading.Thread(target=submit, args=(job,)) for job in jobs
            ]
            for thread in threads:
                thread.start()

            def busy_local_pid():
                for shard in router._shards.values():
                    if shard.inflight and shard.process is not None:
                        pid = shard.process.pid
                        if pid is not None and shard.process.alive():
                            return pid
                return None

            victim = wait_until(busy_local_pid, timeout=60.0, interval=0.005)
            os.kill(victim, signal.SIGKILL)

            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads), "submits hung"
            assert not errors, errors

            # Every job came back with a usable verdict.
            assert set(replies) == {job.id for job in jobs}
            for job_id, reply in replies.items():
                assert reply["status"] == "ok", (job_id, reply)

            # The kill actually exercised failover machinery.
            crashes = router.metrics.counter("cluster.shard_deaths").value
            failovers = router.metrics.counter("cluster.failovers").value
            dedupes = router.metrics.counter("cluster.dedupe_hits").value
            assert crashes >= 1
            assert failovers + dedupes >= 1

            # ...and the victim came back: respawned and recovered.
            wait_until(lambda: len(router.health.healthy_ids()) == 3)
            assert router.metrics.counter("cluster.respawns").value >= 1

            # Read the journals before teardown deletes the temp dir.
            counts = _result_counts(journals)

        # Exactly once: each job has exactly one result record across
        # every shard journal — none lost, none computed twice.
        assert counts == {job.id: 1 for job in jobs}
        _assert_parity(jobs, replies)

    def test_partitioned_shard_fails_over_to_survivors(self):
        """A stopped shard is a network partition: the process is alive
        but never answers.  It must be ejected, and a request it owns
        must be answered by a survivor — no verdict lost."""
        target = {"zoo": "yahalom"}
        # A stopped probe rides its full timeout in the router loop,
        # so keep that timeout tight.
        with running_cluster(
            shards=3, health_timeout=0.4, forward_timeout=2.0
        ) as (router, client):
            owner = router._ring.owner(protocol_key(target))
            pid = router._shards[owner].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                wait_until(lambda: not router.health.healthy(owner))
                reply = client.submit(
                    "secrecy", target, id="secrecy:zoo:yahalom",
                    max_states=2000, max_depth=40,
                )
                assert reply["status"] == "ok", reply
                assert reply["shard"] != owner
                assert router._shards[owner].process.alive()
            finally:
                # Resumed, it can run its own drain: teardown exits 0.
                os.kill(pid, signal.SIGCONT)

    def test_status_reports_topology(self):
        with running_cluster(shards=2) as (router, client):
            status = client.status()
            assert status["cluster"]["shards"] == 2
            assert status["cluster"]["healthy"] == 2
            assert sorted(status["ring"]["members"]) == [
                "shard-00", "shard-01",
            ]
            for row in status["shards"].values():
                assert row["alive"] is True
                assert row["health"]["healthy"] is True
            pong = client.ping()
            assert pong["server"] == "repro-spi-cluster"
            assert pong["shards"] == 2

    def test_discovery_file_names_router_and_shards(self):
        with running_cluster(shards=2) as (router, client):
            discovery_path = os.path.join(router.config.dir, "cluster.json")
            with open(discovery_path, encoding="utf-8") as handle:
                discovery = json.load(handle)
            assert discovery["router"]["socket"] == router.config.socket_path
            assert set(discovery["shards"]) == {"shard-00", "shard-01"}
            for shard in discovery["shards"].values():
                assert shard["local"] is True
                assert shard["journal"]


class TestClusterCli:
    def test_cluster_cli_serves_and_drains(self, tmp_path):
        """End to end through the real CLI: boot a 2-shard cluster,
        submit through ``--cluster`` discovery, SIGTERM, assert exit 0
        and no orphaned shard processes."""
        scratch = tempfile.mkdtemp(prefix="repro-clcli-")
        cluster_dir = os.path.join(scratch, "c")
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "cluster",
                "--dir", cluster_dir,
                "--socket", os.path.join(scratch, "router.sock"),
                "--shards", "2", "--workers-per-shard", "1",
                "--health-interval", "0.2", "--health-cooldown", "0.5",
                "--respawn-base", "0.1", "--shard-drain-grace", "5",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            wait_until(
                lambda: os.path.exists(os.path.join(cluster_dir, "cluster.json"))
            )
            submit = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "submit",
                    "secrecy", "yahalom", "--cluster", cluster_dir,
                    "--max-states", "400", "--max-depth", "24",
                    "--connect-retries", "8", "--json",
                ],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert submit.returncode == 0, submit.stdout + submit.stderr
            reply = json.loads(submit.stdout)
            assert reply["status"] == "ok"
            assert reply["shard"] in ("shard-00", "shard-01")

            shard_pids = [
                shard["pid"]
                for shard in json.loads(subprocess.run(
                    [
                        sys.executable, "-m", "repro.cli", "submit",
                        "status", "--cluster", cluster_dir, "--json",
                        "--connect-retries", "8",
                    ],
                    env=env, capture_output=True, text=True, timeout=60,
                ).stdout)["shards"].values()
            ]
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
        for pid in shard_pids:  # drain propagated: no orphans
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_cluster_status_table_and_json(self):
        """``cluster-status`` renders the health table and the raw
        status frame against a real CLI cluster."""
        scratch = tempfile.mkdtemp(prefix="repro-cstat-")
        cluster_dir = os.path.join(scratch, "c")
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster",
             "--dir", cluster_dir,
             "--socket", os.path.join(scratch, "router.sock"),
             "--shards", "2", "--workers-per-shard", "1",
             "--health-interval", "0.2", "--shard-drain-grace", "5"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            wait_until(
                lambda: os.path.exists(os.path.join(cluster_dir, "cluster.json"))
            )
            status = subprocess.run(
                [sys.executable, "-m", "repro.cli", "cluster-status",
                 cluster_dir],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert status.returncode == 0, status.stdout + status.stderr
            assert "router pid" in status.stdout
            assert "shard-00" in status.stdout and "shard-01" in status.stdout
            assert "SHARD" in status.stdout and "BREAKER" in status.stdout

            raw = subprocess.run(
                [sys.executable, "-m", "repro.cli", "cluster-status",
                 cluster_dir, "--json"],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert raw.returncode == 0, raw.stdout + raw.stderr
            frame = json.loads(raw.stdout)
            assert frame["cluster"]["pid"] == proc.pid
            assert set(frame["shards"]) == {"shard-00", "shard-01"}

            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
            shutil.rmtree(scratch, ignore_errors=True)
        assert proc.returncode == 0, output

    def test_cluster_status_unreachable_exits_2(self, tmp_path):
        directory = str(tmp_path)
        with open(os.path.join(directory, "cluster.json"), "w") as handle:
            json.dump(
                {"router": {"socket": str(tmp_path / "gone.sock")}}, handle
            )
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster-status", directory],
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "unreachable" in result.stdout

    def test_router_kill_nine_takes_its_shards_and_restart_recovers(self):
        """``kill -9`` the router of a 3-shard CLI cluster while a shard
        is busy.  Every shard it named in ``cluster.json`` must die with
        it; a router restarted on the same ``--dir`` must answer every
        job ``ok``, with exactly one ``result`` record per job across
        the shard journals and every verdict equal to ``run_job``."""
        jobs = _zoo_jobs()
        scratch = tempfile.mkdtemp(prefix="repro-rk9-")
        cluster_dir = os.path.join(scratch, "c")
        sock = os.path.join(scratch, "router.sock")
        env = dict(os.environ, PYTHONPATH="src")
        argv = [
            sys.executable, "-m", "repro.cli", "cluster",
            "--dir", cluster_dir, "--socket", sock,
            "--shards", "3", "--workers-per-shard", "1",
            "--health-interval", "0.2", "--health-cooldown", "0.5",
            "--respawn-base", "0.1", "--shard-drain-grace", "5",
        ]

        def launch():
            return subprocess.Popen(
                argv, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
            )

        def status():
            try:
                return ServiceClient(("unix", sock), timeout=5.0, retries=0).status()
            except ServiceUnavailable:
                return {}

        def ready():
            shards = (status().get("shards") or {}).values()
            return len(shards) == 3 and all(
                row["health"]["healthy"] and row["health"]["last_pong"]
                for row in shards
            )

        def submit(job, replies, retries):
            client = ServiceClient(
                ("unix", sock), timeout=120.0, retries=retries,
                backoff_base=0.05, backoff_cap=0.5,
            )
            try:
                replies[job.id] = client.submit(
                    job.kind, job.target, id=job.id,
                    max_states=job.max_states, max_depth=job.max_depth,
                )
            except ServiceUnavailable:
                pass  # the router died under this request

        procs = [launch()]
        shard_pids: list[int] = []
        try:
            wait_until(ready)
            threads = [
                threading.Thread(target=submit, args=(job, {}, 0))
                for job in jobs
            ]
            for thread in threads:
                thread.start()
            wait_until(lambda: any(
                row["inflight"] for row in
                (status().get("shards") or {}).values()
            ), interval=0.005)
            with open(os.path.join(cluster_dir, "cluster.json")) as handle:
                discovery = json.load(handle)
            shard_pids = [info["pid"] for info in discovery["shards"].values()]
            assert len(shard_pids) == 3 and all(shard_pids)
            procs[0].send_signal(signal.SIGKILL)
            procs[0].communicate(timeout=30)
            wait_until(
                lambda: not any(running(pid) for pid in shard_pids),
                timeout=5.0,
            )
            for thread in threads:
                thread.join(timeout=60)

            procs.append(launch())
            wait_until(ready)
            replies: dict[str, dict] = {}
            threads = [
                threading.Thread(target=submit, args=(job, replies, 8))
                for job in jobs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert set(replies) == {job.id for job in jobs}
            for job_id, reply in replies.items():
                assert reply["status"] == "ok", (job_id, reply)
            counts = _result_counts(
                os.path.join(cluster_dir, f"shard-{i:02d}.jsonl")
                for i in range(3)
            )

            procs[1].send_signal(signal.SIGTERM)
            output, _ = procs[1].communicate(timeout=120)
            assert procs[1].returncode == 0, output
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate(timeout=30)
            for pid in shard_pids:  # orphans, should the shards outlive it
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            shutil.rmtree(scratch, ignore_errors=True)

        assert counts == {job.id: 1 for job in jobs}
        _assert_parity(jobs, replies)
