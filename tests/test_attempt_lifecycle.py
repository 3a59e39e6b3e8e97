"""Tests for the attempt lifecycle that ``suite`` and ``serve`` share.

No processes: a :class:`FakePool` stands in for
:class:`~repro.runtime.supervisor.WorkerPool` and answers every
dispatched attempt from a script, as the synthetic pool events a real
worker would have produced (a result, an in-worker error, or a death).
``run_suite`` and :class:`~repro.service.server.Server` then run their
real policy code over those events: retries after the backoff, fault
verdicts once retries are spent, journal records, and the one policy
difference — an in-worker error is retried by the suite but answered
``error`` by the service.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.metrics import collecting
from repro.runtime import supervisor
from repro.runtime.exhaustion import Exhaustion
from repro.runtime.journal import read_journal
from repro.runtime.supervisor import (
    FAULT,
    OK,
    PoolEvent,
    _Worker,
    backoff_delay,
    run_suite,
)
from repro.runtime.worker import Job
from repro.service import protocol, server as server_module, shards
from repro.service.server import Server, ServerConfig

JOB = Job(id="zoo:yahalom:secrecy", kind="secrecy", target={"zoo": "yahalom"})
FRAME = {"v": 1, "id": JOB.id, "kind": "secrecy", "target": {"zoo": "yahalom"}}
VERDICT = {"kind": "secrecy", "exact": True, "violated": False, "summary": "kept"}
CERT = "CertificationError: witness did not replay"
PLAIN = "JobError: unknown zoo protocol"
DEATH = "worker died on signal 9"
BACKOFF = {"backoff_base": 0.02, "backoff_cap": 0.05}

#: The result-record fields both callers write; serve adds ``protocol``.
RESULT_FIELDS = {
    "type", "job", "status", "attempts", "elapsed", "result", "error", "events",
}


class FakePool:
    """A process-free pool: ``script(job_id, attempt)`` returns the reply
    to each dispatch — ``("result", dict)``, ``("error", str)`` or
    ``("exit", description)`` — delivered on the next :meth:`poll`."""

    def __init__(self, script, size=1):
        self.script = script
        self.size = size
        self.spawned = 0
        self.exhausted = False
        self.dispatched: list[tuple[float, dict, object]] = []
        self._workers: list[_Worker] = []
        self._replies: list[tuple[_Worker, str, tuple]] = []

    def ensure(self, target=None):
        goal = self.size if target is None else min(target, self.size)
        while len(self._workers) < goal:
            self._workers.append(_Worker(index=self.spawned, proc=None, conn=None))
            self.spawned += 1

    def alive_count(self):
        return len(self._workers)

    def idle(self):
        return [w for w in self._workers if w.current is None]

    def busy(self):
        return [w for w in self._workers if w.current is not None]

    def dispatch(self, worker, payload, current, hard_deadline=None):
        worker.current = current
        self.dispatched.append((time.monotonic(), payload, hard_deadline))
        reply = self.script(payload["job"]["id"], payload["attempt"])
        self._replies.append((worker, payload["job"]["id"], reply))
        return True

    def release(self, worker):
        worker.current = None

    def kill(self, worker, reason):
        worker.kill_reason = reason

    def poll(self, timeout=0.1):
        events = []
        for worker, job_id, (kind, value) in self._replies:
            if kind == "exit":
                self._workers.remove(worker)
                events.append(PoolEvent("exit", worker, description=value))
            else:
                message = {"type": kind, "job": job_id, kind: value}
                events.append(PoolEvent("message", worker, message=message))
        self._replies.clear()
        return events

    def shutdown(self, timeout=2.0):
        self._workers.clear()


def scripted(*replies):
    """Answer attempt ``n`` with ``replies[n - 1]`` (the last repeats)."""
    return lambda job_id, attempt: replies[min(attempt, len(replies)) - 1]


# ----------------------------------------------------------------------
# Harnesses: the real suite and serve policies over a FakePool
# ----------------------------------------------------------------------


def run_suite_on(monkeypatch, tmp_path, script, **options):
    pools = []

    def make_pool(size, **_):
        pools.append(FakePool(script, size))
        return pools[-1]

    monkeypatch.setattr(supervisor, "WorkerPool", make_pool)
    journal = str(tmp_path / "suite.jsonl")
    with collecting() as metrics:
        report = run_suite([JOB], workers=1, journal_path=journal, **options)
    counters = metrics.to_json()["counters"]
    return report, read_journal(journal), counters, pools[0]


class ServeHarness:
    """A :class:`Server` whose pool is a :class:`FakePool` and whose
    replies are collected instead of sent; the loop is stepped by
    hand."""

    def __init__(self, monkeypatch, tmp_path, script, **options):
        monkeypatch.setattr(
            server_module, "WorkerPool", lambda size, **_: FakePool(script, size)
        )
        self.journal_path = str(tmp_path / "serve.jsonl")
        self.server = Server(ServerConfig(
            socket_path=str(tmp_path / "s.sock"),
            workers=1,
            journal_path=self.journal_path,
            **options,
        ))
        self.replies: list[dict] = []
        self.closed = False
        self.server._respond = lambda client, message: self.replies.append(message)

    def submit(self, frame=FRAME, timeout=10.0) -> dict:
        self.server._handle_frame(None, dict(frame))
        deadline = time.monotonic() + timeout
        while not self.replies:
            assert time.monotonic() < deadline, "no reply"
            self.server.lifecycle.poll(timeout=0)
            self.server.pool.ensure()
            self.server._dispatch_ready(time.monotonic())
        return self.replies.pop()

    def close(self) -> list[dict]:
        self.closed = True
        self.server._shutdown()
        return read_journal(self.journal_path)

    @property
    def counters(self) -> dict:
        return self.server.metrics.to_json()["counters"]


@pytest.fixture
def serve(monkeypatch, tmp_path):
    harnesses = []

    def make(script, **options):
        harnesses.append(ServeHarness(monkeypatch, tmp_path, script, **options))
        return harnesses[-1]

    yield make
    for harness in harnesses:
        if not harness.closed:
            harness.close()


def results(records):
    return [r for r in records if r["type"] == "result"]


def fault_verdict(record):
    """The fault verdict the record should carry, rebuilt from its own
    elapsed time: nothing checkpointed, the record's error as detail."""
    exhaustion = record["result"]["exhaustion"]
    return Exhaustion(
        ("fault",), states=0, elapsed=exhaustion["elapsed"], detail=record["error"]
    ).verdict("secrecy")


# ----------------------------------------------------------------------
# Backoff
# ----------------------------------------------------------------------


class TestBackoff:
    def test_plain_capped_exponential(self):
        assert [backoff_delay(0.25, 8.0, n) for n in (1, 2, 3, 4, 9)] == [
            0.25, 0.5, 1.0, 2.0, 8.0,
        ]

    def test_full_jitter_spans_zero_to_the_ceiling(self):
        assert backoff_delay(0.25, 8.0, 3, rng=lambda: 0.0) == 0.0
        assert backoff_delay(0.25, 8.0, 3, rng=lambda: 0.5) == 0.5
        assert backoff_delay(0.25, 8.0, 3, rng=lambda: 1.0) == 1.0

    def test_half_to_full_jitter_never_retries_at_once(self):
        assert backoff_delay(0.25, 8.0, 3, rng=lambda: 0.0, floor=0.5) == 0.5
        assert backoff_delay(0.25, 8.0, 3, rng=lambda: 1.0, floor=0.5) == 1.0

    def test_shards_keep_exporting_the_runtime_function(self):
        assert shards.backoff_delay is backoff_delay


# ----------------------------------------------------------------------
# Certification failures: retried, then a fault verdict
# ----------------------------------------------------------------------


class TestCertificationFailure:
    def test_suite_retries_after_the_backoff(self, monkeypatch, tmp_path):
        report, records, counters, pool = run_suite_on(
            monkeypatch, tmp_path,
            scripted(("error", CERT), ("result", VERDICT)),
            retries=1, **BACKOFF,
        )
        (outcome,) = report.outcomes
        assert outcome.status == OK and outcome.attempts == 2
        assert outcome.events == (f"attempt 1: {CERT}",)
        first, second = pool.dispatched[0][0], pool.dispatched[1][0]
        assert second - first >= BACKOFF["backoff_base"]  # unjittered
        assert counters["witness.failed"] == 1
        assert [r["status"] for r in results(records)] == [OK]

    def test_suite_degrades_when_retries_are_spent(self, monkeypatch, tmp_path):
        report, records, counters, _ = run_suite_on(
            monkeypatch, tmp_path, scripted(("error", CERT)), retries=1, **BACKOFF
        )
        (outcome,) = report.outcomes
        assert outcome.status == FAULT and outcome.attempts == 2
        assert counters["witness.failed"] == 2
        (record,) = results(records)
        assert record["status"] == FAULT
        assert record["error"] == f"attempt 2: {CERT}"
        assert record["events"] == [f"attempt 1: {CERT}", f"attempt 2: {CERT}"]
        assert record["result"] == fault_verdict(record)

    def test_serve_retries_after_the_backoff(self, serve):
        harness = serve(
            scripted(("error", CERT), ("result", VERDICT)), retries=1, **BACKOFF
        )
        reply = harness.submit()
        assert reply["status"] == protocol.OK and reply["result"] == VERDICT
        dispatched = harness.server.pool.dispatched
        assert [payload["attempt"] for _, payload, _ in dispatched] == [1, 2]
        # Half-to-full jitter: at least half the base delay.
        assert dispatched[1][0] - dispatched[0][0] >= BACKOFF["backoff_base"] / 2
        assert harness.counters["witness.failed"] == 1
        (record,) = results(harness.close())
        assert record["status"] == OK and record["attempts"] == 2
        assert record["events"] == [f"attempt 1: {CERT}"]

    def test_serve_degrades_when_retries_are_spent(self, serve):
        harness = serve(scripted(("error", CERT)), retries=1, **BACKOFF)
        reply = harness.submit()
        assert reply["status"] == protocol.DEGRADED
        assert reply["error"] == CERT
        assert harness.counters["witness.failed"] == 2
        assert harness.counters["service.degraded"] == 1
        (record,) = results(harness.close())
        assert record["status"] == FAULT and record["attempts"] == 2
        assert record["error"] == CERT
        assert record["events"] == [f"attempt 1: {CERT}", f"attempt 2: {CERT}"]
        assert record["result"] == fault_verdict(record) == reply["result"]


# ----------------------------------------------------------------------
# The one policy difference: plain in-worker errors
# ----------------------------------------------------------------------


class TestInWorkerError:
    def test_suite_retries_it(self, monkeypatch, tmp_path):
        report, records, counters, _ = run_suite_on(
            monkeypatch, tmp_path,
            scripted(("error", PLAIN), ("result", VERDICT)),
            retries=1, **BACKOFF,
        )
        (outcome,) = report.outcomes
        assert outcome.status == OK and outcome.attempts == 2
        assert outcome.events == (f"attempt 1: {PLAIN}",)
        assert "witness.failed" not in counters

    def test_serve_answers_it_as_an_error(self, serve):
        harness = serve(scripted(("error", PLAIN), ("result", VERDICT)), retries=1)
        reply = harness.submit()
        assert reply["status"] == protocol.ERROR and reply["error"] == PLAIN
        assert len(harness.server.pool.dispatched) == 1
        assert harness.counters["service.errors"] == 1
        assert harness.close() == [{
            "type": "error", "job": JOB.id, "protocol": "zoo:yahalom", "error": PLAIN,
        }]


# ----------------------------------------------------------------------
# Worker deaths and the dispatch message
# ----------------------------------------------------------------------


class TestWorkerDeath:
    def test_suite_degrades_a_crash_loop(self, monkeypatch, tmp_path):
        report, records, _, _ = run_suite_on(
            monkeypatch, tmp_path, scripted(("exit", DEATH)), retries=2, **BACKOFF
        )
        (record,) = results(records)
        assert record["attempts"] == 3
        assert record["error"] == f"attempt 3: {DEATH}"
        assert record["result"] == fault_verdict(record)

    def test_serve_counts_the_crash_against_the_breaker(self, serve):
        harness = serve(
            scripted(("exit", DEATH), ("result", VERDICT)), retries=1, **BACKOFF
        )
        assert harness.submit()["status"] == protocol.OK
        assert harness.counters["service.crashes"] == 1
        breaker = harness.server.breakers.get("zoo:yahalom")
        assert breaker.total_faults == 1 and breaker.state == "closed"
        harness.close()

    def test_a_draining_server_gives_up_at_once(self, serve):
        harness = serve(
            scripted(("exit", DEATH), ("result", VERDICT)), retries=3, **BACKOFF
        )
        harness.server._handle_frame(None, dict(FRAME))
        harness.server.pool.ensure()
        harness.server._dispatch_ready(time.monotonic())
        harness.server._begin_drain()
        harness.server.lifecycle.poll(timeout=0)
        (reply,) = harness.replies
        assert reply["status"] == protocol.DEGRADED and reply["error"] == DEATH
        (record,) = results(harness.close())
        assert record["attempts"] == 1

    def test_job_message_and_hard_kill_backstop(self, monkeypatch, tmp_path):
        _, _, _, pool = run_suite_on(
            monkeypatch, tmp_path, scripted(("result", VERDICT)),
            job_deadline=2.0, hang_grace=5.0,
        )
        ((_, payload, hard),) = pool.dispatched
        assert payload == {
            "type": "job", "job": JOB.to_json(), "attempt": 1, "deadline": 2.0,
            "checkpoint": None, "fault_plan": None,
        }
        assert hard == 2.0 * 1.5 + 5.0


# ----------------------------------------------------------------------
# One result-record writer
# ----------------------------------------------------------------------


class TestResultRecords:
    def test_suite_and_serve_write_the_same_fields(self, monkeypatch, tmp_path, serve):
        script = scripted(("exit", DEATH), ("result", VERDICT))
        _, suite_records, _, _ = run_suite_on(
            monkeypatch, tmp_path, script, retries=1, **BACKOFF
        )
        harness = serve(script, retries=1, **BACKOFF)
        harness.submit()
        (suite_record,) = results(suite_records)
        (serve_record,) = results(harness.close())
        assert set(suite_record) == RESULT_FIELDS
        assert set(serve_record) == RESULT_FIELDS | {"protocol"}
        for record in (suite_record, serve_record):
            assert record["elapsed"] >= BACKOFF["backoff_base"] / 2
            shared = {
                k: v for k, v in record.items() if k not in ("elapsed", "protocol")
            }
            assert shared == {
                "type": "result", "job": JOB.id, "status": OK, "attempts": 2,
                "result": VERDICT, "error": None, "events": [f"attempt 1: {DEATH}"],
            }
        assert serve_record["protocol"] == "zoo:yahalom"

    @pytest.mark.parametrize(
        "replies",
        [
            (("exit", DEATH), ("result", VERDICT)),
            (("exit", DEATH),),
            (("error", CERT),),
        ],
        ids=["ok-after-crash", "crash-loop", "certification-failure"],
    )
    def test_suite_report_records_are_the_journal_records(
        self, monkeypatch, tmp_path, replies
    ):
        report, records, _, _ = run_suite_on(
            monkeypatch, tmp_path, scripted(*replies), retries=1, **BACKOFF
        )
        journaled = [
            {k: v for k, v in record.items() if k != "type"}
            for record in results(records)
        ]
        assert report.records() == journaled

    def test_serve_circuit_open_record(self, serve):
        harness = serve(
            scripted(("exit", DEATH)), retries=0, breaker_threshold=1, **BACKOFF
        )
        assert harness.submit()["status"] == protocol.DEGRADED  # opens the breaker
        reply = harness.submit()
        assert reply["status"] == protocol.DEGRADED
        detail = f"{JOB.id}: {DEATH}"
        expected = Exhaustion.single("fault", detail=detail).verdict("secrecy")
        assert reply["result"] == expected
        fast = results(harness.close())[-1]
        assert fast == {
            "type": "result", "job": JOB.id, "protocol": "zoo:yahalom",
            "status": FAULT, "attempts": 0, "elapsed": 0.0, "result": expected,
            "error": detail, "events": ["degraded without dispatch: circuit open"],
        }
