"""Workload ``serve-fresh``: verdict traffic through a real ``repro-spi
serve`` process, and, in its traced run, repeat traffic through
``serve`` and ``repro-spi cluster``.

Load comes from one client process: ``THREADS`` threads in a closed
loop, each sending its next request only after its previous reply, one
connection per request through :class:`repro.service.client.
ServiceClient` with retries off (a shed request counts as failed).
Two threads, not one: the server answers a finished job only when
its event loop wakes, at the next 50 ms tick or the next socket event.
With one caller nothing else wakes it, so every computed reply lands on
a tick boundary, and a run on a slower minute pushes whole classes of
requests across one; the second caller's traffic blurs those steps.

Streams are generated from the seed before they reach the program; the
program only sees request frames.  A request's store key is made
distinct by its ``max_states`` budget, which no request comes near
(the largest verdict explores 137 states), so the verdict never
depends on it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from common import (
    Launched,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    self_cpu_seconds,
    self_peak_rss_mb,
)
from meter import Meter
from spans import ANALYSIS_PATCHES, ENGINE_PATCHES, Spans, patched

#: Client threads (at most ``nproc`` of the 2-core reference machine).
THREADS = 2
SYSTEMS = "perfbench/systems"
ZOO_NAMES = ("needham-schroeder-sk", "otway-rees", "woo-lam", "yahalom")
MAX_DEPTH = 40
#: Every this-many-th ``serve-repeat`` position introduces a new key.
NEW_KEY_EVERY = 10
#: Zipf exponent of the draw over already introduced keys.
ZIPF_S = 1.1
HOP_PROBES = 200
#: Seconds per window of the throughput and CPU medians.
WINDOW = 2.0


@dataclass(frozen=True)
class Base:
    """One request shape of the mix and the verdict it must get."""

    label: str
    kind: str
    target: dict
    expect: str  # holds | violated | secure | insecure
    options: dict = field(default_factory=dict)


def _bases() -> tuple[Base, ...]:
    bases = [
        Base(f"{kind}:{name}", kind, {"zoo": name}, "holds")
        for name in ZOO_NAMES
        for kind in ("secrecy", "authentication", "freshness")
    ]
    for system, expect in (("p1", "violated"), ("p2", "holds")):
        path = f"{SYSTEMS}/{system}_impl.spi"
        bases.append(Base(f"secrecy:{system}", "secrecy", {"sysfile": path}, expect, {"secret": "M"}))
        bases.append(Base(f"authentication:{system}", "authentication", {"sysfile": path}, expect, {"sender": "A"}))
    spec = f"{SYSTEMS}/p_spec.spi"
    bases.append(Base("check:p1 (ATT1)", "check", {"impl": f"{SYSTEMS}/p1_impl.spi", "spec": spec}, "insecure"))
    bases.append(Base("check:p2 (PROP2)", "check", {"impl": f"{SYSTEMS}/p2_impl.spi", "spec": spec}, "secure"))
    return tuple(bases)


BASES = _bases()


def message(base: Base, request_id: str, max_states: int) -> dict:
    return {
        "id": request_id, "kind": base.kind, "target": dict(base.target),
        "max_states": max_states, "max_depth": MAX_DEPTH, **base.options,
    }


def judge(base: Base, result: dict) -> Optional[str]:
    """Why ``result`` is the wrong verdict for ``base`` (None if right)."""
    if not isinstance(result, dict) or not result.get("exact"):
        return f"{base.label}: not an exact verdict"
    if base.expect in ("holds", "violated"):
        holds = result.get("holds")
        if holds is not (base.expect == "holds"):
            return f"{base.label}: holds={holds!r}, want {base.expect}"
    else:
        secure = result.get("secure")
        if secure is not (base.expect == "secure"):
            return f"{base.label}: secure={secure!r}, want {base.expect}"
    if base.expect in ("violated", "insecure"):
        if result.get("certified") is not True or "witness" not in result:
            return f"{base.label}: violation is not certified with a witness"
    return None


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------


@dataclass
class Item:
    base: Base
    message: dict
    first: bool
    #: Set when this key's first request has been answered; a repeat
    #: waits for it, so exactly the first occurrence of a key misses.
    ready: threading.Event


class _Rounds:
    """Mix entries in rounds, each a seeded permutation of the whole mix,
    so every entry gets the same share at any run length."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._round: list[int] = []

    def next(self) -> int:
        if not self._round:
            self._round = list(range(len(BASES)))
            self._rng.shuffle(self._round)
        return self._round.pop()


class FreshStream:
    """Every request has its own store key; entries come in rounds."""

    def __init__(self, seed: int, tag: str, base_budget: int) -> None:
        self._rounds = _Rounds(random.Random(f"fresh:{seed}"))
        self._tag = tag
        self._budget = base_budget

    def item(self, position: int) -> Item:
        base = BASES[self._rounds.next()]
        request = message(base, f"{self._tag}-{position}", self._budget + position)
        return Item(base, request, True, threading.Event())


class RepeatStream:
    """Skewed repeats over a small, growing key pool per mix entry.

    Every ``NEW_KEY_EVERY``-th position introduces a new key; the others
    repeat an earlier key.  The share is fixed, not drawn, because the
    misses dominate a run's time and its tail.  Both pick their mix
    entry in rounds, so every entry (and every shard it routes to) gets
    the same share whatever the seed.  A repeat draws among the entry's
    keys Zipf-like by introduction order, so the oldest keys are the
    hottest.  The hit share is 90% at every run length.
    """

    def __init__(self, seed: int, tag: str, base_budget: int) -> None:
        self._rng = random.Random(f"repeat:{seed}")
        self._new = _Rounds(self._rng)
        self._repeat = _Rounds(self._rng)
        self._tag = tag
        self._budget = base_budget
        self._count = 0
        #: entry -> [(key, ready)], and the Zipf cumulative weights.
        self._keys: dict[int, list[tuple[int, threading.Event]]] = {}
        self._cumulative: dict[int, list[float]] = {}

    def item(self, position: int) -> Item:
        rng = self._rng
        fresh = position % NEW_KEY_EVERY == 0
        entry = (self._new if fresh else self._repeat).next()
        keys = self._keys.setdefault(entry, [])
        cumulative = self._cumulative.setdefault(entry, [])
        if fresh or not keys:
            key, ready, first = self._count, threading.Event(), True
            self._count += 1
            keys.append((key, ready))
            weight = 1.0 / len(keys) ** ZIPF_S
            cumulative.append(weight + (cumulative[-1] if cumulative else 0.0))
        else:
            key, ready = keys[bisect_left(cumulative, rng.random() * cumulative[-1])]
            first = False
        base = BASES[entry]
        request = message(base, f"{self._tag}-{position}", self._budget + key)
        return Item(base, request, first, ready)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


@dataclass
class Sample:
    item: Item
    reply: Optional[dict]
    error: Optional[str]
    latency: float  # seconds, submit to reply
    done_at: float  # perf_counter() at the reply

    @property
    def ok(self) -> bool:
        return self.reply is not None and self.reply.get("status") == "ok"


def drive(address: str, stream, seconds: Optional[float],
          count: Optional[int] = None) -> tuple[list[Sample], float]:
    """Run the closed loop until ``seconds`` pass (requests in flight
    then finish) or ``count`` requests were taken.  Returns the samples
    and the wall time from start to the last reply."""
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    samples: list[Sample] = []
    state = {"next": 0}
    started = time.perf_counter()
    end = started + seconds if seconds is not None else None
    failures: list[BaseException] = []

    def take() -> Optional[Item]:
        with lock:
            position = state["next"]
            if count is not None and position >= count:
                return None
            if end is not None and time.perf_counter() >= end:
                return None
            state["next"] = position + 1
            return stream.item(position)

    def loop() -> None:
        client = ServiceClient(address, timeout=120.0, retries=0)
        try:
            while True:
                item = take()
                if item is None:
                    return
                if not item.first:
                    item.ready.wait(timeout=120.0)
                reply = error = None
                began = time.perf_counter()
                try:
                    reply = client.call(item.message)
                except Exception as err:  # counted as a failed request
                    error = f"{type(err).__name__}: {err}"
                done_at = time.perf_counter()
                if item.first:
                    item.ready.set()
                with lock:
                    samples.append(Sample(item, reply, error, done_at - began, done_at))
        except BaseException as err:  # pragma: no cover - reported below
            failures.append(err)

    threads = [threading.Thread(target=loop, daemon=True) for _ in range(THREADS)]
    # The client keeps every reply; its collector pauses would stall
    # the client threads at random, so it stays off while they run.
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    if failures:
        raise failures[0]
    return samples, time.perf_counter() - started


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------


class Target:
    """One launched ``serve`` or ``cluster`` and how to reach it."""

    def __init__(self, ctx, kind: str, tag: str) -> None:
        self.kind = kind
        self.dir = ctx.run_dir / tag
        self.dir.mkdir(parents=True)
        rel = os.path.relpath(self.dir, ctx.root)
        self.store = f"{rel}/store"
        env = dict(ctx.env)
        if kind == "serve":
            self.address = f"{rel}/s.sock"
            self.journal = f"{rel}/journal.jsonl"
            argv = ["serve", "--socket", self.address, "--workers", "2",
                    "--verdict-store", self.store, "--journal", self.journal,
                    "--certify"]
        else:
            self.address = f"{rel}/r.sock"
            self.cluster_dir = f"{rel}/cl"
            argv = ["cluster", "--dir", self.cluster_dir, "--socket", self.address,
                    "--shards", "2", "--workers-per-shard", "1",
                    "--verdict-store", self.store, "--health-failures", "3"]
            # ``cluster`` has no --certify flag; its shards inherit the
            # switch from the environment.  With the default two failed
            # probes, the router ejects a shard that is still importing
            # in about half of all launches (probe gaps are jittered),
            # which doubles set-up time at random; three keep set-up
            # steady and change nothing once the shards are up.
            env["REPRO_CERTIFY"] = "1"
        self.launched = Launched(
            [sys.executable, "-m", "repro.cli", *argv], cwd=str(ctx.root), env=env,
            log_path=str(self.dir / f"{kind}.log"),
        )
        ctx.launched.append(self.launched)
        self.setup_s = self._wait_ready()
        self.launched.refresh()

    def _wait_ready(self) -> float:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.address, timeout=5.0, retries=0)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if self.launched.proc.poll() is not None:
                raise RuntimeError(f"{self.kind} exited during set-up (see {self.dir})")
            try:
                reply = client.status()
            except Exception:
                reply = None
            if reply is not None and reply.get("status") == "status" and self._ready(reply):
                self.ready_at = time.perf_counter()
                return self.ready_at - self.launched.started_at
            time.sleep(0.005)
        raise RuntimeError(f"{self.kind} not ready after 120 s")

    def _ready(self, status: dict) -> bool:
        """``serve``: its pool is spawned.  ``cluster``: the router counts
        both shards healthy and each shard answers with its pool spawned."""
        if self.kind == "serve":
            pool = status.get("pool") or {}
            return pool.get("alive") == pool.get("size") == 2
        if (status.get("cluster") or {}).get("healthy") != 2:
            return False
        for name in status.get("shards") or {}:
            try:
                pool = self._status(f"{self.cluster_dir}/{name}.sock", retries=0).get("pool") or {}
            except Exception:
                return False
            if not pool.get("size") or pool.get("alive") != pool.get("size"):
                return False
        return True

    def shard_addresses(self) -> dict[str, str]:
        return {
            name: f"{self.cluster_dir}/{name}.sock"
            for name in sorted(self._status(self.address).get("shards") or {})
        }

    def _status(self, address: str, retries: int = 2) -> dict:
        from repro.service.client import ServiceClient

        return ServiceClient(address, timeout=10.0, retries=retries).status()

    def counters(self) -> dict:
        """Counter and latency-histogram snapshot of every server."""
        servers = [self.address] if self.kind == "serve" else list(self.shard_addresses().values())
        snapshot = {"servers": [], "router": {}}
        for address in servers:
            metrics = self._status(address).get("metrics") or {}
            hist = (metrics.get("histograms") or {}).get("service.latency") or {}
            snapshot["servers"].append({
                **(metrics.get("counters") or {}),
                "latency.total": hist.get("total", 0.0),
                "latency.count": hist.get("count", 0),
            })
        if self.kind == "cluster":
            metrics = self._status(self.address).get("metrics") or {}
            snapshot["router"] = metrics.get("counters") or {}
        return snapshot

    def journal_paths(self) -> list[Path]:
        if self.kind == "serve":
            return [Path(self.journal)]
        return sorted(Path(self.cluster_dir).glob("shard-*.jsonl"))


def _delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


# ----------------------------------------------------------------------
# Measured phases
# ----------------------------------------------------------------------


def _warm(target: Target, seed: int) -> list[str]:
    """One untimed pass over the mix (each entry a fresh key): workers
    finish importing and every shard sees traffic before timing."""
    stream = FreshStream(seed, "warm", 1_000)
    samples, _ = drive(target.address, stream, None, count=len(BASES))
    return _gate(samples)[1]


def _gate(samples: list[Sample]) -> tuple[int, list[str]]:
    """``(failed, errors)`` over replies.  A wrong verdict or an ``error``
    reply (a request the program rejects) is an error and fails the run;
    a shed, degraded, expired or unanswered request only counts as
    failed, and shows in ``ok_ratio``."""
    failed = 0
    errors = []
    for sample in samples:
        if not sample.ok:
            failed += 1
            if sample.reply is not None and sample.reply.get("status") == "error":
                errors.append(f"{sample.item.base.label}: error reply {sample.reply.get('error')}")
            continue
        wrong = judge(sample.item.base, sample.reply.get("result"))
        if wrong:
            failed += 1
            errors.append(wrong)
    return failed, errors


def _replay_witnesses(samples: list[Sample]) -> list[str]:
    """Re-check every distinct witness with the independent replayer."""
    from repro.semantics.replay import replay_result

    seen = {}
    for sample in samples:
        result = (sample.reply or {}).get("result") or {}
        witness = result.get("witness")
        if sample.ok and witness is not None:
            seen.setdefault(json.dumps(witness, sort_keys=True), (sample.item.base.label, witness))
    errors = []
    for label, witness in seen.values():
        report = replay_result({"witness": witness})
        if not report.ok:
            errors.append(f"{label}: witness does not replay ({report.describe()})")
    return errors


def _phase(target: Target, stream, seconds: float, meter: Optional[Meter] = None) -> dict:
    """Drive one measured phase.  A sampler thread reads the CPU of the
    workload's processes (and this client) every ``WINDOW`` seconds, so
    throughput and CPU per request are medians over windows.  With a
    running ``meter``, every time is in reference seconds."""
    before = target.counters()

    def cpu_now() -> tuple[float, float]:
        return time.perf_counter(), cpu_seconds(sorted(target.launched.refresh())) + self_cpu_seconds()

    marks = [cpu_now()]
    stop = threading.Event()
    window = min(WINDOW, seconds / 4)

    def sample() -> None:
        while not stop.wait(window):
            marks.append(cpu_now())

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        samples, wall = drive(target.address, stream, seconds)
    finally:
        stop.set()
        sampler.join()
    marks.append(cpu_now())
    pids = sorted(target.launched.refresh())
    rss = peak_rss_mb(pids) + self_peak_rss_mb()
    after = target.counters()
    failed, errors = _gate(samples)

    def span(t0: float, t1: float, cpu: Optional[float] = None) -> float:
        if meter is None:
            return t1 - t0 if cpu is None else cpu
        return meter.reference(t0, t1, cpu)

    windows = []
    done = sorted(s.done_at for s in samples if s.ok)
    for (t0, c0), (t1, c1) in zip(marks, marks[1:]):
        answered = bisect_left(done, t1) - bisect_left(done, t0)
        if t1 - t0 >= window / 2 and answered:
            windows.append((answered / span(t0, t1), span(t0, t1, c1 - c0) / answered * 100))
    if not windows:
        (t0, c0), (t1, c1) = marks[0], marks[-1]
        windows.append((len(done) / span(t0, t1), span(t0, t1, c1 - c0) / max(1, len(done)) * 100))
    latencies = [span(s.done_at - s.latency, s.done_at) for s in samples]
    return {"samples": samples, "latencies": latencies, "wall": wall, "windows": windows,
            "rss": rss, "before": before, "after": after, "failed": failed, "errors": errors}


def _end_to_end(setups: list[float], phase: dict) -> dict:
    samples = phase["samples"]
    # A failed request misses any latency limit: it enters the
    # percentiles at the whole phase length.
    latencies = [
        (latency if s.ok else max(phase["wall"], latency)) * 1000
        for s, latency in zip(samples, phase["latencies"])
    ]
    throughput = median([rate for rate, _ in phase["windows"]])
    return {
        "setup_s": median(setups),
        "wall_s": 100 / throughput,
        "throughput_rps": throughput,
        "latency_p50_ms": percentile(latencies, 50),
        "ok_ratio": 1 - phase["failed"] / len(samples),
        "cpu_s": median([cpu for _, cpu in phase["windows"]]),
        "peak_rss_mb": phase["rss"],
    }


def _service_layers(target: Target, phase: dict) -> dict:
    samples = [s for s in phase["samples"] if s.ok]
    computed = [s for s in samples if not s.reply.get("cached")]
    hits = [s for s in samples if s.reply.get("cached")]
    stats = [s.reply["result"].get("stats") or {} for s in computed]
    before, after = phase["before"]["servers"], phase["after"]["servers"]
    sums = {
        key: sum(_delta(a, b, key) for a, b in zip(after, before))
        for key in ("store.hit", "store.write", "witness.replayed", "service.requests",
                    "latency.total", "latency.count")
    }
    store = Path(target.store)
    segments = sorted(store.glob("*.jsonl")) if store.is_dir() else []
    records = 0
    for path in target.journal_paths():
        with open(path, "rb") as handle:
            records += sum(1 for _ in handle)
    latencies = [s.latency * 1000 for s in phase["samples"]]
    return {
        "service.latency_p99_ms": percentile(latencies, 99),
        "runtime.compute_ms_p50": median([st.get("elapsed", 0.0) * 1000 for st in stats]),
        "runtime.states_per_request": (
            sum(st.get("states", 0) for st in stats) / len(stats) if stats else 0.0
        ),
        "service.overhead_ms_p50": median(
            [(s.latency - (s.reply["result"].get("stats") or {}).get("elapsed", 0.0)) * 1000
             for s in computed]
        ),
        "service.server_ms_mean": (
            sums["latency.total"] / sums["latency.count"] * 1000 if sums["latency.count"] else 0.0
        ),
        "store.write": sums["store.write"],
        "witness.replayed": sums["witness.replayed"],
        "journal.records": records,
        "store.hit_ratio": sums["store.hit"] / max(1, len(phase["samples"])),
        "service.hit_ms_p50": median([s.latency * 1000 for s in hits]),
        "service.miss_ms_p50": median([s.latency * 1000 for s in computed]),
        "store.segments": len(segments),
        "store.bytes": sum(path.stat().st_size for path in segments),
    }


def _router_layers(target: Target, phase: dict, seed: int) -> dict:
    """Router counters, shard skew, and the router hop: stored verdicts
    sent through the router and straight to the shard that answered
    them, alternately, one at a time."""
    from repro.service.client import ServiceClient

    before, after = phase["before"], phase["after"]
    per_shard = [_delta(a, b, "service.requests") for a, b in zip(after["servers"], before["servers"])]
    mean = sum(per_shard) / len(per_shard) if per_shard else 0.0
    shards = target.shard_addresses()
    via_router = ServiceClient(target.address, timeout=30.0, retries=0)
    direct = {name: ServiceClient(address, timeout=30.0, retries=0) for name, address in shards.items()}
    hits = [s for s in phase["samples"] if s.ok and s.reply.get("cached") and s.reply.get("shard") in direct]
    random.Random(f"hop:{seed}").shuffle(hits)
    routed, straight = [], []
    for index, sample in enumerate(hits[:HOP_PROBES]):
        request = dict(sample.item.message, id=f"hop-{index}")
        for client, sink in ((via_router, routed), (direct[sample.reply["shard"]], straight)):
            began = time.perf_counter()
            reply = client.call(request)
            elapsed = time.perf_counter() - began
            if reply.get("status") == "ok" and reply.get("cached"):
                sink.append(elapsed * 1000)
    return {
        "router.hop_ms_p50": median(routed) - median(straight) if routed and straight else 0.0,
        "router.forwarded": _delta(after["router"], before["router"], "cluster.forwarded"),
        "router.failovers": _delta(after["router"], before["router"], "cluster.failovers"),
        "router.shard_skew": max(per_shard) / mean if mean else 0.0,
    }


def _in_process_pass(position: int, errors: list[str]) -> float:
    """The serve-fresh mix through ``run_job`` in this process, each job
    with a fresh budget; returns the pass wall time."""
    from repro.runtime.worker import CERTIFY_ENV, Job, run_job

    os.environ[CERTIFY_ENV] = "1"
    started = time.perf_counter()
    try:
        for index, base in enumerate(BASES):
            request = message(base, f"inproc-{position}-{index}", 50_000 + position)
            job = Job.from_json(request)
            result = run_job(job)
            wrong = judge(base, result)
            if wrong:
                errors.append(f"in-process {wrong}")
    finally:
        os.environ.pop(CERTIFY_ENV, None)
    return time.perf_counter() - started


def _analysis_layers(seconds: float, errors: list[str]) -> dict:
    """Untraced and traced in-process passes alternate; spans on the
    analysis entry points and the engine layers come from the traced
    ones."""
    spans = Spans()
    plain, traced = [], []
    _in_process_pass(0, errors)  # warm imports
    end = time.perf_counter() + seconds
    position = 1
    while not traced or time.perf_counter() < end:
        plain.append(_in_process_pass(position, errors))
        with patched(spans, ANALYSIS_PATCHES + ENGINE_PATCHES):
            traced.append(_in_process_pass(position + 1, errors))
        position += 2
    n = len(traced)
    return {
        "analysis.property_s": spans.total["analysis.property"] / n,
        "analysis.env_s": spans.total["analysis.env"] / n,
        "attacks.check_s": spans.total["attacks.check"] / n,
        "replay.certify_s": spans.total["replay.certify"] / n,
        "reduction.self_s": spans.own["reduction.reduced_successors"] / n,
        "transitions.successors_s": spans.total["transitions.batched_successors"] / n,
        "transitions.successors_calls": spans.calls["transitions.batched_successors"] / n,
        "canonical.state_key_s": spans.total["canonical.state_key"] / n,
        "canonical.state_key_calls": spans.calls["canonical.state_key"] / n,
        "trace_overhead_ratio": median(traced) / median(plain),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _setup(ctx, meter: Meter) -> tuple[list[float], Target]:
    """Launch ``serve`` ``setup_reps`` times; keep the last one for the
    run.  Returns launch-to-ready reference seconds."""
    setups = []
    target = None
    for rep in range(ctx.setup_reps):
        if target is not None:
            ctx.stop(target.launched)
        target = Target(ctx, "serve", f"serve-{rep}")
        setups.append(meter.reference(target.launched.started_at, target.ready_at))
    return setups, target


def _finish(ctx, target: Target, phases: list[dict], metrics: dict, info: dict) -> dict:
    samples = [s for phase in phases for s in phase["samples"]]
    failed = sum(phase["failed"] for phase in phases)
    errors = [e for phase in phases for e in phase["errors"]]
    errors += _replay_witnesses(samples)
    ctx.stop(target.launched)
    info.update(requests=len(samples), nproc=os.cpu_count())
    return {"attempted": len(samples), "failed": failed, "errors": errors,
            "metrics": metrics, "info": info}


def _measure(ctx) -> dict:
    """The untraced run: set-up, a warm pass, and the measured phase,
    all under the meter."""
    with Meter(ctx.root) as meter:
        setups, target = _setup(ctx, meter)
        warm_errors = _warm(target, ctx.seed)
        phase = _phase(target, FreshStream(ctx.seed, "run", 4_000), ctx.seconds, meter=meter)
    phase["errors"] = warm_errors + phase["errors"]
    metrics = _end_to_end(setups, phase)
    raw = [s.latency * 1000 for s in phase["samples"]]
    info = {"setups": len(setups), "probes": len(meter.seconds), "raw_latency_p50_ms": percentile(raw, 50),
            "raw_latency_p99_ms": percentile(raw, 99)}
    return _finish(ctx, target, [phase], metrics, info)


def _traced_phase(ctx, kind: str, tag: str, stream_type, seconds: float) -> tuple[Target, dict]:
    target = Target(ctx, kind, f"{kind}-{tag}")
    warm_errors = _warm(target, ctx.seed)
    phase = _phase(target, stream_type(ctx.seed, "run", 4_000), seconds)
    phase["errors"] = warm_errors + phase["errors"]
    return target, phase


#: Per-layer metrics the traced run takes from the repeat stream's quarter
#: (store reads); the rest of ``_service_layers`` comes from the fresh one.
REPEAT_LAYERS = ("store.hit_ratio", "service.hit_ms_p50", "service.miss_ms_p50",
                 "store.segments", "store.bytes")


def run_fresh(ctx) -> dict:
    if not ctx.trace:
        return _measure(ctx)
    # Four quarters, each on its own fresh processes and store: the
    # fresh stream through ``serve`` (service, runtime and store-write
    # layers); the same mix in-process under spans (analysis and engine
    # layers, and the tracing overhead); the repeat stream through
    # ``serve`` (store reads); and the repeat stream through ``cluster
    # --shards 2`` (the router).  The repeat streams are measured here,
    # and not as workloads of their own, because their end-to-end
    # figures did not hold still between runs (see README.md).
    quarter = ctx.seconds / 4
    target, fresh = _traced_phase(ctx, "serve", "f", FreshStream, quarter)
    metrics = _service_layers(target, fresh)
    ctx.stop(target.launched)
    metrics.update(_analysis_layers(quarter, fresh["errors"]))
    target, repeat = _traced_phase(ctx, "serve", "r", RepeatStream, quarter)
    layers = _service_layers(target, repeat)
    metrics.update({name: layers[name] for name in REPEAT_LAYERS})
    ctx.stop(target.launched)
    cluster, routed = _traced_phase(ctx, "cluster", "c", RepeatStream, quarter)
    metrics.update(_router_layers(cluster, routed, ctx.seed))
    return _finish(ctx, cluster, [fresh, repeat, routed], metrics,
                   {"layers": "fresh, in-process, repeat and cluster quarters"})
