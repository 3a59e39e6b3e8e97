"""Workload ``explore-cold``: cold in-process exploration of the
replicated protocol zoo under the default ``--reduce full``.

Every horizon starts from cleared caches and runs to a fixed depth, so
each pass does identical work and all of it lands in
``semantics.transitions``, ``semantics.reduction``,
``semantics.canonical`` and ``core.intern``.  The inputs are fixed (the
seed does not change them): the zoo systems are deterministic builders.

Run as a script with ``--setup`` this module is the set-up probe: a
fresh interpreter imports the engine, builds every system and prints
``ready``.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

from common import median, percentile, self_cpu_seconds, self_peak_rss_mb
from meter import Meter, pin
from spans import ENGINE_PATCHES, Spans, patched

#: Protocol -> depth horizon.  Depths are one level below the
#: ``BENCH_reduction.json`` horizons so that one pass takes a few
#: seconds and a run holds several passes to take the median of.
HORIZONS = (
    ("needham-schroeder-sk", 5),
    ("otway-rees", 4),
    ("woo-lam", 5),
    ("yahalom", 4),
)
TINY_HORIZONS = tuple((name, 3) for name, _ in HORIZONS)
MAX_STATES = 50_000


def build(name: str):
    from repro.equivalence.testing import compose
    from repro.protocols.library import narration_configuration
    from repro.protocols.zoo import ZOO

    spec = ZOO[name](replicate=True)
    return compose(
        narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")
    )


def _setup_child() -> None:
    from repro.semantics.lts import Budget, explore  # noqa: F401 - the import is the cost

    for name, _ in HORIZONS:
        build(name)
    print("ready", flush=True)


def measure_setup(ctx, meter: Meter) -> list[float]:
    """Launch-to-ready reference seconds of fresh set-up probes."""
    times = []
    for _ in range(ctx.setup_reps):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup"], cwd=ctx.root, env=ctx.env,
            stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline().decode().strip()
            ready = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"explore set-up probe failed ({line!r}, exit {proc.returncode})")
        times.append(meter.reference(started, ready))
    return times


def one_pass(horizons, spans: Spans = None) -> dict:
    """Explore every horizon once from cold caches."""
    from repro.obs.metrics import Metrics, collecting
    from repro.semantics import canonical
    from repro.semantics.lts import Budget, explore

    rows = []
    cpu_before = self_cpu_seconds()
    started = time.perf_counter()
    cpu_at = [(started, cpu_before)]
    for name, depth in horizons:
        canonical.clear_caches()
        system = build(name)
        # The previous horizon's garbage is collected here, untimed, so
        # that its cost does not land at random in this one.
        gc.collect()
        with collecting(Metrics()) as metrics:
            began = time.perf_counter()
            run = explore if spans is None else spans.wrap("lts.explore", explore)
            graph = run(system, Budget(MAX_STATES, depth))
            ended = time.perf_counter()
        cpu_at.append((ended, self_cpu_seconds()))
        rows.append({
            "name": name,
            "began": began,
            "ended": ended,
            "states": graph.state_count(),
            "transitions": graph.transition_count(),
            "reasons": list(graph.exhaustion.reasons) if graph.exhaustion else [],
            "counters": metrics.to_json()["counters"],
            "interned": canonical.interned_size(),
        })
    ended = time.perf_counter()
    canonical.clear_caches()
    return {"began": started, "ended": ended, "cpu_at": cpu_at, "rows": rows}


def _reference(record: dict, meter: Meter) -> dict:
    """A pass's wall, horizon and CPU times in reference seconds (CPU
    interval by interval)."""
    cpu = 0.0
    for (t0, c0), (t1, c1) in zip(record["cpu_at"], record["cpu_at"][1:]):
        cpu += meter.reference(t0, t1, c1 - c0)
    return {
        "wall": meter.reference(record["began"], record["ended"]),
        "cpu": cpu,
        "horizons": [meter.reference(row["began"], row["ended"]) for row in record["rows"]],
    }


def _check(passes: list[dict], horizons) -> tuple[int, int, list[str]]:
    """``(attempted, failed, errors)``: every horizon must stop for depth
    alone, with the same graph size on every pass."""
    attempted = failed = 0
    errors = []
    shape = {}
    for record in passes:
        for row in record["rows"]:
            attempted += 1
            size = (row["states"], row["transitions"])
            if row["reasons"] != ["depth"]:
                failed += 1
                errors.append(f"{row['name']}: exhaustion {row['reasons']}, want ['depth']")
            elif shape.setdefault(row["name"], size) != size:
                failed += 1
                errors.append(f"{row['name']}: graph {size} differs from {shape[row['name']]}")
    return attempted, failed, errors


def _layer_metrics(traced: list[dict], spans: Spans) -> dict:
    n = len(traced)
    counters: dict[str, int] = {}
    interned = states = transitions = 0
    for record in traced:
        for row in record["rows"]:
            states += row["states"]
            transitions += row["transitions"]
            interned += row["interned"]
            for key, value in row["counters"].items():
                counters[key] = counters.get(key, 0) + value
    hits, misses = counters.get("canonical.hit", 0), counters.get("canonical.miss", 0)
    return {
        "lts.self_s": spans.own["lts.explore"] / n,
        "reduction.self_s": spans.own["reduction.reduced_successors"] / n,
        "transitions.successors_s": spans.total["transitions.batched_successors"] / n,
        "transitions.successors_calls": spans.calls["transitions.batched_successors"] / n,
        "canonical.state_key_s": spans.total["canonical.state_key"] / n,
        "canonical.state_key_calls": spans.calls["canonical.state_key"] / n,
        "lts.states": states / n,
        "lts.transitions": transitions / n,
        "lts.dedup_ratio": counters.get("explore.dedup_hits", 0) / max(1, counters.get("explore.transitions", 0)),
        "reduction.ample_hit": counters.get("reduction.ample_hit", 0) / n,
        "reduction.sym_merge": counters.get("reduction.sym_merge", 0) / n,
        "canonical.hit_ratio": hits / max(1, hits + misses),
        "canonical.interned": interned / n,
    }


def run(ctx) -> dict:
    from repro.semantics import canonical, reduction

    # One core for this process and its set-up probes, so the meter's
    # one probe process runs where all of the measured work does.
    core = pin()
    reduction.set_reduction_mode("full")
    canonical.set_cache_enabled(True)
    horizons = TINY_HORIZONS if ctx.tiny else HORIZONS
    one_pass(TINY_HORIZONS)  # lazy imports and first-call costs, untimed
    info = {"inputs": "fixed: " + ", ".join(f"{n} d{d}" for n, d in horizons), "core": core}
    if not ctx.trace:
        passes = []
        with Meter(ctx.root) as meter:
            setups = measure_setup(ctx, meter)
            end = time.perf_counter() + ctx.seconds
            while not passes or time.perf_counter() < end:
                passes.append(one_pass(horizons))
        attempted, failed, errors = _check(passes, horizons)
        timed = [_reference(p, meter) for p in passes]
        # A horizon's latency is its median over the passes: the four
        # protocols take fixed, different times, and the percentiles of
        # the raw samples would fall on the edge between two of them.
        latencies = [median([t["horizons"][i] for t in timed]) * 1000
                     for i in range(len(horizons))]
        wall = median([t["wall"] for t in timed])
        metrics = {
            "setup_s": median(setups),
            "wall_s": wall,
            "throughput_rps": len(horizons) / wall,
            "latency_p50_ms": percentile(latencies, 50),
            "ok_ratio": (attempted - failed) / attempted,
            "cpu_s": median([t["cpu"] for t in timed]),
            "peak_rss_mb": self_peak_rss_mb(),
        }
        info.update(passes=len(passes), states=sum(r["states"] for r in passes[0]["rows"]),
                    setups=len(setups), probes=len(meter.seconds),
                    raw_wall_s=median([p["ended"] - p["began"] for p in passes]))
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "metrics": metrics, "info": info}
    # Traced run: untraced and traced passes alternate, so the overhead
    # ratio compares passes made under the same machine conditions.
    spans = Spans()
    plain, traced = [], []
    end = time.perf_counter() + ctx.seconds
    while not traced or time.perf_counter() < end:
        plain.append(one_pass(horizons))
        with patched(spans, ENGINE_PATCHES):
            traced.append(one_pass(horizons, spans))
    attempted, failed, errors = _check(plain + traced, horizons)
    metrics = _layer_metrics(traced, spans)
    metrics["trace_overhead_ratio"] = median([p["ended"] - p["began"] for p in traced]) / median(
        [p["ended"] - p["began"] for p in plain]
    )
    info.update(passes=len(traced), states=sum(r["states"] for r in traced[0]["rows"]))
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "metrics": metrics, "info": info}


if __name__ == "__main__" and sys.argv[1:] == ["--setup"]:
    _setup_child()
