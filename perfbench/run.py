"""The checker's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a checkout: the program is imported and launched
from that checkout's ``src``.  With ``--trace 0`` the last line of
standard output is the end-to-end result, with ``--trace 1`` the
per-layer one; both are one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The lines above it repeat every metric with
its unit and the run's provenance.  ``--quick`` runs every workload at
a tiny size, traced and untraced, with the same correctness gates, and
checks the output against ``BENCHMARK.json``; it is the harness's own
test.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every end-to-end metric and its unit (printed with --trace 0).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "ok_ratio": "ratio",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric and its unit (printed with --trace 1).  A
#: workload that never enters a layer reports it as 0.
PER_LAYER = {
    "lts.self_s": "s",
    "reduction.self_s": "s",
    "transitions.successors_s": "s",
    "transitions.successors_calls": "count",
    "canonical.state_key_s": "s",
    "canonical.state_key_calls": "count",
    "lts.states": "count",
    "lts.transitions": "count",
    "lts.dedup_ratio": "ratio",
    "reduction.ample_hit": "count",
    "reduction.sym_merge": "count",
    "canonical.hit_ratio": "ratio",
    "canonical.interned": "count",
    "runtime.compute_ms_p50": "ms",
    "runtime.states_per_request": "count",
    "service.overhead_ms_p50": "ms",
    "service.server_ms_mean": "ms",
    "service.latency_p99_ms": "ms",
    "analysis.property_s": "s",
    "analysis.env_s": "s",
    "attacks.check_s": "s",
    "replay.certify_s": "s",
    "store.write": "count",
    "witness.replayed": "count",
    "journal.records": "count",
    "store.hit_ratio": "ratio",
    "service.hit_ms_p50": "ms",
    "service.miss_ms_p50": "ms",
    "store.segments": "count",
    "store.bytes": "bytes",
    "router.hop_ms_p50": "ms",
    "router.forwarded": "count",
    "router.failovers": "count",
    "router.shard_skew": "ratio",
    "trace_overhead_ratio": "ratio",
}

WORKLOADS = ("explore-cold", "serve-fresh")


class Context:
    """What one run knows: its arguments, where the program lives, and
    every process tree it launched."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.root = ROOT
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.tiny = args.tiny
        self.setup_reps = 1 if args.tiny else 3
        self.run_dir = ROOT / ".perfbench-run" / str(os.getpid())
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for name in ("REPRO_CERTIFY", "REPRO_REDUCTION", "REPRO_NO_REDUCTION",
                     "REPRO_NO_STATE_CACHE"):
            self.env.pop(name, None)
        self.launched = []
        self.leaks: list[int] = []

    def stop(self, launched) -> None:
        self.leaks += launched.stop()


def _workload(name: str):
    import explore_cold
    import service

    return {
        "explore-cold": explore_cold.run,
        "serve-fresh": service.run_fresh,
    }[name]


def _provenance(ctx: Context, name: str, info: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": name, "seed": ctx.seed, "seconds": ctx.seconds,
        "trace": int(ctx.trace), **info, "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _locate_program() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}/repro; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def run_one(args: argparse.Namespace) -> int:
    _locate_program()
    ctx = Context(args)
    signal.signal(signal.SIGTERM, _terminate)
    outcome = None
    try:
        ctx.run_dir.mkdir(parents=True)
        outcome = _workload(args.workload)(ctx)
    finally:
        for launched in ctx.launched:
            ctx.stop(launched)
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
        try:
            ctx.run_dir.parent.rmdir()
        except OSError:
            pass
    errors = list(outcome["errors"])
    if ctx.leaks:
        errors.append(f"processes outlived their drain: {sorted(set(ctx.leaks))}")
    units = PER_LAYER if ctx.trace else END_TO_END
    metrics = {name: {"value": outcome["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        errors.append(f"non-finite metrics: {bad}")
    for error in errors:
        print(f"ERROR {error}", file=sys.stderr)
    print("# " + json.dumps(_provenance(ctx, args.workload, outcome["info"])))
    for name, metric in metrics.items():
        print(f"# {name:30s} {metric['value']:.6g} {metric['unit']}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _schema_errors(result: dict, trace: int, spec: dict) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"top-level keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int) or result["failed"] != 0:
        errors.append(f"failed {result.get('failed')!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics") or {}
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for entry in wanted:
        metric = metrics.get(entry["name"]) or {}
        if metric.get("unit") != entry["unit"]:
            errors.append(f"{entry['name']}: unit {metric.get('unit')!r}, want {entry['unit']!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{entry['name']}: value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{entry['name']}: end-to-end value {value!r} is not positive")
    return errors


def quick() -> int:
    """Every workload, tiny, untraced and traced, gated and schema-checked."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        print(f"quick: BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
        return 1
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END or {
        m["name"]: m["unit"] for m in spec["per_layer"]
    } != PER_LAYER:
        print("quick: BENCHMARK.json metrics differ from the harness's tables")
        return 1
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                errors = _schema_errors(result, trace, spec)
            except (IndexError, ValueError) as err:
                errors = [f"no result line ({err})"]
            if proc.returncode != 0:
                errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            status = "ok" if not errors else "FAIL"
            print(f"quick {name} trace={trace}: {status}")
            for error in errors:
                print(f"  {error}")
            failures += bool(errors)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload at a tiny size and check the output schema")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        _locate_program()
        return quick()
    if args.workload is None:
        parser.error("--workload is required (or --quick)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
