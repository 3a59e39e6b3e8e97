"""[BENCH-STORE] The persistent verdict store: warm vs cold suites.

Runs the full protocol zoo (secrecy + freshness per protocol) through
:func:`repro.runtime.supervisor.run_suite` twice against one
``--verdict-store`` directory:

* **cold** — an empty store; every verdict is computed by the worker
  pool and written through;
* **warm** — the same batch resubmitted; every verdict is served from
  the store with zero worker attempts.

The measurement is end-to-end suite wall-clock, which is what a user
re-running a verification campaign actually experiences — it includes
worker-pool spawn/teardown on the cold side and store tailing on the
warm side.

Parity is asserted before speed: the warm verdicts must be
byte-identical to the cold ones (the store replays records verbatim,
per-run stat blocks included), and every warm outcome must report
``attempts == 0``.  The warm side is then asserted to clear the **10x**
bar that justifies the store.  Results go to ``BENCH_store.json`` at
the repository root so future changes can track the trajectory.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.protocols.zoo import ZOO
from repro.runtime.supervisor import run_suite
from repro.runtime.worker import Job

RESULTS = Path(__file__).resolve().parent.parent / "BENCH_store.json"

KINDS = ("secrecy", "freshness")


def _jobs() -> list[Job]:
    return [
        Job(
            id=f"{kind}:{name}", kind=kind, target={"zoo": name},
            max_states=1500, max_depth=36,
        )
        for kind in KINDS
        for name in sorted(ZOO)
    ]


def _run(store: str) -> tuple[float, dict[str, dict], list[int]]:
    started = time.perf_counter()
    report = run_suite(_jobs(), workers=2, verdict_store=store)
    elapsed = time.perf_counter() - started
    assert all(outcome.status == "ok" for outcome in report.outcomes)
    verdicts = {
        outcome.job.id: outcome.result for outcome in report.outcomes
    }
    attempts = [outcome.attempts for outcome in report.outcomes]
    return elapsed, verdicts, attempts


def test_store_warm_suite_speedup(request):
    scratch = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store = str(Path(scratch) / "store")
        cold_s, cold_verdicts, cold_attempts = _run(store)
        warm_s, warm_verdicts, warm_attempts = _run(store)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Parity first: byte-identical verdicts, zero warm attempts.
    assert set(warm_verdicts) == set(cold_verdicts)
    for job_id, cold in cold_verdicts.items():
        assert json.dumps(warm_verdicts[job_id], sort_keys=True) == json.dumps(
            cold, sort_keys=True
        ), job_id
    assert all(n >= 1 for n in cold_attempts)
    assert all(n == 0 for n in warm_attempts)

    speedup = round(cold_s / warm_s, 2) if warm_s else float("inf")
    # A smoke run (--quick) checks the same assertions but leaves the
    # committed reference figures alone.
    if not request.config.getoption("--quick"):
        RESULTS.write_text(
            json.dumps(
                {
                    "benchmark": "verdict-store",
                    "jobs": len(cold_verdicts),
                    "cold_seconds": round(cold_s, 4),
                    "warm_seconds": round(warm_s, 4),
                    "speedup": speedup,
                    "parity": "byte-identical",
                    "warm_attempts": 0,
                },
                indent=2,
            )
            + "\n"
        )

    # The bar that justifies a persistent store: a warm campaign is at
    # least an order of magnitude faster than a cold one.
    assert speedup >= 10.0, speedup
