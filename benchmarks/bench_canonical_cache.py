"""[BENCH-CANON-CACHE] The hash-consed state cache vs the uncached path.

Measures states/second for exploration with the cache of
:mod:`repro.semantics.canonical` enabled and disabled, on three zoo
workloads:

* **cold** — a single bounded exploration of a replicated protocol.
  Each distinct state still renders its key once (keys must stay
  byte-identical to the uncached path), so this mostly gauges the
  overhead of interning; the contract is "about parity".
* **escalation** — the resilient runtime's budget-escalation ladder
  re-explores the same system at growing budgets.  Each rung re-expands
  the states of the rungs below it, whose leaves, redexes and
  replication unfolds are already in the successor memos and whose
  keys are already memoized, so those states cost little more than
  the grafts that rebuild their targets.
* **replay** — re-exploring an already-explored system (what
  checkpoint/resume, the differential parity suite, and any repeated
  analysis over one system do).  Every expansion is served from the
  leaf, redex and unfold memos, so the targets come back as the same
  interned trees (uids included), and the whole-key memo makes
  deduplication a dictionary lookup; this is the workload the cache
  exists for.

Results are written to ``BENCH_canonical.json`` at the repository root
so future changes can track the trajectory; the replay workload is
asserted to reach the 2x bar that justifies the cache.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.equivalence.testing import compose
from repro.protocols.library import narration_configuration
from repro.protocols.zoo import ZOO
from repro.semantics import canonical
from repro.semantics.lts import Budget, explore

RESULTS = Path(__file__).resolve().parent.parent / "BENCH_canonical.json"

#: The escalation ladder: the same system explored at growing budgets,
#: as the resilient verification runtime does after an exhaustion.
LADDER = [Budget(60, 8), Budget(120, 10), Budget(240, 12), Budget(480, 14)]

COLD_BUDGET = Budget(480, 14)


def zoo_system(name: str):
    spec = ZOO[name](replicate=True)
    return compose(
        narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")
    )


def _measure(run) -> dict:
    """states/s of ``run()`` (which returns a total state count)."""
    started = time.perf_counter()
    states = run()
    elapsed = time.perf_counter() - started
    return {
        "states": states,
        "seconds": round(elapsed, 4),
        "states_per_second": round(states / elapsed, 1) if elapsed else float("inf"),
    }


def _cold(name: str, enabled: bool) -> dict:
    canonical.set_cache_enabled(enabled)
    canonical.clear_caches()
    system = zoo_system(name)
    return _measure(lambda: explore(system, COLD_BUDGET).state_count())


def _escalation(name: str, enabled: bool) -> dict:
    canonical.set_cache_enabled(enabled)
    canonical.clear_caches()
    system = zoo_system(name)

    def ladder() -> int:
        return sum(explore(system, budget).state_count() for budget in LADDER)

    return _measure(ladder)


def _replay(name: str, enabled: bool) -> dict:
    canonical.set_cache_enabled(enabled)
    canonical.clear_caches()
    system = zoo_system(name)
    explore(system, COLD_BUDGET)  # warm-up: the first full exploration
    return _measure(lambda: explore(system, COLD_BUDGET).state_count())


def _speedup(cached: dict, uncached: dict) -> float:
    base = uncached["states_per_second"]
    return round(cached["states_per_second"] / base, 2) if base else float("inf")


def test_canonical_cache_states_per_second(request):
    results: dict[str, dict] = {}
    try:
        for name in sorted(ZOO):
            cold_uncached = _cold(name, enabled=False)
            cold_cached = _cold(name, enabled=True)
            esc_uncached = _escalation(name, enabled=False)
            esc_cached = _escalation(name, enabled=True)
            replay_uncached = _replay(name, enabled=False)
            replay_cached = _replay(name, enabled=True)
            results[name] = {
                "cold": {
                    "cached": cold_cached,
                    "uncached": cold_uncached,
                    "speedup": _speedup(cold_cached, cold_uncached),
                },
                "escalation": {
                    "cached": esc_cached,
                    "uncached": esc_uncached,
                    "speedup": _speedup(esc_cached, esc_uncached),
                },
                "replay": {
                    "cached": replay_cached,
                    "uncached": replay_uncached,
                    "speedup": _speedup(replay_cached, replay_uncached),
                },
            }
    finally:
        canonical.set_cache_enabled(True)
        canonical.clear_caches()

    # Parity first: identical state counts with and without the cache.
    for name, row in results.items():
        for workload in ("cold", "escalation", "replay"):
            assert (
                row[workload]["cached"]["states"]
                == row[workload]["uncached"]["states"]
            ), (name, workload)

    best = max(row["replay"]["speedup"] for row in results.values())
    # A smoke run (--quick) checks the same assertions but leaves the
    # committed reference figures alone.
    if not request.config.getoption("--quick"):
        RESULTS.write_text(
            json.dumps(
                {
                    "benchmark": "canonical-cache",
                    "workloads": {
                        "cold": "single bounded exploration, replicated zoo",
                        "escalation": f"budget ladder {[b.max_states for b in LADDER]}",
                        "replay": "re-exploration of an already-explored system",
                    },
                    "best_replay_speedup": best,
                    "protocols": results,
                },
                indent=2,
            )
            + "\n"
        )
    # The cache must pay for itself: at least one zoo workload doubles
    # its throughput.  Replay is the designed showcase — resume after a
    # checkpoint, escalation rungs, and differential re-runs all
    # re-expand states the cache has already seen.
    assert best >= 2.0, f"best replay speedup {best} < 2.0 (see {RESULTS})"
