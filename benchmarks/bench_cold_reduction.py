"""[BENCH-REDUCTION] Cold-path state-space reduction vs full expansion.

Measures *effective* cold throughput of the reducer of
:mod:`repro.semantics.reduction` on replicated (multi-session) zoo
protocols: every run explores the same depth-bounded slice of the
state space to exhaustion, once with reduction off (``none``) and once
with symmetry merging of permuted sessions (``full``).  Merging means
the reduced exploration materializes *fewer* states while
covering the same behaviour, so the honest throughput figure is

    effective states/s  =  baseline states / reduced seconds

— how fast the reduced run covers the space the baseline had to
enumerate state by state.  The ``speedup`` recorded per protocol is
that figure over the baseline's own states/s, i.e. the wall-clock
ratio for identical coverage.

Depths are chosen so the baseline exhausts the horizon (``depth`` is
the only exhaustion reason) in a few seconds (0.6-2.7 s each on a
2-vCPU container): replicated zoo spaces grow by roughly an order of
magnitude per level.  At least two protocols must clear the 3x bar
that justifies the reducer; only a run that does rewrites
``BENCH_reduction.json`` at the repository root, so a failed run
leaves the committed reference as it was.  ``--quick`` (CI smoke) runs
one shallow horizon per protocol and checks only the state-count
contraction, not the timing bar.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.equivalence.testing import compose
from repro.protocols.library import narration_configuration
from repro.protocols.zoo import ZOO
from repro.semantics import canonical, reduction
from repro.semantics.lts import Budget, explore

RESULTS = Path(__file__).resolve().parent.parent / "BENCH_reduction.json"

#: Protocol -> depth horizon the baseline can exhaust in reasonable
#: time.  All are replicated (multi-session) configurations sharing
#: one public wire, so the contraction comes from symmetry merging of
#: permuted sessions plus batched successor generation.
HORIZONS = {
    "woo-lam": 6,
    "otway-rees": 6,
    "needham-schroeder-sk": 7,
}

QUICK_DEPTH = 5
TARGET_SPEEDUP = 3.0
MAX_STATES = 50_000


def _zoo_system(name: str):
    spec = ZOO[name](replicate=True)
    return compose(
        narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")
    )


def _cold_explore(name: str, mode: str, depth: int) -> dict:
    """One cold exploration: fresh caches, fresh system, one pass."""
    previous = reduction.set_reduction_mode(mode)
    canonical.clear_caches()
    try:
        system = _zoo_system(name)
        merges_before = canonical.sym_reorder_count()
        started = time.perf_counter()
        graph = explore(system, Budget(MAX_STATES, depth))
        elapsed = time.perf_counter() - started
        reasons = graph.exhaustion.reasons if graph.exhaustion else ()
        return {
            "states": graph.state_count(),
            "transitions": graph.transition_count(),
            "seconds": round(elapsed, 3),
            "states_per_second": round(graph.state_count() / elapsed, 1),
            "sym_merges": canonical.sym_reorder_count() - merges_before,
            "exhaustion": list(reasons),
        }
    finally:
        reduction.set_reduction_mode(previous)
        canonical.clear_caches()


def _row(name: str, depth: int) -> dict:
    baseline = _cold_explore(name, "none", depth)
    reduced = _cold_explore(name, "full", depth)
    # Same horizon on both sides, or the coverage comparison is void.
    assert baseline["exhaustion"] == ["depth"], (name, baseline["exhaustion"])
    assert reduced["exhaustion"] == ["depth"], (name, reduced["exhaustion"])
    effective = baseline["states"] / reduced["seconds"] if reduced["seconds"] else 0.0
    speedup = (
        round(effective / baseline["states_per_second"], 2)
        if baseline["states_per_second"]
        else float("inf")
    )
    return {
        "depth": depth,
        "baseline": baseline,
        "reduced": reduced,
        "state_contraction": round(baseline["states"] / reduced["states"], 2),
        "effective_states_per_second": round(effective, 1),
        "speedup": speedup,
    }


def test_cold_reduction_states_per_second(request):
    quick = request.config.getoption("--quick")
    results: dict[str, dict] = {}
    for name, depth in sorted(HORIZONS.items()):
        results[name] = _row(name, QUICK_DEPTH if quick else depth)

    # Soundness floor in every mode: the reduced run explores strictly
    # fewer states over the same horizon on these replicated systems.
    for name, row in results.items():
        assert row["reduced"]["states"] < row["baseline"]["states"], (
            name,
            row["reduced"]["states"],
            row["baseline"]["states"],
        )
        assert row["reduced"]["sym_merges"] > 0, name

    if quick:
        return

    at_target = [n for n, row in results.items() if row["speedup"] >= TARGET_SPEEDUP]
    speedups = {name: row["speedup"] for name, row in results.items()}
    assert len(at_target) >= 2, (
        f"only {at_target} reached {TARGET_SPEEDUP}x; speedups {speedups}"
    )
    RESULTS.write_text(
        json.dumps(
            {
                "benchmark": "cold-reduction",
                "modes": {"baseline": "none", "reduced": "full"},
                "measure": (
                    "effective states/s = baseline states / reduced seconds "
                    "over the same depth-exhausted horizon"
                ),
                "target_speedup": TARGET_SPEEDUP,
                "protocols_at_target": sorted(at_target),
                "protocols": results,
            },
            indent=2,
        )
        + "\n"
    )
