"""Differential parity suite for the hash-consed state cache.

The contract of :mod:`repro.semantics.canonical` is that caching is
*invisible*: with the cache on or off, explorations produce the same
graphs (state keys, edges, exhaustion records) and analyses produce the
same verdicts — over the whole protocol zoo, under fault injection,
across checkpoint/resume, and through the multi-process suite runner.
These tests run everything both ways and diff the results.

Interned and plain construction only differ in object identity, never
in value, so graph comparisons go through canonical keys (which are
alpha-invariant and therefore immune to the fresh-uid streams diverging
between the two runs).
"""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.attacks import standard_testers
from repro.analysis.environment import env_freshness, env_secrecy
from repro.analysis.intruder import eavesdropper, impersonator, replayer
from repro.analysis.properties import authentication, freshness
from repro.analysis.secrecy import keeps_secret
from repro.core.substitution import freshen_bound
from repro.core.terms import Name
from repro.equivalence.testing import Configuration, compose, may_preorder
from repro.protocols.library import narration_configuration
from repro.protocols.paper import OBSERVE
from repro.protocols.zoo import ZOO
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.faults import FaultPlan, SUCCESSORS, inject_faults
from repro.runtime.supervisor import run_suite, zoo_jobs
from repro.semantics import canonical, reduction
from repro.semantics.lts import Budget, explore
from repro.semantics.normalize import normalize
from repro.semantics.system import instantiate
from repro.syntax.parser import parse_process
from repro.syntax.pretty import canonical_process

from tests.conftest import (
    impl_crypto_multi,
    impl_plaintext,
    in_process_verdicts,
    spec_single,
    suite_verdicts,
)
from tests.test_parser_fuzz import processes

ZOO_NAMES = sorted(ZOO)

#: The replicated zoo at the depths of the ``explore-cold`` benchmark.
BENCHMARK_HORIZONS = [
    ("needham-schroeder-sk", 5),
    ("otway-rees", 4),
    ("woo-lam", 5),
    ("yahalom", 4),
]

#: Supervisor knobs that keep multi-process parity runs fast.
FAST = {"backoff_base": 0.01, "backoff_cap": 0.05, "heartbeat_grace": 60.0}


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts with an enabled, empty cache and leaves it so."""
    canonical.set_cache_enabled(True)
    canonical.clear_caches()
    yield
    canonical.set_cache_enabled(True)
    canonical.clear_caches()


def zoo_system(name: str, replicate: bool = False):
    spec = ZOO[name](replicate=replicate)
    return compose(
        narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")
    )


def graph_projection(graph) -> dict:
    """Everything observable about a graph, in uid-invariant form.

    Canonical keys are alpha-invariant, so they coincide between runs
    whose fresh-uid streams diverged; representative ``System`` objects
    do not, and are deliberately excluded.
    """
    exhaustion = None
    if graph.exhaustion is not None:
        # ``elapsed`` is wall-clock and legitimately differs.
        exhaustion = (
            graph.exhaustion.reasons,
            graph.exhaustion.states,
            graph.exhaustion.depth,
            graph.exhaustion.detail,
        )
    return {
        "initial": graph.initial,
        "states": sorted(graph.states),
        "edges": {
            key: [target for _, target in out] for key, out in graph.edges.items()
        },
        "exhaustion": exhaustion,
        "pending": graph.pending,
        "incomplete": graph.incomplete,
    }


def explore_both_ways(make_system, budget: Budget) -> tuple[dict, dict]:
    """Run one exploration cached and one uncached, projecting both."""
    canonical.set_cache_enabled(True)
    canonical.clear_caches()
    cached = graph_projection(explore(make_system(), budget))
    assert canonical.metrics_snapshot()[1] > 0  # the cache actually ran
    canonical.set_cache_enabled(False)
    uncached = graph_projection(explore(make_system(), budget))
    return cached, uncached


# ----------------------------------------------------------------------
# Graph parity over the zoo
# ----------------------------------------------------------------------


class TestZooGraphParity:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_exhaustive_exploration(self, name):
        cached, uncached = explore_both_ways(
            lambda: zoo_system(name), Budget(2000, 40)
        )
        assert cached == uncached
        assert cached["exhaustion"] is None  # the whole space, both ways

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_truncated_replicated_exploration(self, name):
        # Replicated zoo spaces are infinite: both runs must truncate at
        # exactly the same frontier with the same exhaustion record.
        cached, uncached = explore_both_ways(
            lambda: zoo_system(name, replicate=True), Budget(120, 12)
        )
        assert cached == uncached
        assert cached["exhaustion"] is not None

    @pytest.mark.parametrize("mode", ["full", "none"])
    @pytest.mark.parametrize("name,depth", BENCHMARK_HORIZONS)
    def test_replicated_exploration_at_benchmark_depth(self, name, depth, mode):
        # The cached run reuses each replication site's unfold (and its
        # fresh names); the uncached run freshens on every expansion.
        # The graphs must still agree key for key.
        previous = reduction.set_reduction_mode(mode)
        try:
            cached, uncached = explore_both_ways(
                lambda: zoo_system(name, replicate=True), Budget(50_000, depth)
            )
        finally:
            reduction.set_reduction_mode(previous)
        assert cached == uncached
        assert cached["exhaustion"] is not None

    def test_repeated_cached_runs_identical(self):
        # Re-exploring the same system is served by the memos the first
        # run filled: the leaf and redex memos hand back the same
        # actions and unfolds, the arena the same interned targets,
        # and the whole-key memo their keys.  The graph must not change.
        budget = Budget(120, 12)
        system = zoo_system("yahalom", replicate=True)
        first = graph_projection(explore(system, budget))
        before = canonical.metrics_snapshot()
        second = graph_projection(explore(system, budget))
        after = canonical.metrics_snapshot()
        assert second == first
        hits, misses = {}, {}
        for name, b, a in zip(canonical._METRIC_NAMES, before, after):
            (misses if name.endswith("miss") else hits)[name] = a - b
        assert set(misses.values()) == {0}, misses
        for name in ("canonical.hit", "successor.leaf_hit", "successor.redex_hit"):
            assert hits[name] > 0, hits


# ----------------------------------------------------------------------
# Verdict parity
# ----------------------------------------------------------------------


def verdict_projection(verdict) -> tuple:
    return (verdict.holds, verdict.exhaustive)


def exhaustion_projection(exhaustion) -> tuple | None:
    if exhaustion is None:
        return None
    return (exhaustion.reasons, exhaustion.states, exhaustion.depth)


def env_projection(verdict) -> tuple:
    return (
        verdict.holds,
        verdict.exhaustive,
        verdict.states,
        exhaustion_projection(verdict.exhaustion),
    )


def secrecy_projection(verdict) -> tuple:
    return (
        verdict.holds,
        verdict.exhaustive,
        verdict.heard,
        None if verdict.leak is None else verdict.leak.base,
        exhaustion_projection(verdict.exhaustion),
    )


class TestVerdictParity:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_intruder_properties(self, name):
        spec = ZOO[name]()
        config = narration_configuration(
            spec, observed_role="B", observed_datum="PAYLOAD"
        )
        wire = Name(spec.channel)
        budget = Budget(1500, 30)

        def all_verdicts():
            return (
                verdict_projection(
                    keeps_secret(
                        config.with_part("E", eavesdropper(wire, messages=6)),
                        "KAB",
                        budget=budget,
                    )
                ),
                verdict_projection(
                    authentication(
                        config.with_part("E", impersonator(wire)), "A", budget=budget
                    )
                ),
                verdict_projection(
                    freshness(config.with_part("E", replayer(wire)), budget=budget)
                ),
            )

        cached = all_verdicts()
        canonical.set_cache_enabled(False)
        assert all_verdicts() == cached

    def test_env_secrecy(self):
        cached = env_secrecy(impl_plaintext(), "M", budget=Budget(400, 14))
        canonical.set_cache_enabled(False)
        uncached = env_secrecy(impl_plaintext(), "M", budget=Budget(400, 14))
        assert (cached.holds, cached.exhaustive) == (uncached.holds, uncached.exhaustive)

    @pytest.mark.parametrize(
        "make_verdict",
        [
            lambda: env_freshness(impl_crypto_multi(), budget=Budget(400, 10)),
            lambda: env_secrecy(impl_crypto_multi(), "KAB", budget=Budget(400, 10)),
            lambda: env_freshness(
                narration_configuration(
                    ZOO["otway-rees"](replicate=True),
                    observed_role="B",
                    observed_datum="PAYLOAD",
                ),
                budget=Budget(300, 8),
            ),
        ],
        ids=["pm2-freshness", "pm2-secrecy", "otway-rees-freshness"],
    )
    def test_env_verdicts_on_replicated_protocols(self, make_verdict):
        # Environment states are keyed on the attacker's raw knowledge,
        # so they must see the reference path's uid families: two
        # interleavings that unfold one replication site stay two
        # states, and the budget truncates at the same frontier.
        cached = env_projection(make_verdict())
        canonical.set_cache_enabled(False)
        assert env_projection(make_verdict()) == cached

    @pytest.mark.parametrize("name,depth", BENCHMARK_HORIZONS)
    def test_keeps_secret_on_replicated_zoo_at_benchmark_depth(self, name, depth):
        spec = ZOO[name](replicate=True)
        config = narration_configuration(
            spec, observed_role="B", observed_datum="PAYLOAD"
        ).with_part("E", eavesdropper(Name(spec.channel), messages=6))

        def verdicts():
            return [
                secrecy_projection(keeps_secret(config, secret, budget=Budget(50_000, depth)))
                for secret in ("KAB", "PAYLOAD")
            ]

        cached = verdicts()
        canonical.set_cache_enabled(False)
        assert verdicts() == cached

    def test_keeps_secret_does_not_merge_branches_through_one_site(self):
        # The replicated responder unfolds at the same site on two
        # branches that split before it: one sends k, the other {s}k.
        # No single run gives the spy both; if the site's names were
        # shared across branches, the union knowledge would derive s.
        config = Configuration(
            parts=(
                ("A", parse_process("(nu g)(g<one>.0 | g<two>.0 | g(y).d<y>.0)")),
                (
                    "R",
                    parse_process(
                        "!(d(x).(nu k)((nu s)([x = one] c<k>.0 | [x = two] c<{s}k>.0)))"
                    ),
                ),
                ("E", parse_process("c(m).c(n).0")),
            ),
            private=(Name("c"), Name("d")),
        )
        cached = keeps_secret(config, "s", budget=Budget(500, 10))
        assert cached.holds and cached.exhaustive
        canonical.set_cache_enabled(False)
        assert secrecy_projection(
            keeps_secret(config, "s", budget=Budget(500, 10))
        ) == secrecy_projection(cached)

    def test_may_preorder(self):
        left = spec_single()
        right = spec_single().with_part("E", replayer(Name("c")))
        tests = standard_testers(left, OBSERVE, roles=("A",))
        budget = Budget(400, 14)

        cached = may_preorder(left, right, tests, budget=budget)
        canonical.set_cache_enabled(False)
        uncached = may_preorder(left, right, tests, budget=budget)
        assert (cached.holds, cached.exhaustive) == (uncached.holds, uncached.exhaustive)
        assert (cached.distinction is None) == (uncached.distinction is None)


# ----------------------------------------------------------------------
# Fault-injection parity
# ----------------------------------------------------------------------


class TestFaultParity:
    @pytest.mark.parametrize("every", [3, 7])
    def test_successor_faults_hit_same_ordinals(self, every):
        # The fault hook fires before either successor path runs, so an
        # injected-fault schedule must cut both runs at the same point.
        plan = FaultPlan(every=every, sites=frozenset({SUCCESSORS}))
        budget = Budget(300, 20)

        def run():
            with inject_faults(plan):
                return graph_projection(explore(zoo_system("otway-rees"), budget))

        cached = run()
        canonical.set_cache_enabled(False)
        uncached = run()
        assert cached == uncached
        assert cached["exhaustion"] is not None
        assert "fault" in cached["exhaustion"][0]


# ----------------------------------------------------------------------
# Checkpoint / resume parity
# ----------------------------------------------------------------------


class TestCheckpointResumeParity:
    def _resumed_projection(self, tmp_path, tag: str) -> dict:
        system = zoo_system("needham-schroeder-sk", replicate=True)
        first = explore(system, Budget(40, 8))
        assert first.truncated
        path = str(tmp_path / f"{tag}.ckpt")
        Checkpoint(first, Budget(40, 8)).save(path)
        loaded = Checkpoint.load(path)
        resumed = loaded.resume(Budget(160, 12))
        return graph_projection(resumed)

    def test_resume_parity(self, tmp_path):
        cached = self._resumed_projection(tmp_path, "cached")
        canonical.set_cache_enabled(False)
        uncached = self._resumed_projection(tmp_path, "uncached")
        assert cached == uncached

    def test_interned_states_round_trip(self, tmp_path):
        # Checkpoints pickle interned states as the plain dataclasses
        # they are; on load, keys recompute to exactly the stored keys.
        graph = explore(zoo_system("woo-lam"), Budget(200, 20))
        path = str(tmp_path / "roundtrip.ckpt")
        Checkpoint(graph, Budget(200, 20)).save(path)
        loaded = Checkpoint.load(path).graph
        assert sorted(loaded.states) == sorted(graph.states)
        for key, system in loaded.states.items():
            assert system.canonical_key() == key

    def test_snapshot_exploration_round_trips_interned_states(self, tmp_path):
        # A mid-flight snapshot (what the autosave hook checkpoints)
        # carries interned states and an unexpanded frontier; both must
        # survive the checkpoint and resume to the same graph.
        from collections import deque

        from repro.semantics.lts import snapshot_exploration

        system = zoo_system("otway-rees", replicate=True)
        partial = explore(system, Budget(30, 6))
        assert partial.truncated and partial.pending
        queue = deque(partial.pending[: len(partial.pending) // 2])
        snapshot = snapshot_exploration(partial, queue)
        path = str(tmp_path / "snapshot.ckpt")
        Checkpoint(snapshot, Budget(30, 6)).save(path)
        loaded = Checkpoint.load(path)
        for key, state in loaded.graph.states.items():
            assert state.canonical_key() == key
        assert loaded.graph.pending == snapshot.pending
        resumed = loaded.resume(Budget(200, 12))
        assert set(resumed.states) >= set(partial.states)
        for key, state in resumed.states.items():
            assert state.canonical_key() == key

    def test_interned_states_survive_plain_pickle(self):
        graph = explore(zoo_system("yahalom"), Budget(120, 12))
        copy = pickle.loads(pickle.dumps(graph))
        for key, system in copy.states.items():
            assert system.canonical_key() == key


# ----------------------------------------------------------------------
# Worker / suite parity (1 vs 4 workers, cached vs uncached)
# ----------------------------------------------------------------------


SUITE_JOBS = zoo_jobs(
    max_states=200,
    max_depth=16,
    protocols=["needham-schroeder-sk", "woo-lam"],
)


def _suite_records(workers: int) -> dict:
    report = run_suite(SUITE_JOBS, workers=workers, retries=0, **FAST)
    assert report.completed
    return suite_verdicts(report.records())


class TestWorkerSuiteParity:
    def test_workers_and_cache_modes_agree(self):
        baseline = _suite_records(workers=1)
        assert _suite_records(workers=4) == baseline
        # The same jobs run here, uncached, through the worker's own
        # entry point: the records the 4-worker suite journaled.
        canonical.set_cache_enabled(False)
        assert in_process_verdicts(SUITE_JOBS) == baseline


# ----------------------------------------------------------------------
# Hypothesis properties of the key function itself
# ----------------------------------------------------------------------

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestKeyProperties:
    @given(proc=processes())
    @FUZZ
    def test_state_key_matches_pretty_printer(self, proc):
        # Byte-for-byte: the memoized renderer is the pretty-printer.
        assert canonical.state_key(proc) == canonical_process(proc)

    @given(proc=processes())
    @FUZZ
    def test_key_invariant_under_alpha_renaming(self, proc):
        # Two freshenings of the same process draw disjoint uids for
        # every bound name, variable and location variable — the exact
        # alpha-variance replication unfolding produces.
        first = freshen_bound(proc)
        second = freshen_bound(proc)
        assert canonical.state_key(first) == canonical.state_key(second)

    def test_key_ignores_binder_spelling(self):
        # Renumbering also erases the *spelling* of bound variables.
        from repro.core.processes import Channel, Input, Nil, Output
        from repro.core.terms import Var

        wire = Channel(Name("c"))

        def echo(ident: str):
            v = Var(ident)
            return Input(wire, v, Output(wire, v, Nil()))

        assert canonical.state_key(echo("x")) == canonical.state_key(echo("y"))
        # ...but not the spelling of free names, which are global.
        other = Channel(Name("d"))
        free = Input(other, Var("x"), Output(other, Var("x"), Nil()))
        assert canonical.state_key(free) != canonical.state_key(echo("x"))

    @given(proc=processes())
    @FUZZ
    def test_key_invariant_under_fresh_id_renumbering(self, proc):
        # Instantiating the same closed source twice draws disjoint uid
        # ranges for the restricted names; keys must not notice.
        first = instantiate(proc)
        second = instantiate(proc)
        assert first.canonical_key() == second.canonical_key()

    @given(proc=processes())
    @FUZZ
    def test_normalize_idempotent_on_keys(self, proc):
        root = instantiate(proc).root
        assert canonical.state_key(normalize(root)) == canonical.state_key(root)

    @given(proc=processes())
    @FUZZ
    def test_interning_preserves_value_and_is_stable(self, proc):
        interned = canonical.intern_process(proc)
        assert interned == proc
        assert canonical_process(interned) == canonical_process(proc)
        assert canonical.intern_process(proc) is interned

    @given(proc=processes())
    @FUZZ
    def test_disabled_cache_agrees(self, proc):
        enabled = canonical.state_key(proc)
        canonical.set_cache_enabled(False)
        try:
            assert canonical.state_key(proc) == enabled
        finally:
            canonical.set_cache_enabled(True)
