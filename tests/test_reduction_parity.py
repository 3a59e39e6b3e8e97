"""Differential soundness suite for the cold-path state-space reducer.

The contract of :mod:`repro.semantics.reduction` is that pruning is
*verdict-invariant*: symmetry merging of replicated sessions may
collapse the explored graph, but every analysis this codebase exposes
— secrecy, authentication, freshness, environment-sensitive secrecy,
may-testing — must report exactly the same verdict with reduction on
or off, over the whole protocol zoo, under fault injection, across
checkpoint/resume, and through the multi-process suite runner.  These
tests run everything in both modes and diff the results, and pin
the other half of the bargain: on replicated (multi-session) systems
the reduced exploration materializes *strictly fewer* states over the
same horizon.

Graphs explored in different modes legitimately differ (that is the
point), so cross-mode comparisons go through verdict projections and
deadlock sets; within one mode, the state cache must stay invisible,
so cached-vs-uncached runs are diffed with full graph projections.
"""

from __future__ import annotations

import pickle
from collections import deque
from itertools import permutations, product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.attacks import standard_testers
from repro.analysis.environment import env_secrecy
from repro.analysis.intruder import eavesdropper, impersonator, replayer
from repro.analysis.properties import authentication, freshness
from repro.analysis.secrecy import keeps_secret
from repro.core.processes import Parallel
from repro.core.terms import Name
from repro.equivalence.testing import compose, may_preorder
from repro.protocols.library import narration_configuration
from repro.protocols.paper import OBSERVE
from repro.protocols.zoo import ZOO
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.faults import FaultPlan, SUCCESSORS, inject_faults
from repro.runtime.supervisor import run_suite, zoo_jobs
from repro.semantics import canonical, reduction
from repro.semantics.lts import (
    Budget,
    explore,
    resume_exploration,
    snapshot_exploration,
)
from repro.semantics.system import instantiate

from tests.conftest import impl_plaintext, spec_single
from tests.test_parser_fuzz import processes

ZOO_NAMES = sorted(ZOO)

#: Supervisor knobs that keep multi-process parity runs fast.
FAST = {"backoff_base": 0.01, "backoff_cap": 0.05, "heartbeat_grace": 60.0}

#: Replicated protocols where symmetry merging has sessions to fold.
MULTI_SESSION = ["needham-schroeder-sk", "woo-lam"]


@pytest.fixture(autouse=True)
def _fresh_reduction():
    """Each test starts in full-reduction mode with empty caches."""
    reduction.set_reduction_mode("full")
    canonical.set_cache_enabled(True)
    canonical.clear_caches()
    yield
    reduction.set_reduction_mode("full")
    canonical.set_cache_enabled(True)
    canonical.clear_caches()


def under(mode: str, thunk):
    """Run ``thunk`` in reduction mode ``mode`` with cold caches."""
    previous = reduction.set_reduction_mode(mode)
    canonical.clear_caches()
    try:
        return thunk()
    finally:
        reduction.set_reduction_mode(previous)
        canonical.clear_caches()


def zoo_system(name: str, replicate: bool = False):
    spec = ZOO[name](replicate=replicate)
    return compose(
        narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")
    )


def graph_projection(graph) -> dict:
    """Everything observable about a graph, in uid-invariant form."""
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


def verdict_projection(verdict) -> tuple:
    return (verdict.holds, verdict.exhaustive)


def plain_key(system) -> str:
    """The unreduced canonical key of a state, whatever the mode.

    ``System.canonical_key`` memoizes whatever key was current when it
    was first called, so cross-mode comparisons recompute from the
    root with reduction suspended.
    """
    with reduction.suspended():
        return canonical.state_key(system.root, system.roles)


# ----------------------------------------------------------------------
# Verdict parity over the zoo: reduced and unreduced analyses agree
# ----------------------------------------------------------------------


class TestZooVerdictParity:
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

        assert under("full", all_verdicts) == under("none", all_verdicts)

    def test_every_mode_agrees_on_replay_attack(self):
        # Pin the freshness verdict against woo-lam's replayer in every mode.
        spec = ZOO["woo-lam"]()
        config = narration_configuration(
            spec, observed_role="B", observed_datum="PAYLOAD"
        )
        wire = Name(spec.channel)

        def verdict():
            return verdict_projection(
                freshness(config.with_part("E", replayer(wire)), budget=Budget(1500, 30))
            )

        results = {mode: under(mode, verdict) for mode in reduction.MODES}
        assert len(set(results.values())) == 1, results

    def test_env_secrecy(self):
        def verdict():
            v = env_secrecy(impl_plaintext(), "M", budget=Budget(400, 14))
            return (v.holds, v.exhaustive)

        assert under("full", verdict) == under("none", verdict)

    def test_may_preorder(self):
        left = spec_single()
        right = spec_single().with_part("E", replayer(Name("c")))
        tests = standard_testers(left, OBSERVE, roles=("A",))

        def verdict():
            v = may_preorder(left, right, tests, budget=Budget(400, 14))
            return (v.holds, v.exhaustive, v.distinction is None)

        assert under("full", verdict) == under("none", verdict)


# ----------------------------------------------------------------------
# State contraction: reduced explorations are strictly smaller
# ----------------------------------------------------------------------


class TestStateContraction:
    @pytest.mark.parametrize("name", MULTI_SESSION)
    def test_reduced_explores_fewer_states(self, name):
        budget = Budget(50_000, 5)
        full = under("full", lambda: explore(zoo_system(name, replicate=True), budget))
        none = under("none", lambda: explore(zoo_system(name, replicate=True), budget))
        # Same horizon on both sides, or the comparison is void.
        assert full.exhaustion and list(full.exhaustion.reasons) == ["depth"]
        assert none.exhaustion and list(none.exhaustion.reasons) == ["depth"]
        assert full.state_count() < none.state_count(), (
            name,
            full.state_count(),
            none.state_count(),
        )

    def test_sym_merge_metrics_fire(self):
        def run():
            before = canonical.sym_reorder_count()
            explore(zoo_system("woo-lam", replicate=True), Budget(2000, 5))
            return canonical.sym_reorder_count() - before

        assert under("full", run) > 0
        assert under("none", run) == 0


# ----------------------------------------------------------------------
# Deadlock preservation
# ----------------------------------------------------------------------


class TestDeadlockPreservation:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_exhaustive_zoo_deadlocks_coincide(self, name):
        budget = Budget(2000, 40)
        full = under("full", lambda: explore(zoo_system(name), budget))
        none = under("none", lambda: explore(zoo_system(name), budget))
        assert full.exhaustion is None and none.exhaustion is None
        reduced = {plain_key(full.states[key]) for key in full.deadlocks()}
        assert reduced == set(none.deadlocks())


# ----------------------------------------------------------------------
# Fault-injection parity (cache invisibility with reduction on)
# ----------------------------------------------------------------------


class TestFaultParity:
    @pytest.mark.parametrize("every", [3, 7])
    def test_successor_faults_hit_same_ordinals(self, every):
        # With reduction on, cached and uncached runs must still take
        # the identical trajectory — an injected-fault schedule cuts
        # both at the same point even though sym keys are being
        # recomputed without memos on the second run.
        plan = FaultPlan(every=every, sites=frozenset({SUCCESSORS}))
        budget = Budget(300, 20)

        def run():
            canonical.clear_caches()
            with inject_faults(plan):
                return graph_projection(
                    explore(zoo_system("otway-rees", replicate=True), budget)
                )

        cached = run()
        canonical.set_cache_enabled(False)
        uncached = run()
        assert cached == uncached
        assert cached["exhaustion"] is not None
        assert "fault" in cached["exhaustion"][0]


# ----------------------------------------------------------------------
# Checkpoint / resume parity with reduction on
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

    def test_sym_keys_survive_pickling(self):
        # Symmetric canonical keys must recompute to exactly the stored
        # keys after a checkpoint round-trip: the sorted rendering
        # depends only on the state value, never on memo identity.
        graph = explore(zoo_system("woo-lam", replicate=True), Budget(200, 6))
        copy = pickle.loads(pickle.dumps(graph))
        canonical.clear_caches()
        for key, system in copy.states.items():
            assert canonical.state_key(system.root, system.roles) == key

    def test_snapshot_round_trip_does_not_double_count(self):
        # Regression: a snapshot written mid-expansion can carry the
        # same key in both the refused pending list and the live queue;
        # resuming it must reconcile the totals with a straight run.
        def straight():
            return explore(zoo_system("otway-rees", replicate=True), Budget(50_000, 5))

        def resumed():
            partial = explore(
                zoo_system("otway-rees", replicate=True), Budget(30, 5)
            )
            assert partial.truncated and partial.pending
            # Worst case: every pending entry duplicated into the queue.
            snapshot = snapshot_exploration(partial, deque(partial.pending))
            return resume_exploration(snapshot, Budget(50_000, 5))

        direct = under("full", straight)
        chained = under("full", resumed)
        assert chained.exhaustion is not None
        assert chained.exhaustion.states == chained.state_count()
        assert sorted(chained.states) == sorted(direct.states)
        assert chained.transition_count() == direct.transition_count()

    def test_checkpointed_verdict_parity_across_modes(self, tmp_path):
        # Resuming a reduced checkpoint and resuming an unreduced one
        # must agree on what they prove: the depth-5 slice both runs
        # exhaust contains the same deadlocks.
        def chain(tag: str):
            partial = explore(
                zoo_system("needham-schroeder-sk", replicate=True), Budget(30, 5)
            )
            path = str(tmp_path / f"{tag}.ckpt")
            Checkpoint(partial, Budget(30, 5)).save(path)
            return Checkpoint.load(path).resume(Budget(50_000, 5))

        full = under("full", lambda: chain("full"))
        none = under("none", lambda: chain("none"))
        assert full.exhaustion and list(full.exhaustion.reasons) == ["depth"]
        assert none.exhaustion and list(none.exhaustion.reasons) == ["depth"]
        assert full.state_count() < none.state_count()
        reduced = {plain_key(full.states[key]) for key in full.deadlocks()}
        assert reduced <= set(none.deadlocks())


# ----------------------------------------------------------------------
# Worker / suite parity (1 vs 4 workers, reduced vs unreduced)
# ----------------------------------------------------------------------


def _suite_records() -> dict:
    jobs = zoo_jobs(
        max_states=2000,
        max_depth=40,
        protocols=["needham-schroeder-sk", "woo-lam"],
    )
    out = {}
    for workers in (1, 4):
        report = run_suite(jobs, workers=workers, retries=0, **FAST)
        assert report.completed
        out[workers] = {
            rec["job"]: (
                rec["status"],
                rec["result"]["holds"],
                rec["result"]["exact"],
                rec["result"]["violated"],
            )
            for rec in report.records()
        }
    # Worker count never changes a record within one mode.
    assert out[1] == out[4]
    return out[1]


class TestWorkerSuiteParity:
    def test_workers_and_reduction_modes_agree(self, monkeypatch):
        # Spawned workers read REPRO_REDUCTION and REPRO_NO_STATE_CACHE
        # at import time, so the matrix drives them through the env.
        monkeypatch.delenv(canonical.DISABLE_ENV, raising=False)
        monkeypatch.setenv(canonical.REDUCTION_ENV, "full")
        reduced = _suite_records()
        monkeypatch.setenv(canonical.REDUCTION_ENV, "none")
        assert _suite_records() == reduced
        # Unreduced and uncached: no symmetry merging, no interning, no
        # successor cache between the verdict and the transition rules.
        monkeypatch.setenv(canonical.DISABLE_ENV, "1")
        assert _suite_records() == reduced


# ----------------------------------------------------------------------
# Properties of the reducer itself
# ----------------------------------------------------------------------

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _spine_heads(system) -> list[tuple[tuple, list]]:
    """Locations of sym-eligible replicated-session spines, with slots."""
    heads: list[tuple[tuple, list]] = []

    def walk(node, at):
        if node.__class__ is not Parallel:
            return
        chain = canonical._chain(node)
        if chain is not None:
            slots, _template = chain
            if all(
                canonical._sym_safe(slot, None) for slot in slots
            ) and canonical._role_gate(at, system.roles):
                heads.append((at, slots))
        walk(node.left, at + (0,))
        walk(node.right, at + (1,))

    walk(system.root, ())
    return heads


def _distinct_blind_heads(system) -> list[tuple[tuple, int]]:
    """Spines whose slots the canonicalizer can totally order.

    When two slots have *equal* location-blind sort keys but their
    fresh names are referenced from outside the spine, the stable sort
    makes no moves and cannot re-canonicalize a manual swap — merging
    is best-effort there.  With pairwise-distinct blind keys each slot
    has one canonical position, so the key is permutation-invariant.
    """
    out = []
    for head, slots in _spine_heads(system):
        blinds = [
            canonical._blind(slot, head + (1,) * i + (0,), False)
            for i, slot in enumerate(slots)
        ]
        if len(set(blinds)) == len(blinds):
            out.append((head, len(slots)))
    return out


class TestSymmetryProperties:
    def _permutable_states(self, name: str):
        graph = under(
            "full",
            lambda: explore(zoo_system(name, replicate=True), Budget(400, 6)),
        )
        found = []
        for system in graph.states.values():
            heads = _distinct_blind_heads(system)
            if heads:
                found.append((system, heads))
        assert found, f"no sym-eligible states reached for {name}"
        return found

    def test_key_invariant_under_session_permutation(self):
        # Completeness where the sort is total: permuting sessions with
        # distinct blind keys leaves the symmetric canonical key fixed.
        # (Cross-referencing spines, as in needham-schroeder-sk, can
        # defeat the merge; soundness for those is pinned by the orbit
        # test below.)
        checked = 0
        for system, heads in self._permutable_states("woo-lam")[:12]:
            key = canonical.state_key(system.root, system.roles)
            for head, arity in heads:
                orders = [
                    tuple(reversed(range(arity))),
                    tuple(range(1, arity)) + (0,),
                ]
                for order in orders:
                    permuted = reduction.permute_sessions(system, head, order)
                    assert (
                        canonical.state_key(permuted.root, permuted.roles) == key
                    ), (head, order)
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("name", MULTI_SESSION)
    def test_canonicalization_idempotent(self, name):
        # The key is a fixed point: recomputing it — memoized, cold,
        # or with the cache disabled outright — returns the same
        # string, and the identity permutation is the identity.
        for system, heads in self._permutable_states(name)[:6]:
            key = canonical.state_key(system.root, system.roles)
            canonical.clear_caches()
            assert canonical.state_key(system.root, system.roles) == key
            canonical.set_cache_enabled(False)
            try:
                assert canonical.state_key(system.root, system.roles) == key
            finally:
                canonical.set_cache_enabled(True)
            for head, arity in heads:
                assert (
                    reduction.permute_sessions(system, head, tuple(range(arity)))
                    is system
                )

    @given(data=st.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_key_invariant_under_random_permutation(self, data):
        states = self._permutable_states("woo-lam")
        system, heads = data.draw(st.sampled_from(states))
        head, arity = data.draw(st.sampled_from(heads))
        order = tuple(data.draw(st.permutations(range(arity))))
        permuted = reduction.permute_sessions(system, head, order)
        assert canonical.state_key(permuted.root, permuted.roles) == canonical.state_key(
            system.root, system.roles
        )

    @pytest.mark.parametrize("name", MULTI_SESSION)
    def test_merged_states_are_session_permutations(self, name):
        # Soundness of the merge itself: whenever two *distinct*
        # concrete reachable states share one symmetric key, they must
        # be related by a composition of per-spine session
        # permutations — the key never conflates genuinely different
        # states.  Verified by brute-forcing the permutation orbit of
        # each group representative.
        graph = under(
            "none", lambda: explore(zoo_system(name, replicate=True), Budget(50_000, 4))
        )
        states = list(graph.states.items())

        groups: dict[str, list] = {}
        def group():
            out: dict[str, list] = {}
            for plain, system in states:
                out.setdefault(
                    canonical.state_key(system.root, system.roles), []
                ).append((plain, system))
            return {k: v for k, v in out.items() if len(v) > 1}

        multi = under("full", group)
        assert multi, f"no symmetric merging observed for {name}"

        orbits: list[tuple[list, list]] = []  # (members, orbit systems)
        def build_orbits():
            for members in list(multi.values())[:12]:
                _plain, rep = members[0]
                heads = _spine_heads(rep)
                combos = list(
                    product(*[list(permutations(range(len(s)))) for _, s in heads])
                )
                if not combos or len(combos) > 200:
                    continue  # keep the brute force affordable
                variants = []
                for combo in combos:
                    s = rep
                    for (head, slots), order in zip(heads, combo):
                        s = reduction.permute_sessions(s, head, order)
                    variants.append(s)
                orbits.append((members, variants))

        under("full", build_orbits)
        assert orbits

        checked = 0
        def verify():
            nonlocal checked
            for members, variants in orbits:
                orbit = {
                    canonical.state_key(s.root, s.roles) for s in variants
                }
                for plain, _system in members[1:]:
                    assert plain in orbit, (name, plain[:160])
                    checked += 1

        under("none", verify)
        assert checked > 0


class TestDeadlockProperty:
    @given(proc=processes())
    @FUZZ
    def test_reduced_deadlocks_map_to_unreduced_deadlocks(self, proc):
        budget = Budget(300, 30)
        full = under("full", lambda: explore(instantiate(proc), budget))
        none = under("none", lambda: explore(instantiate(proc), budget))
        assume(full.exhaustion is None and none.exhaustion is None)
        reduced = {plain_key(full.states[key]) for key in full.deadlocks()}
        assert reduced <= set(none.deadlocks())
