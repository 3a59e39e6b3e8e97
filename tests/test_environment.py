"""Tests for the knowledge-indexed most-general attacker."""

from __future__ import annotations

import pytest

from repro.analysis.environment import (
    EnvState,
    env_authentication,
    env_explore,
    env_freshness,
    env_secrecy,
)
from repro.analysis.knowledge import Knowledge
from repro.core.processes import Channel, Input, Nil, Output, Restriction
from repro.core.substitution import rename_names, rename_names_term
from repro.core.terms import Name, Pair, SharedEnc, Var, fresh_uid
from repro.equivalence.testing import Configuration, compose
from repro.semantics import reduction
from repro.semantics.lts import Budget
from repro.semantics.system import System
from repro.semantics.transitions import successors
from repro.syntax.parser import parse_process

from tests.conftest import (
    impl_challenge_response,
    impl_crypto,
    impl_crypto_multi,
    impl_plaintext,
    spec_multi,
    spec_single,
)

C = Name("c")
BUDGET = Budget(max_states=4000, max_depth=18)
MULTI_BUDGET = Budget(max_states=2500, max_depth=11)


class TestExploration:
    def test_environment_hears_protocol_traffic(self):
        graph = env_explore(impl_plaintext(), budget=BUDGET)
        # some state's knowledge contains A's secret M (it was broadcast)
        assert any(
            any(n.base == "M" for n in state.knowledge.names())
            for state in graph.states.values()
        )

    def test_environment_respects_partner_authentication(self):
        # in the abstract protocol, B's input is localized: the
        # environment can never 'say' into it
        graph = env_explore(spec_single(), budget=BUDGET)
        for key in graph.edges:
            for step, _ in graph.edges[key]:
                if step.kind == "say":
                    receiver = step.action.receiver
                    state = graph.states[key]
                    b_loc = state.system.location_of("B")
                    assert receiver[: len(b_loc)] != b_loc

    def test_environment_only_uses_protocol_channels(self):
        graph = env_explore(spec_single(), budget=BUDGET)
        for key in graph.edges:
            for step, _ in graph.edges[key]:
                if step.kind in ("hear", "say"):
                    assert step.action.channel.base == "c"

    def test_knowledge_is_monotone_along_edges(self):
        graph = env_explore(impl_plaintext(), budget=BUDGET)
        for key, out in graph.edges.items():
            source = graph.states[key]
            for step, target_key in out:
                target = graph.states[target_key]
                assert source.knowledge.atoms <= target.knowledge.atoms

    def test_missing_env_role_gets_added(self):
        cfg = Configuration(
            parts=(("A", Output(Channel(C), Name("hello"), Nil())),), private=(C,)
        )
        graph = env_explore(cfg, budget=Budget(200, 8))
        assert graph.state_count() >= 2  # the hear step happened

    def test_describe_step(self):
        graph = env_explore(impl_plaintext(), budget=BUDGET)
        for key, out in graph.edges.items():
            for step, _ in out:
                text = step.describe(graph.states[key])
                assert text.startswith(("[tau]", "[hear]", "[say]"))
                return


class TestSecrecy:
    def test_plaintext_leaks(self):
        verdict = env_secrecy(impl_plaintext(), "M", budget=BUDGET)
        assert not verdict.holds

    def test_crypto_keeps_payload(self):
        verdict = env_secrecy(impl_crypto(), "M", budget=BUDGET)
        assert verdict.holds and verdict.exhaustive

    def test_crypto_keeps_key(self):
        verdict = env_secrecy(impl_crypto(), "KAB", budget=BUDGET)
        assert verdict.holds

    def test_abstract_protocol_has_no_secrecy(self):
        # partner authentication protects B's input, not A's output:
        # the MGA hears M directly (the Section 5.1 remark)
        verdict = env_secrecy(spec_single(), "M", budget=BUDGET)
        assert not verdict.holds

    def test_localized_output_gives_secrecy(self):
        from repro.analysis.secrecy import secrecy_protocol

        cfg = Configuration(
            parts=(("P", secrecy_protocol()),),
            private=(C,),
            subroles=(("P", (0,), "A"), ("P", (1,), "B")),
        )
        verdict = env_secrecy(cfg, "M", budget=BUDGET)
        assert verdict.holds and verdict.exhaustive


class TestAuthentication:
    def test_abstract_protocol_authentic(self):
        verdict = env_authentication(spec_single(), "A", budget=BUDGET)
        assert verdict.holds and verdict.exhaustive

    def test_plaintext_violated(self):
        verdict = env_authentication(impl_plaintext(), "A", budget=BUDGET)
        assert not verdict.holds
        assert "not created by A" in verdict.violation

    def test_crypto_authentic(self):
        verdict = env_authentication(impl_crypto(), "A", budget=BUDGET)
        assert verdict.holds and verdict.exhaustive

    def test_multisession_abstract_authentic_within_budget(self):
        verdict = env_authentication(spec_multi(), "!A", budget=MULTI_BUDGET)
        assert verdict.holds


class TestFreshness:
    def test_pm2_replay_found_by_mga(self):
        verdict = env_freshness(impl_crypto_multi(), budget=Budget(3000, 12))
        assert not verdict.holds

    def test_pm_fresh_within_budget(self):
        verdict = env_freshness(spec_multi(), budget=MULTI_BUDGET)
        assert verdict.holds

    def test_pm3_fresh_within_budget(self):
        verdict = env_freshness(impl_challenge_response(), budget=MULTI_BUDGET)
        assert verdict.holds


class TestSynthesis:
    def test_environment_can_say_composites(self):
        # a receiver that requires a ciphertext under a known key: the
        # MGA synthesizes it at synth_depth 1 when it knows the key.
        k = Name("k")
        x, y = Var("x", fresh_uid()), Var("y", fresh_uid())
        from repro.core.processes import Case

        receiver = Input(
            Channel(C), x, Case(x, (y,), k, Output(Channel(Name("observe")), y, Nil()))
        )
        cfg = Configuration(parts=(("B", receiver),), private=(C,))
        verdict = env_secrecy(cfg, "nothing", budget=Budget(500, 6))
        graph = env_explore(cfg, initial_knowledge=(k,), budget=Budget(500, 6))
        kinds = {
            step.kind for out in graph.edges.values() for step, _ in out
        }
        assert "say" in kinds


class TestHiddenKeys:
    def test_narration_keys_are_not_attacker_knowledge(self):
        """Long-term keys sit in Configuration.hidden: the MGA must not
        receive them as initial knowledge (only the channels in C)."""
        from repro.protocols.library import encrypted_transport, narration_configuration

        cfg = narration_configuration(encrypted_transport())
        assert cfg.hidden and all(n.base == "KAB" for n in cfg.hidden)
        verdict = env_secrecy(cfg, "KAB", budget=Budget(1500, 16))
        assert verdict.holds
        verdict = env_secrecy(cfg, "M", budget=Budget(1500, 16))
        assert verdict.holds

    def test_channels_in_private_are_attacker_knowledge(self):
        from repro.protocols.library import encrypted_transport, narration_configuration

        cfg = narration_configuration(encrypted_transport())
        graph = env_explore(cfg, budget=Budget(800, 12))
        initial = graph.states[graph.initial]
        assert any(n.base == "c" for n in initial.knowledge.names())
        assert not any(n.base == "KAB" for n in initial.knowledge.names())


# ----------------------------------------------------------------------
# The joint key: process and knowledge renamed together
# ----------------------------------------------------------------------


def _sessions() -> System:
    """Two unfolded sessions of ``!((nu n)(a<n>.b<n>.c<n>.0))``, one
    past its ``b`` step (slot 0) and one before it (slot 1)."""
    return _step(_two_sessions(), "b", sender=(0, 0))


def _two_sessions() -> System:
    config = Configuration(
        parts=(
            ("A", parse_process("!((nu n)(a<n>.b<n>.c<n>.0))")),
            ("B", parse_process("!(a(x).0) | !(b(y).0) | !(c(z).0)")),
        ),
        private=(Name("a"), Name("b"), Name("c")),
    )
    return _step(_step(compose(config), "a"), "a")


def _step(system: System, channel: str, sender=None) -> System:
    return next(
        t.target
        for t in successors(system)
        if t.action.channel.base == channel and sender in (None, t.action.sender)
    )


def _nonce(system: System, creator) -> Name:
    (name,) = [n for n in system.private if n.base == "n" and n.creator == creator]
    return name


@pytest.fixture
def full_reduction():
    previous = reduction.set_reduction_mode("full")
    yield
    reduction.set_reduction_mode(previous)


class TestJointKey:
    def test_consistent_uid_renaming_keeps_the_key(self):
        system = _sessions()
        first, second = _nonce(system, (0, 0)), _nonce(system, (0, 1, 0))
        spare = Name("k", fresh_uid(), creator=(1,))  # known, not in the process
        known = (first, Pair(second, spare))
        renaming = {
            name: Name(name.base, fresh_uid(), name.creator)
            for name in (*system.private, spare)
            if name.uid is not None
        }
        renamed = System(
            rename_names(system.root, renaming),
            frozenset(renaming.get(n, n) for n in system.private),
            system.roles,
        )
        before = EnvState(system, Knowledge.from_terms(known))
        after = EnvState(
            renamed,
            Knowledge.from_terms(rename_names_term(t, renaming) for t in known),
        )
        assert before.knowledge.atoms != after.knowledge.atoms
        assert before.key() == after.key()

    def test_the_other_sessions_nonce_is_another_state(self):
        system = _sessions()
        first, second = _nonce(system, (0, 0)), _nonce(system, (0, 1, 0))
        one = EnvState(system, Knowledge.from_terms((first,)))
        other = EnvState(system, Knowledge.from_terms((second,)))
        assert one.key() != other.key()

    def test_permuted_sessions_with_moved_knowledge_share_a_key(self, full_reduction):
        system = _sessions()
        permuted = reduction.permute_sessions(system, (0,), (1, 0))
        by_uid = {name.uid: name for name in permuted.private}
        first, second = _nonce(system, (0, 0)), _nonce(system, (0, 1, 0))
        known = (first, Pair(first, second))
        moved = tuple(
            rename_names_term(t, {n: by_uid[n.uid] for n in (first, second)})
            for t in known
        )
        assert moved != known
        original = EnvState(system, Knowledge.from_terms(known))
        swapped = EnvState(permuted, Knowledge.from_terms(moved))
        assert original.key() == swapped.key()

    def test_symmetric_twins_knowing_one_nonce_stay_apart(self, full_reduction):
        # Either session may take its b step first; the two targets are
        # symmetric twins with the same process key.  An attacker that
        # heard slot 0's nonce knows the advanced session's nonce in one
        # and the waiting session's in the other, which no permutation
        # relates: the raw knowledge is equal, the keys must not be.
        start = _two_sessions()
        ahead = _step(start, "b", sender=(0, 0))
        behind = _step(start, "b", sender=(0, 1, 0))
        assert ahead.canonical_key() == behind.canonical_key()
        known = Knowledge.from_terms((_nonce(start, (0, 0)),))
        assert EnvState(ahead, known).key() != EnvState(behind, known).key()

    def test_predicate_secret_is_not_merged_across_branches(self):
        # The branch-merge configuration of
        # test_canonical_parity::test_keeps_secret_does_not_merge_branches_through_one_site:
        # the union of what the spy hears on both branches derives s, and
        # no single run does.
        from repro.analysis.secrecy import keeps_secret

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
        verdict = keeps_secret(
            config, lambda n: n.base == "s" and n.uid is not None, budget=Budget(500, 10)
        )
        assert verdict.holds and verdict.exhaustive
        assert verdict.witness is None
