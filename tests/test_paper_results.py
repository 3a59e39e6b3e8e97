"""Integration tests reproducing every result of the paper.

Each test class corresponds to one row of the experiment index in
DESIGN.md: Figure 1, Example 1, Propositions 1-4 and the two
counterexample attacks of Section 5.  Budgets are kept small; the
benchmark harness re-runs the same experiments at larger scale.
"""

from __future__ import annotations

import pytest

from repro.core.addresses import RelativeAddress
from repro.core.processes import (
    Case,
    Channel,
    Input,
    LocVar,
    Nil,
    Output,
    Parallel,
    Replication,
    Restriction,
)
from repro.core.terms import Name, SharedEnc, Var, origin
from repro.analysis.attacks import securely_implements, standard_testers
from repro.analysis.intruder import impersonator, replayer, standard_attackers
from repro.equivalence.simulation import weakly_simulated
from repro.equivalence.testing import Test, compose, passes
from repro.semantics.actions import output_barb
from repro.semantics.lts import Budget, explore
from repro.semantics.system import instantiate
from repro.semantics.transitions import successors

from tests.conftest import (
    MEDIUM_BUDGET,
    SMALL_BUDGET,
    impl_challenge_response,
    impl_crypto,
    impl_crypto_multi,
    impl_plaintext,
    spec_multi,
    spec_single,
)

C = Name("c")


class TestExample1:
    """Section 2: the two-step computation of S = !P | Q."""

    def build(self):
        a, b, k, M = Name("a"), Name("b"), Name("k"), Name("M")
        x, y, r = Var("x"), Var("y"), Var("r")
        R = Input(Channel(b), r, Nil())
        q_cont = Restriction(
            Name("h"),
            Parallel(Output(Channel(b), SharedEnc((y,), Name("h")), Nil()), R),
        )
        Q = Input(Channel(a), x, Case(x, (y,), k, q_cont))
        P = Output(Channel(a), SharedEnc((M,), k), Nil())
        return instantiate(Parallel(Replication(P), Q))

    def test_first_step_delivers_ciphertext(self):
        system = self.build()
        steps = successors(system)
        assert len(steps) == 1
        value = steps[0].action.value
        from repro.core.terms import payload

        assert isinstance(payload(value), SharedEnc)

    def test_second_step_reencrypts_under_h(self):
        system = self.build()
        step1 = successors(system)[0]
        steps2 = successors(step1.target)
        assert len(steps2) == 1
        assert steps2[0].action.channel.base == "b"
        from repro.core.terms import payload

        inner = payload(steps2[0].action.value)
        assert isinstance(inner, SharedEnc)
        assert inner.key.base == "h"

    def test_terminates_after_two_steps(self):
        system = self.build()
        graph = explore(system, Budget(50, 10))
        # !P can keep emitting, but Q is consumed: after the two paper
        # steps the only continuations are further !P unfoldings with no
        # listener, which offer no transition.
        assert graph.state_count() == 3


class TestProposition1:
    """startup binds the location variables to the partners, whatever E does."""

    @pytest.mark.parametrize("attacker_name,attacker", standard_attackers([C]))
    def test_b_only_receives_from_a(self, attacker_name, attacker):
        cfg = spec_single().with_part("E", attacker)
        system = compose(cfg)
        a_loc = system.location_of("A")

        # in every reachable state, every message accepted by B on c came
        # from A (check every transition whose receiver is inside B).
        graph = explore(system, MEDIUM_BUDGET)
        b_loc = system.location_of("B")
        for key in graph.states:
            for transition, _ in graph.successors_of(key):
                action = transition.action
                if action.channel.base == "c" and action.receiver[: len(b_loc)] == b_loc:
                    assert action.sender[: len(a_loc)] == a_loc, attacker_name

    def test_locvar_instantiated_to_paper_address(self):
        # P | E with the paper's shape: lamB must become the location of
        # A's side, i.e. the address ||1*||0 from B's viewpoint.
        cfg = spec_single().with_part("E", impersonator(C))
        system = compose(cfg)
        # run the startup step
        startup_step = next(
            s for s in successors(system) if s.action.channel.base == "s"
        )
        target = startup_step.target
        b_loc = system.location_of("B")
        a_loc = system.location_of("A")
        for loc, leaf in target.leaves():
            if loc == b_loc and isinstance(leaf, Input):
                assert leaf.channel.index == a_loc
                observed = RelativeAddress.between(observer=b_loc, target=a_loc)
                assert observed == RelativeAddress.parse("||1*||0")
                break
        else:  # pragma: no cover
            pytest.fail("B's localized input not found after startup")


class TestAttack1:
    """Section 5.1: P1 (plaintext) does not implement P — E(A) -> B : ME."""

    def test_attack_found(self):
        verdict = securely_implements(
            impl_plaintext(), spec_single(), standard_attackers([C]), budget=MEDIUM_BUDGET
        )
        assert not verdict.secure
        assert verdict.attack is not None
        assert verdict.attack.attacker_name == "impersonate(c)"
        assert verdict.attack.test.name == "origin-is-E"

    def test_attack_narration_shows_impersonation(self):
        verdict = securely_implements(
            impl_plaintext(), spec_single(), [("impersonate(c)", impersonator(C))],
            budget=MEDIUM_BUDGET,
        )
        narration = "\n".join(verdict.attack.narration)
        assert "E -> B on c : ME" in narration

    def test_abstract_protocol_immune_to_the_same_test(self):
        cfg = spec_single().with_part("E", impersonator(C))
        tests = standard_testers(cfg, Name("observe"), roles=("A", "B", "E"))
        origin_e = next(t for t in tests if t.name == "origin-is-E")
        passed, exhaustive = passes(cfg, origin_e, MEDIUM_BUDGET)
        assert not passed and exhaustive


class TestProposition2:
    """P2 (single-session crypto) securely implements P."""

    def test_no_attack_in_standard_family(self):
        verdict = securely_implements(
            impl_crypto(), spec_single(), standard_attackers([C]), budget=MEDIUM_BUDGET
        )
        assert verdict.secure

    @pytest.mark.parametrize("attacker_name,attacker", standard_attackers([C]))
    def test_barbed_weak_simulation_per_attacker(self, attacker_name, attacker):
        left = compose(impl_crypto().with_part("E", attacker))
        right = compose(spec_single().with_part("E", attacker))
        result = weakly_simulated(left, right, MEDIUM_BUDGET)
        assert result.holds, attacker_name
        assert not result.truncated, attacker_name

    def test_message_delivered_is_authentic(self):
        cfg = impl_crypto().with_part("E", replayer(C))
        system = compose(cfg)
        a_loc = system.location_of("A")
        graph = explore(system, MEDIUM_BUDGET)
        for key in graph.states:
            for transition, _ in graph.successors_of(key):
                action = transition.action
                if action.channel.base == "observe":
                    assert origin(action.value)[: len(a_loc)] == a_loc


class TestProposition3:
    """m_startup hooks instances pairwise with fresh location variables."""

    def test_two_sessions_hook_different_instances(self):
        cfg = spec_multi()
        system = compose(cfg)
        # drive two startup handshakes
        state = system
        hooked: list[tuple] = []
        for _ in range(2):
            step = next(s for s in successors(state) if s.action.channel.base == "s")
            hooked.append((step.action.sender, step.action.receiver))
            state = step.target
        (s1, r1), (s2, r2) = hooked
        assert s1 != s2 and r1 != r2

    def test_messages_in_different_sessions_have_different_origins(self):
        cfg = spec_multi()
        system = compose(cfg)
        graph = explore(system, Budget(400, 14))
        observed_pairs: set[tuple] = set()
        for key in graph.states:
            for transition, _ in graph.successors_of(key):
                action = transition.action
                if action.channel.base == "c":
                    observed_pairs.add((origin(action.value), action.receiver))
        origins = {o for o, _ in observed_pairs}
        receivers = {r for _, r in observed_pairs}
        # multiple sessions materialize within the budget...
        assert len(origins) >= 2
        # ...and no receiver instance ever accepts from two origins
        by_receiver: dict[tuple, set] = {}
        for o, r in observed_pairs:
            by_receiver.setdefault(r, set()).add(o)
        assert all(len(os) == 1 for os in by_receiver.values())


class TestAttack2:
    """Section 5.2: Pm2 suffers the replay attack."""

    def test_replay_found(self):
        verdict = securely_implements(
            impl_crypto_multi(),
            spec_multi(),
            [("replay(c)", replayer(C))],
            roles=("!A", "!B", "E"),
            budget=MEDIUM_BUDGET,
        )
        assert not verdict.secure
        assert verdict.attack.test.name == "same-origin-twice"

    def test_replay_narration_shows_double_delivery(self):
        verdict = securely_implements(
            impl_crypto_multi(),
            spec_multi(),
            [("replay(c)", replayer(C))],
            roles=("!A", "!B", "E"),
            budget=MEDIUM_BUDGET,
        )
        narration = "\n".join(verdict.attack.narration)
        # E delivers the same ciphertext twice
        assert narration.count("E -> !B") == 2

    def test_abstract_multisession_immune(self):
        cfg = spec_multi().with_part("E", replayer(C))
        tests = standard_testers(cfg, Name("observe"), roles=("!A", "!B", "E"))
        same_origin = next(t for t in tests if t.name == "same-origin-twice")
        passed, _ = passes(cfg, same_origin, Budget(1200, 14))
        assert not passed


class TestProposition4:
    """Pm3 (challenge-response) securely implements Pm."""

    def test_no_attack_with_papers_attackers(self):
        verdict = securely_implements(
            impl_challenge_response(),
            spec_multi(),
            [("replay(c)", replayer(C)), ("impersonate(c)", impersonator(C))],
            roles=("!A", "!B", "E"),
            budget=Budget(max_states=900, max_depth=12),
        )
        assert verdict.secure

    def test_replay_specifically_defeated(self):
        cfg = impl_challenge_response().with_part("E", replayer(C))
        tests = standard_testers(cfg, Name("observe"), roles=("!A", "!B", "E"))
        same_origin = next(t for t in tests if t.name == "same-origin-twice")
        passed, _ = passes(cfg, same_origin, Budget(1200, 14))
        assert not passed
