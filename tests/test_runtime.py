"""Tests for the resilient verification runtime.

Covers the structured :class:`Exhaustion` record, deadlines and
cooperative cancellation, checkpoint/resume, adaptive budget escalation,
and the exploration invariants they rely on (budget monotonicity,
determinism, frontier-preserving resume).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.processes import Channel, Input, Nil, Output, Process, parallel, restrict
from repro.core.terms import Name, Var, fresh_uid
from repro.equivalence.testing import compose
from repro.runtime.checkpoint import Checkpoint, CheckpointError, load_checkpoint
from repro.runtime.deadline import (
    CancelToken,
    Deadline,
    NO_CONTROL,
    RunControl,
    current_control,
    governed,
)
from repro.runtime.escalation import (
    EscalationPolicy,
    escalate,
    estimate_graph_memory_mb,
    explore_escalating,
    result_exhaustion,
)
from repro.runtime.exhaustion import (
    BUDGET_REASONS,
    CANCELLED,
    DEADLINE,
    DEPTH,
    FAULT,
    STATES,
    Exhaustion,
)
from repro.semantics.lts import (
    Budget,
    DEFAULT_BUDGET,
    explore,
    resume_exploration,
    search,
)
from repro.semantics.system import System, instantiate

from tests.conftest import SMALL_BUDGET, impl_crypto_multi, spec_multi


class FakeClock:
    """A monotonic clock that advances a fixed step per reading."""

    def __init__(self, start: float = 0.0, tick: float = 1.0) -> None:
        self.now = start
        self.tick = tick

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value


def chain_system(length: int) -> System:
    """``(nu c)(c<a>. ... .0 | c(x). ... .0)`` — a linear chain of
    ``length`` rendezvous, hence ``length + 1`` reachable states."""
    c = Name("c")
    payload = Name("a")
    sender: Process = Nil()
    receiver: Process = Nil()
    for _ in range(length):
        sender = Output(Channel(c), payload, sender)
        receiver = Input(Channel(c), Var("x", fresh_uid()), receiver)
    return instantiate(restrict((c,), parallel(sender, receiver)))


def infinite_system() -> System:
    """The multisession spec with a replay attacker: unbounded unfolding."""
    from repro.analysis.intruder import replayer

    return compose(spec_multi().with_part("E", replayer(Name("c"))))


# ----------------------------------------------------------------------
# Exhaustion records
# ----------------------------------------------------------------------


class TestExhaustion:
    def test_needs_a_reason(self):
        with pytest.raises(ValueError):
            Exhaustion(())

    def test_single_and_reason(self):
        record = Exhaustion.single(DEPTH, states=7, depth=3)
        assert record.reason == DEPTH
        assert record.reasons == (DEPTH,)
        assert record.states == 7

    def test_retriable_only_for_budget_reasons(self):
        assert Exhaustion.single(STATES).retriable
        assert Exhaustion((STATES, DEPTH)).retriable
        assert not Exhaustion.single(DEADLINE).retriable
        assert not Exhaustion((STATES, CANCELLED)).retriable
        assert BUDGET_REASONS == {STATES, DEPTH}

    def test_merge_none_inputs(self):
        assert Exhaustion.merge() is None
        assert Exhaustion.merge(None, None) is None

    def test_merge_dedups_and_maximizes(self):
        merged = Exhaustion.merge(
            Exhaustion.single(STATES, states=10, depth=2, elapsed=1.0),
            None,
            Exhaustion((DEPTH, STATES), states=4, depth=9, elapsed=0.5),
        )
        assert merged is not None
        assert merged.reasons == (STATES, DEPTH)
        assert merged.states == 10 and merged.depth == 9
        assert merged.elapsed == pytest.approx(1.5)

    def test_describe_mentions_reasons_and_counters(self):
        text = Exhaustion((DEPTH,), states=5, depth=4).describe()
        assert "depth" in text and "5 states" in text


# ----------------------------------------------------------------------
# Deadlines, tokens, ambient control
# ----------------------------------------------------------------------


class TestControl:
    def test_deadline_expires_on_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(3.0, clock=clock)
        assert not deadline.expired()  # clock at 1, 2 after the reads
        assert not deadline.expired()
        assert deadline.expired()  # clock reached 3

    def test_remaining_clamps_to_zero_when_expired(self):
        """A past deadline must report 0 remaining, never a negative
        number — callers feed ``remaining()`` straight into select/poll
        timeouts and ``socket.settimeout``, where negatives raise."""
        clock = FakeClock()  # returns 0, 1, 2, 3, ...
        deadline = Deadline(expires_at=2.5, clock=clock)
        assert deadline.remaining() == 2.5  # clock at 0
        assert deadline.remaining() == 1.5  # clock at 1
        assert deadline.remaining() == 0.5  # clock at 2
        assert deadline.remaining() == 0.0  # clock at 3: clamped
        assert deadline.remaining() == 0.0  # clock at 4: still 0, not -1.5
        assert deadline.expired()

    def test_cancel_token(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("user asked")
        assert token.cancelled and token.reason == "user asked"

    def test_interruption_prefers_cancellation(self):
        token = CancelToken()
        token.cancel()
        expired = Deadline(expires_at=-1.0)
        assert RunControl(deadline=expired, token=token).interruption() == CANCELLED
        assert RunControl(deadline=expired).interruption() == DEADLINE
        assert NO_CONTROL.interruption() is None

    def test_governed_installs_ambient_control(self):
        token = CancelToken()
        assert current_control() is NO_CONTROL
        with governed(token=token) as ctl:
            assert current_control() is ctl
        assert current_control() is NO_CONTROL

    def test_deadline_stops_exploration_with_partial_graph(self):
        clock = FakeClock()
        control = RunControl(deadline=Deadline.after(4.0, clock=clock))
        graph = explore(infinite_system(), Budget(5000, 50), control)
        assert graph.exhaustion is not None
        assert DEADLINE in graph.exhaustion.reasons
        assert graph.pending  # an unexpanded frontier remains
        assert graph.state_count() >= 1

    def test_cancelled_token_stops_immediately(self):
        token = CancelToken()
        token.cancel()
        graph = explore(chain_system(5), control=RunControl(token=token))
        assert graph.exhaustion is not None
        assert graph.exhaustion.reason == CANCELLED
        assert graph.state_count() == 1  # only the initial state

    def test_ambient_control_reaches_explore(self):
        token = CancelToken()
        token.cancel()
        with governed(token=token):
            graph = explore(chain_system(5))
        assert graph.exhaustion is not None and graph.exhaustion.reason == CANCELLED

    def test_keyboard_interrupt_yields_partial_graph(self, monkeypatch):
        from repro.semantics import reduction

        real = reduction.reduced_successors
        calls = {"n": 0}

        def interrupting(system):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise KeyboardInterrupt
            return real(system)

        monkeypatch.setattr(reduction, "reduced_successors", interrupting)
        graph = explore(chain_system(10))
        assert graph.exhaustion is not None
        assert CANCELLED in graph.exhaustion.reasons
        assert graph.exhaustion.detail == "KeyboardInterrupt"
        assert 0 < graph.state_count() < 11


# ----------------------------------------------------------------------
# Exploration invariants (satellites)
# ----------------------------------------------------------------------


class TestExplorationInvariants:
    def test_budget_monotonicity_states_superset(self):
        system = infinite_system()
        small = explore(system, Budget(max_states=40, max_depth=8))
        large = explore(system, Budget(max_states=160, max_depth=12))
        assert set(small.states) <= set(large.states)

    def test_explore_deterministic(self):
        system = infinite_system()
        budget = Budget(max_states=60, max_depth=8)
        first = explore(system, budget)
        second = explore(system, budget)
        assert list(first.states) == list(second.states)
        assert {k: [t for _, t in v] for k, v in first.edges.items()} == {
            k: [t for _, t in v] for k, v in second.edges.items()
        }
        assert first.pending == second.pending

    def test_depth_refused_states_are_not_deadlocks(self):
        graph = explore(chain_system(6), Budget(max_states=100, max_depth=3))
        assert graph.exhaustion is not None and DEPTH in graph.exhaustion.reasons
        assert graph.deadlocks() == []  # the horizon state is unexplored, not stuck

    def test_terminal_state_is_a_deadlock_when_exact(self):
        graph = explore(chain_system(4))
        assert graph.exhaustion is None
        assert len(graph.deadlocks()) == 1

    def test_states_refused_expansion_not_a_deadlock(self):
        graph = explore(chain_system(4), Budget(max_states=1, max_depth=10))
        assert graph.exhaustion is not None and STATES in graph.exhaustion.reasons
        assert graph.initial in graph.incomplete
        assert graph.deadlocks() == []

    def test_resume_same_budget_matches_uninterrupted(self):
        system = infinite_system()
        budget = Budget(max_states=80, max_depth=10)
        uninterrupted = explore(system, budget)

        clock = FakeClock()
        control = RunControl(deadline=Deadline.after(6.0, clock=clock))
        partial = explore(system, budget, control)
        assert partial.exhaustion is not None
        assert DEADLINE in partial.exhaustion.reasons
        assert partial.state_count() < uninterrupted.state_count()

        resumed = resume_exploration(partial, budget)
        assert set(resumed.states) == set(uninterrupted.states)
        assert resumed.transition_count() == uninterrupted.transition_count()

    def test_resume_does_not_mutate_the_partial_graph(self):
        partial = explore(chain_system(8), Budget(max_states=100, max_depth=3))
        states_before = dict(partial.states)
        pending_before = list(partial.pending)
        resume_exploration(partial, Budget(max_states=100, max_depth=20))
        assert partial.states == states_before
        assert partial.pending == pending_before

    def test_resume_exact_graph_is_a_noop(self):
        exact = explore(chain_system(3))
        resumed = resume_exploration(exact, DEFAULT_BUDGET)
        assert resumed.exhaustion is None
        assert set(resumed.states) == set(exact.states)

    def test_search_reports_which_limit(self):
        result = search(
            infinite_system(), lambda s: False, Budget(max_states=20, max_depth=4)
        )
        assert not result.found and not result.exhaustive
        assert set(result.exhaustion.reasons) <= {STATES, DEPTH}
        assert result.states > 0


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        graph = explore(chain_system(8), Budget(max_states=100, max_depth=3))
        assert graph.truncated
        Checkpoint(graph, Budget(100, 3)).save(path)
        loaded = load_checkpoint(path)
        assert not loaded.exact
        assert set(loaded.graph.states) == set(graph.states)
        assert loaded.graph.pending == graph.pending
        assert loaded.budget == Budget(100, 3)

    def test_resumed_from_disk_matches_uninterrupted_multisession(self, tmp_path):
        """Acceptance: interrupt the paper's multisession example, persist
        the partial exploration, resume in a fresh graph from disk, and
        reach exactly the state set of an uninterrupted run."""
        path = str(tmp_path / "multi.ckpt")
        system = compose(spec_multi())
        budget = SMALL_BUDGET
        uninterrupted = explore(system, budget)

        clock = FakeClock()
        control = RunControl(deadline=Deadline.after(5.0, clock=clock))
        partial = explore(system, budget, control)
        assert partial.exhaustion is not None
        assert DEADLINE in partial.exhaustion.reasons

        Checkpoint(partial, budget).save(path)
        resumed = load_checkpoint(path).resume()
        assert set(resumed.states) == set(uninterrupted.states)
        assert resumed.transition_count() == uninterrupted.transition_count()
        assert resumed.truncated == uninterrupted.truncated

    def test_exact_checkpoint_resumes_to_itself(self, tmp_path):
        path = str(tmp_path / "exact.ckpt")
        graph = explore(chain_system(3))
        Checkpoint(graph, DEFAULT_BUDGET).save(path)
        loaded = load_checkpoint(path)
        assert loaded.exact
        assert set(loaded.resume().states) == set(graph.states)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_wrong_payload(self, tmp_path):
        path = tmp_path / "wrong.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(CheckpointError, match="does not contain"):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "old.ckpt")
        graph = explore(chain_system(2))
        Checkpoint(graph, DEFAULT_BUDGET, version=99).save(path)
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path)

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "atomic.ckpt"
        graph = explore(chain_system(2))
        Checkpoint(graph, DEFAULT_BUDGET).save(str(path))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "atomic.ckpt"]
        assert leftovers == []


# ----------------------------------------------------------------------
# Adaptive escalation
# ----------------------------------------------------------------------


class TestEscalation:
    def test_default_budget_truncates_the_deep_chain(self):
        graph = explore(chain_system(80), DEFAULT_BUDGET)
        assert graph.exhaustion is not None
        assert DEPTH in graph.exhaustion.reasons

    def test_escalation_turns_truncated_into_exact(self):
        """Acceptance: a scenario truncated under DEFAULT_BUDGET becomes
        exact through adaptive escalation."""
        graph, report = explore_escalating(chain_system(80), DEFAULT_BUDGET)
        assert report.exact and graph.exhaustion is None
        assert len(report.attempts) >= 2  # it really had to escalate
        assert graph.state_count() == 81

    def test_escalated_exact_matches_single_big_budget(self):
        system = chain_system(80)
        escalated, report = explore_escalating(system, DEFAULT_BUDGET)
        assert report.exact
        big = explore(system, Budget(max_states=200_000, max_depth=1024))
        assert big.exhaustion is None
        assert set(escalated.states) == set(big.states)
        assert escalated.transition_count() == big.transition_count()

    def test_escalation_reuses_prior_work(self):
        system = chain_system(80)
        _, report = explore_escalating(system, DEFAULT_BUDGET)
        # Budgets must be strictly growing on both axes.
        budgets = [a.budget for a in report.attempts]
        for earlier, later in zip(budgets, budgets[1:]):
            assert later.max_states > earlier.max_states
            assert later.max_depth > earlier.max_depth

    def test_policy_ceiling_stops_growth(self):
        policy = EscalationPolicy(
            state_factor=2.0,
            depth_factor=2.0,
            max_attempts=50,
            state_ceiling=30,
            depth_ceiling=8,
        )
        graph, report = explore_escalating(
            infinite_system(), Budget(max_states=10, max_depth=4), policy
        )
        assert not report.exact
        assert report.stopped == "ceiling"
        assert graph.truncated

    def test_attempt_limit_stops_growth(self):
        policy = EscalationPolicy(state_factor=2.0, depth_factor=1.0, max_attempts=2)
        _, report = explore_escalating(
            infinite_system(), Budget(max_states=5, max_depth=6), policy
        )
        assert not report.exact
        assert report.stopped == "attempts"
        assert len(report.attempts) == 2

    def test_memory_ceiling_stops_growth(self):
        policy = EscalationPolicy(memory_ceiling_mb=1e-6)
        _, report = explore_escalating(
            infinite_system(), Budget(max_states=5, max_depth=6), policy
        )
        assert not report.exact
        assert report.stopped == "memory"

    def test_deadline_is_not_retried(self):
        clock = FakeClock()
        control = RunControl(deadline=Deadline.after(3.0, clock=clock))
        _, report = explore_escalating(
            infinite_system(), Budget(max_states=500, max_depth=10), control=control
        )
        assert not report.exact
        assert report.stopped == "interrupted"
        assert len(report.attempts) == 1

    def test_escalation_checkpoints_between_attempts(self, tmp_path):
        path = str(tmp_path / "escalating.ckpt")
        policy = EscalationPolicy(state_factor=2.0, depth_factor=1.0, max_attempts=2)
        graph, report = explore_escalating(
            infinite_system(),
            Budget(max_states=5, max_depth=6),
            policy,
            checkpoint_path=path,
        )
        assert not report.exact
        loaded = load_checkpoint(path)
        assert set(loaded.graph.states) == set(graph.states)

    def test_generic_escalate_on_a_verdict(self):
        from repro.analysis.attacks import standard_testers
        from repro.equivalence.testing import may_preorder
        from repro.protocols.paper import OBSERVE

        config = spec_multi()
        tests = standard_testers(config, OBSERVE, roles=("!A",))
        verdict, report = escalate(
            lambda b: may_preorder(config, config, tests, b),
            Budget(max_states=10, max_depth=4),
            EscalationPolicy(max_attempts=4),
        )
        assert len(report.attempts) >= 1
        # Whatever the outcome, the verdict agrees with the report.
        assert verdict.exhaustive == report.exact

    def test_generic_escalate_with_tuple_result(self):
        from repro.equivalence.barbs import converges
        from repro.protocols.paper import OBSERVE
        from repro.semantics.actions import output_barb

        system = compose(impl_crypto_multi())
        barb = output_barb(OBSERVE)
        result, report = escalate(
            lambda b: converges(system, barb, b), Budget(max_states=5, max_depth=3)
        )
        assert isinstance(result, tuple)
        assert report.exact == result[-1] or result[0]

    def test_result_exhaustion_probes_conventions(self):
        assert result_exhaustion(explore(chain_system(2))) is None
        truncated = explore(chain_system(9), Budget(max_states=100, max_depth=2))
        assert result_exhaustion(truncated) is truncated.exhaustion
        assert result_exhaustion((True, False)) is not None
        assert result_exhaustion((False, True)) is None

    def test_memory_estimate_positive(self):
        assert estimate_graph_memory_mb(explore(chain_system(3))) > 0.0

    def test_report_describe(self):
        _, report = explore_escalating(chain_system(80), DEFAULT_BUDGET)
        text = report.describe()
        assert "exact" in text and "->" in text


# ----------------------------------------------------------------------
# Periodic checkpoint autosave (RunControl.checkpoint_every)
# ----------------------------------------------------------------------


class TestAutosave:
    def test_autosave_fires_every_interval(self):
        snapshots = []
        control = RunControl(checkpoint_every=2, on_checkpoint=snapshots.append)
        graph = explore(chain_system(8), DEFAULT_BUDGET, control)
        assert graph.state_count() == 9
        # 9 states, one autosave per 2 newly-recorded states.
        assert len(snapshots) == 4
        counts = [snap.state_count() for snap in snapshots]
        assert counts == sorted(counts)

    def test_no_interval_means_no_callbacks(self):
        snapshots = []
        control = RunControl(on_checkpoint=snapshots.append)
        explore(chain_system(5), DEFAULT_BUDGET, control)
        assert snapshots == []

    def test_snapshots_are_independent_copies(self):
        snapshots = []
        control = RunControl(checkpoint_every=1, on_checkpoint=snapshots.append)
        graph = explore(chain_system(4), DEFAULT_BUDGET, control)
        first_states = set(snapshots[0].states)
        assert first_states < set(graph.states)  # frozen at autosave time

    def test_autosaved_snapshot_resumes_to_parity(self):
        """Resuming any mid-run snapshot reaches exactly the states of
        the uninterrupted run — the invariant worker crash-recovery
        relies on."""
        system = chain_system(10)
        uninterrupted = explore(system, DEFAULT_BUDGET)
        snapshots = []
        control = RunControl(checkpoint_every=3, on_checkpoint=snapshots.append)
        explore(system, DEFAULT_BUDGET, control)
        assert snapshots
        for snap in snapshots:
            resumed = resume_exploration(snap, DEFAULT_BUDGET)
            assert set(resumed.states) == set(uninterrupted.states)
            assert resumed.transition_count() == uninterrupted.transition_count()

    def test_autosave_roundtrips_through_checkpoint_files(self, tmp_path):
        path = str(tmp_path / "auto.ckpt")
        budget = Budget(max_states=6, max_depth=10)
        saves = []
        control = RunControl(
            checkpoint_every=2,
            on_checkpoint=lambda g: (Checkpoint(g, budget).save(path), saves.append(1)),
        )
        partial = explore(chain_system(9), budget, control)
        assert partial.truncated and saves
        loaded = load_checkpoint(path)
        resumed = resume_exploration(loaded.graph, Budget(max_states=100, max_depth=20))
        assert resumed.exhaustion is None
        assert resumed.state_count() == 10
