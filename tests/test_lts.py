"""Tests for bounded LTS exploration."""

from __future__ import annotations

from repro.core.processes import Channel, Input, Nil, Output, Parallel, Replication, Restriction
from repro.core.terms import Name, Var
from repro.semantics.lts import Budget, explore, narrate, reachable, search
from repro.semantics.system import instantiate

a, b, k, m = Name("a"), Name("b"), Name("k"), Name("m")
x = Var("x")


def ping_pong():
    """Two messages in sequence: a then b."""
    A = Output(Channel(a), k, Output(Channel(b), m, Nil()))
    B = Input(Channel(a), x, Input(Channel(b), Var("y"), Nil()))
    return instantiate(Parallel(A, B), roles=[((0,), "A"), ((1,), "B")])


class TestExplore:
    def test_linear_protocol_state_count(self):
        graph = explore(ping_pong())
        assert graph.state_count() == 3
        assert graph.transition_count() == 2
        assert not graph.truncated

    def test_initial_key_registered(self):
        system = ping_pong()
        graph = explore(system)
        assert graph.initial == system.canonical_key()
        assert graph.initial in graph.states

    def test_deadlocks(self):
        graph = explore(ping_pong())
        assert len(graph.deadlocks()) == 1

    def test_state_budget_truncates(self):
        # unbounded replication: !a<k> | !a(x)
        system = instantiate(
            Parallel(Replication(Output(Channel(a), k, Nil())),
                     Replication(Input(Channel(a), x, Nil())))
        )
        graph = explore(system, Budget(max_states=5, max_depth=50))
        assert graph.truncated
        assert graph.state_count() <= 5

    def test_depth_budget_truncates(self):
        system = instantiate(
            Parallel(Replication(Output(Channel(a), k, Nil())),
                     Replication(Input(Channel(a), x, Nil())))
        )
        graph = explore(system, Budget(max_states=1000, max_depth=3))
        assert graph.truncated

    def test_deduplication_of_confluent_interleavings(self):
        # two independent rendezvous: 2 interleavings, diamond of 4 states
        A = Output(Channel(a), k, Nil())
        B = Input(Channel(a), x, Nil())
        C = Output(Channel(b), m, Nil())
        D = Input(Channel(b), Var("y"), Nil())
        system = instantiate(Parallel(Parallel(A, B), Parallel(C, D)))
        graph = explore(system)
        assert graph.state_count() == 4
        assert graph.transition_count() == 4


class TestReachable:
    def test_found(self):
        system = ping_pong()
        found, exhaustive = reachable(
            system, lambda s: all(isinstance(p, Nil) for _, p in s.leaves())
        )
        assert found and exhaustive

    def test_not_found_exhaustive(self):
        system = ping_pong()
        found, exhaustive = reachable(system, lambda s: False)
        assert not found and exhaustive

    def test_not_found_truncated(self):
        system = instantiate(
            Parallel(Replication(Output(Channel(a), k, Nil())),
                     Replication(Input(Channel(a), x, Nil())))
        )
        found, exhaustive = reachable(system, lambda s: False, Budget(5, 50))
        assert not found and not exhaustive


class TestFindTrace:
    """Traces read off the search's parent pointers (``search(...).trace``)."""

    def test_shortest_trace(self):
        system = ping_pong()
        trace = search(
            system, lambda s: all(isinstance(p, Nil) for _, p in s.leaves())
        ).trace
        assert trace is not None and len(trace) == 2

    def test_initial_state_matches_empty_trace(self):
        system = ping_pong()
        assert search(system, lambda s: True).trace == []

    def test_unreachable_returns_none(self):
        system = ping_pong()
        assert search(system, lambda s: False).trace is None


class TestNarrate:
    def test_role_labels_in_narration(self):
        system = ping_pong()
        trace = search(
            system, lambda s: all(isinstance(p, Nil) for _, p in s.leaves())
        ).trace
        lines = narrate(system, trace)
        assert lines[0] == "Step 1: A -> B on a : k"
        assert lines[1] == "Step 2: A -> B on b : m"
