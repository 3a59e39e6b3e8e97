"""Tests for the LTS diagnostics (stats, networkx, dot export)."""

from __future__ import annotations

import os
import subprocess
import sys

import networkx as nx

from repro.analysis.intruder import replayer
from repro.core.processes import Channel, Input, Nil, Output, Parallel
from repro.core.terms import Name, Var, fresh_uid
from repro.equivalence.testing import compose
from repro.semantics.diagnostics import statistics, to_dot, to_networkx
from repro.semantics.lts import Budget, explore
from repro.semantics.system import instantiate

from tests.conftest import spec_multi

a, b, k, m = Name("a"), Name("b"), Name("k"), Name("m")


def diamond_system():
    """Two independent rendezvous: a 4-state diamond."""
    return instantiate(
        Parallel(
            Parallel(Output(Channel(a), k, Nil()), Input(Channel(a), Var("x", fresh_uid()), Nil())),
            Parallel(Output(Channel(b), m, Nil()), Input(Channel(b), Var("y", fresh_uid()), Nil())),
        ),
        roles=[((0, 0), "A"), ((0, 1), "B"), ((1, 0), "C"), ((1, 1), "D")],
    )


class TestStatistics:
    def test_diamond_metrics(self):
        graph = explore(diamond_system())
        stats = statistics(graph)
        assert stats.states == 4
        assert stats.transitions == 4
        assert stats.deadlocks == 1
        assert stats.max_out_degree == 2
        assert stats.depth == 2
        assert not stats.truncated

    def test_acyclic_graph_has_trivial_sccs(self):
        graph = explore(diamond_system())
        stats = statistics(graph)
        assert stats.strongly_connected_components == stats.states

    def test_describe(self):
        graph = explore(diamond_system())
        text = statistics(graph).describe()
        assert "4 states" in text and "deadlocks" in text

    def test_truncation_reported(self):
        cfg = spec_multi().with_part("E", replayer(Name("c")))
        graph = explore(compose(cfg), Budget(max_states=10, max_depth=50))
        text = statistics(graph).describe()
        assert "(truncated" in text and "states" in text


class TestNetworkx:
    def test_shape_preserved(self):
        graph = explore(diamond_system())
        g = to_networkx(graph)
        assert g.number_of_nodes() == graph.state_count()
        assert g.number_of_edges() == graph.transition_count()

    def test_edges_carry_transitions(self):
        graph = explore(diamond_system())
        g = to_networkx(graph)
        for _, _, data in g.edges(data=True):
            assert "transition" in data

    def test_initial_reaches_everything(self):
        graph = explore(diamond_system())
        g = to_networkx(graph)
        reachable = nx.descendants(g, graph.initial) | {graph.initial}
        assert reachable == set(g.nodes)


class TestDot:
    def test_dot_structure(self):
        import re

        graph = explore(diamond_system())
        dot = to_dot(graph)
        assert dot.startswith("digraph lts {")
        assert dot.rstrip().endswith("}")
        edges = re.findall(r"^\s*s\d+ -> s\d+", dot, flags=re.MULTILINE)
        assert len(edges) == graph.transition_count()
        assert "doublecircle" in dot  # the initial state

    def test_edge_labels_use_roles(self):
        graph = explore(diamond_system())
        dot = to_dot(graph)
        assert "A -> B on a" in dot

    def test_long_labels_truncated(self):
        graph = explore(diamond_system())
        dot = to_dot(graph, max_label_length=10)
        for line in dot.splitlines():
            if "label=" in line and "->" in line:
                label = line.split('label="')[1].rstrip('"];')
                assert len(label) <= 10


class TestCornerCases:
    def test_trivial_graph(self):
        graph = explore(instantiate(Nil()))
        stats = statistics(graph)
        assert stats.states == 1
        assert stats.transitions == 0
        assert stats.deadlocks == 1
        assert stats.depth == 0
        assert stats.strongly_connected_components == 1
        assert not stats.truncated
        dot = to_dot(graph)
        assert "doublecircle" in dot and "->" not in dot

    def test_replication_unfolding_truncated_stats(self):
        from repro.syntax.parser import parse_process

        system = instantiate(
            parse_process("(!((nu m)(a<m>.0)) | !(a(x).0))")
        )
        graph = explore(system, Budget(max_states=15, max_depth=6))
        stats = statistics(graph)
        assert stats.truncated
        assert stats.exhaustion is not None
        assert "(truncated:" in stats.describe()
        assert stats.depth <= 6
        # Every recorded edge ends in a recorded state, even mid-unfold.
        g = to_networkx(graph)
        assert set(g.nodes) == set(graph.states)

    def test_incomplete_states_are_not_deadlocks(self):
        graph = explore(diamond_system(), Budget(max_states=2, max_depth=50))
        assert graph.incomplete
        stats = statistics(graph)
        # A state whose targets were refused by the budget must not be
        # reported as stuck: the exploration never finished expanding it.
        assert stats.deadlocks == 0
        assert stats.truncated

    def test_dot_numbering_follows_insertion_order(self):
        graph = explore(diamond_system())
        dot = to_dot(graph)
        # The initial state is inserted first, so it is s0.
        assert 's0 [shape=doublecircle' in dot


class TestImportCost:
    def test_service_processes_do_not_import_networkx(self):
        """networkx is imported by to_networkx/statistics on first use,
        not by every server, worker and client that imports repro."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, repro, repro.service.server, repro.runtime.worker; "
            "print('networkx' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
