"""Diagnostics over explored transition systems.

Inspection utilities for the graphs produced by
:func:`repro.semantics.lts.explore`:

* :func:`statistics` — size, branching, depth and deadlock metrics
  (used by the ablation benchmarks and handy when tuning budgets);
* :func:`to_networkx` — the graph as a ``networkx.DiGraph`` for any
  further analysis (condensation, path queries, ...);
* :func:`to_dot` — Graphviz export with role-narrated edge labels, for
  eyeballing small protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.runtime.exhaustion import Exhaustion
from repro.semantics.lts import Graph
from repro.semantics.system import System

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True, slots=True)
class GraphStatistics:
    """Shape metrics of an explored fragment."""

    states: int
    transitions: int
    deadlocks: int
    max_out_degree: int
    depth: int  # eccentricity of the initial state (longest shortest path)
    strongly_connected_components: int
    truncated: bool
    exhaustion: Optional[Exhaustion] = None

    def describe(self) -> str:
        if self.exhaustion is not None:
            qualifier = f" (truncated: {'+'.join(self.exhaustion.reasons)})"
        elif self.truncated:
            qualifier = " (truncated)"
        else:
            qualifier = ""
        return (
            f"{self.states} states, {self.transitions} transitions, "
            f"{self.deadlocks} deadlocks, max branching {self.max_out_degree}, "
            f"depth {self.depth}, {self.strongly_connected_components} SCCs"
            + qualifier
        )


def to_networkx(graph: Graph) -> nx.DiGraph:
    """The explored fragment as a ``networkx`` directed graph.

    Node keys are canonical state keys; each edge carries the
    :class:`~repro.semantics.actions.Transition` under ``"transition"``.
    """
    # Imported here, not at module level: networkx costs every process
    # that imports repro (servers, workers, clients) ~14 MB.
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(graph.states)
    for source, out in graph.edges.items():
        for transition, target in out:
            g.add_edge(source, target, transition=transition)
    return g


def statistics(graph: Graph) -> GraphStatistics:
    """Compute shape metrics of an explored fragment."""
    import networkx as nx

    g = to_networkx(graph)
    if graph.initial in g:
        lengths = nx.single_source_shortest_path_length(g, graph.initial)
        depth = max(lengths.values(), default=0)
    else:  # pragma: no cover - the initial state is always present
        depth = 0
    out_degrees = [deg for _, deg in g.out_degree()]
    return GraphStatistics(
        states=graph.state_count(),
        transitions=graph.transition_count(),
        deadlocks=len(graph.deadlocks()),
        max_out_degree=max(out_degrees, default=0),
        depth=depth,
        strongly_connected_components=nx.number_strongly_connected_components(g),
        truncated=graph.truncated,
        exhaustion=graph.exhaustion,
    )


def to_dot(graph: Graph, max_label_length: int = 60) -> str:
    """Render the explored fragment in Graphviz dot syntax.

    States are numbered in insertion (BFS) order; the initial state is
    doubled.  Edge labels narrate the communication using the roles of
    the source state.
    """
    index = {key: i for i, key in enumerate(graph.states)}
    lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    for key, i in index.items():
        shape = "doublecircle" if key == graph.initial else "circle"
        lines.append(f'  s{i} [shape={shape}, label="s{i}"];')
    for source, out in graph.edges.items():
        state: System = graph.states[source]
        for transition, target in out:
            label = transition.describe(state)
            if len(label) > max_label_length:
                label = label[: max_label_length - 3] + "..."
            label = label.replace('"', "'")
            lines.append(f'  s{index[source]} -> s{index[target]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
