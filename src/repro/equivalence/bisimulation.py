"""Barbed weak bisimulation.

Sangiorgi's barbed bisimulation [26] is the symmetric strengthening of
the simulation used in the paper's proofs: both systems must weakly
match each other's steps and (rich) barbs.  Where the simulation of
:mod:`repro.equivalence.simulation` answers "is every behaviour of the
implementation also a spec behaviour?", bisimilarity answers "do the
two systems offer exactly the same behaviours?" — a convenient way to
show two *formulations* of the same protocol equivalent (e.g. a
hand-written process vs. the narration compiler's output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.equivalence.simulation import _sweep_interrupted, tau_closure, weak_barb_table
from repro.equivalence.barbs import rich_barbs
from repro.runtime.deadline import RunControl, resolve_control
from repro.runtime.exhaustion import Exhaustion
from repro.semantics.lts import Budget, DEFAULT_BUDGET, Graph, explore
from repro.semantics.system import System


def largest_bisimulation(
    left: Graph,
    right: Graph,
    control: Optional[RunControl] = None,
    _noted: Optional[list[str]] = None,
) -> set[tuple[str, str]]:
    """The largest barbed weak bisimulation between two explored graphs."""
    ctl = resolve_control(control)
    noted = _noted if _noted is not None else []
    left_barbs = {key: rich_barbs(state) for key, state in left.states.items()}
    right_barbs = {key: rich_barbs(state) for key, state in right.states.items()}
    left_weak = weak_barb_table(left, ctl, noted)
    right_weak = weak_barb_table(right, ctl, noted)
    left_closure = tau_closure(left, ctl, noted)
    right_closure = tau_closure(right, ctl, noted)

    relation: set[tuple[str, str]] = {
        (p, q)
        for p in left.states
        for q in right.states
        if left_barbs[p] <= right_weak[q] and right_barbs[q] <= left_weak[p]
    }

    changed = True
    while changed and not _sweep_interrupted(ctl, noted):
        changed = False
        for pair in tuple(relation):
            if pair not in relation:
                continue
            p, q = pair
            ok = all(
                any((p_next, q2) in relation for q2 in right_closure[q])
                for _, p_next in left.successors_of(p)
            ) and all(
                any((p2, q_next) in relation for p2 in left_closure[p])
                for _, q_next in right.successors_of(q)
            )
            if not ok:
                relation.discard(pair)
                changed = True
    return relation


@dataclass(frozen=True, slots=True)
class BisimulationResult:
    """Outcome of a barbed-weak-bisimilarity check (budget-qualified)."""

    holds: bool
    left_states: int
    right_states: int
    relation_size: int
    exhaustion: Optional[Exhaustion] = None

    @property
    def truncated(self) -> bool:
        return self.exhaustion is not None

    def describe(self) -> str:
        verdict = "bisimilar" if self.holds else "NOT bisimilar"
        qualifier = (
            f" (budget-truncated exploration: {'+'.join(self.exhaustion.reasons)})"
            if self.exhaustion is not None
            else ""
        )
        return (
            f"left ({self.left_states} states) and right "
            f"({self.right_states} states) are {verdict}; "
            f"|R| = {self.relation_size}{qualifier}"
        )


def weakly_bisimilar(
    left: System,
    right: System,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> BisimulationResult:
    """Are the two systems barbed-weakly bisimilar (up to the budget)?"""
    ctl = resolve_control(control)
    # Symmetry merging is a quotient by an automorphism of the LTS, so
    # the explored graphs keep the branching the bisimulation game reads.
    left_graph = explore(left, budget, ctl)
    right_graph = explore(right, budget, ctl)
    noted: list[str] = []
    relation = largest_bisimulation(left_graph, right_graph, ctl, noted)
    return BisimulationResult(
        holds=(left_graph.initial, right_graph.initial) in relation,
        left_states=left_graph.state_count(),
        right_states=right_graph.state_count(),
        relation_size=len(relation),
        exhaustion=Exhaustion.merge(
            left_graph.exhaustion,
            right_graph.exhaustion,
            *(Exhaustion.single(reason) for reason in noted),
        ),
    )
