"""Barbed weak simulation — the proof technique of Propositions 2 and 4.

The paper proves ``P2`` securely implements ``P`` by exhibiting a
*barbed weak simulation*: a relation ``S`` such that for ``(P, Q) in S``

* ``P # beta`` implies ``Q \\\\ beta`` (every immediate barb of the left
  state is weakly reachable on the right), and
* if ``P -tau-> P'`` then ``Q (=tau=>)* Q'`` with ``(P', Q') in S``.

On the (bounded) finite fragments explored by
:mod:`repro.semantics.lts`, the largest such relation is computable by
the standard refinement fixpoint, which is what :func:`largest_simulation`
does.  :func:`weakly_simulated` packages the check between two systems,
propagating a ``truncated`` qualifier whenever a budget was hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.equivalence.barbs import RichBarb, rich_barbs
from repro.runtime.deadline import RunControl, resolve_control
from repro.runtime.exhaustion import Exhaustion
from repro.semantics.lts import Budget, DEFAULT_BUDGET, Graph, explore
from repro.semantics.system import System


def _sweep_interrupted(control: RunControl, noted: list[str]) -> bool:
    """Poll the control between fixpoint sweeps, recording the reason.

    Fixpoint refinements stopped early leave an over-approximate
    relation, so callers must surface the noted reason as a qualifier on
    any verdict built from the partial result.
    """
    stop = control.interruption()
    if stop is not None and stop not in noted:
        noted.append(stop)
    return stop is not None


def weak_barb_table(
    graph: Graph,
    control: Optional[RunControl] = None,
    _noted: Optional[list[str]] = None,
) -> dict[str, frozenset[RichBarb]]:
    """For each state, the rich barbs reachable by any tau-run (within
    the graph).

    Computed as a backward fixpoint: a state weakly has every barb it
    exhibits plus every barb some successor weakly has.  Barbs are
    *rich*: they carry the origin of the offered datum, matching the
    address-observing power of the paper's testers.
    """
    ctl = resolve_control(control)
    noted = _noted if _noted is not None else []
    table: dict[str, set[RichBarb]] = {
        key: set(rich_barbs(state)) for key, state in graph.states.items()
    }
    changed = True
    while changed and not _sweep_interrupted(ctl, noted):
        changed = False
        for key in graph.states:
            mine = table[key]
            before = len(mine)
            for _, target in graph.successors_of(key):
                mine |= table[target]
            if len(mine) != before:
                changed = True
    return {key: frozenset(v) for key, v in table.items()}


def tau_closure(
    graph: Graph,
    control: Optional[RunControl] = None,
    _noted: Optional[list[str]] = None,
) -> dict[str, frozenset[str]]:
    """Reflexive-transitive closure of the explored transitions."""
    ctl = resolve_control(control)
    noted = _noted if _noted is not None else []
    closure: dict[str, set[str]] = {key: {key} for key in graph.states}
    changed = True
    while changed and not _sweep_interrupted(ctl, noted):
        changed = False
        for key in graph.states:
            mine = closure[key]
            before = len(mine)
            additions: set[str] = set()
            for reached in tuple(mine):
                for _, target in graph.successors_of(reached):
                    additions.add(target)
            mine |= additions
            if len(mine) != before:
                changed = True
    return {key: frozenset(v) for key, v in closure.items()}


def largest_simulation(
    left: Graph,
    right: Graph,
    control: Optional[RunControl] = None,
    _noted: Optional[list[str]] = None,
) -> set[tuple[str, str]]:
    """The largest barbed weak simulation between two explored graphs.

    Cooperative: a deadline/cancellation stops the refinement between
    sweeps, leaving an over-approximation (the interruption reason is
    appended to ``_noted`` for the caller to surface).
    """
    ctl = resolve_control(control)
    noted = _noted if _noted is not None else []
    left_barbs = {key: rich_barbs(state) for key, state in left.states.items()}
    right_weak_barbs = weak_barb_table(right, ctl, noted)
    right_closure = tau_closure(right, ctl, noted)

    relation: set[tuple[str, str]] = {
        (p, q)
        for p in left.states
        for q in right.states
        if left_barbs[p] <= right_weak_barbs[q]
    }

    changed = True
    while changed and not _sweep_interrupted(ctl, noted):
        changed = False
        for pair in tuple(relation):
            p, q = pair
            if pair not in relation:
                continue
            ok = True
            for _, p_next in left.successors_of(p):
                # q must weakly reach some q' related to p_next.
                if not any(
                    (p_next, q_prime) in relation for q_prime in right_closure[q]
                ):
                    ok = False
                    break
            if not ok:
                relation.discard(pair)
                changed = True
    return relation


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of a barbed-weak-simulation check.

    ``holds`` means the initial states are related by the largest
    simulation of the *explored* graphs.  When ``exhaustion`` is set the
    graphs are under-approximations (or the refinement was interrupted)
    and the verdict is qualified: a True result says no violation was
    found within the budget.
    """

    holds: bool
    left_states: int
    right_states: int
    relation_size: int
    exhaustion: Optional[Exhaustion] = None

    @property
    def truncated(self) -> bool:
        return self.exhaustion is not None

    def describe(self) -> str:
        verdict = "simulated" if self.holds else "NOT simulated"
        qualifier = (
            f" (budget-truncated exploration: {'+'.join(self.exhaustion.reasons)})"
            if self.exhaustion is not None
            else ""
        )
        return (
            f"left ({self.left_states} states) is {verdict} by right "
            f"({self.right_states} states); |S| = {self.relation_size}{qualifier}"
        )


def weakly_simulated(
    left: System,
    right: System,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> SimulationResult:
    """Is ``left`` barbed-weakly simulated by ``right``?

    This is the formal content of "every computation of the concrete
    protocol is simulated by the abstract one": run it with
    ``left = (nu C)(P_concrete | X)`` and ``right = (nu C)(P_abstract | X)``.
    """
    ctl = resolve_control(control)
    # Symmetry merging is a quotient by an automorphism of the LTS, so
    # the explored graphs keep the branching the simulation game reads.
    left_graph = explore(left, budget, ctl)
    right_graph = explore(right, budget, ctl)
    noted: list[str] = []
    relation = largest_simulation(left_graph, right_graph, ctl, noted)
    return SimulationResult(
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


def find_unsimulated_state(
    left: System,
    right: System,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> Optional[System]:
    """A reachable left-state not related to any reachable right-state.

    Diagnostic helper: when :func:`weakly_simulated` fails this pinpoints
    a concrete behaviour of the left system with no abstract counterpart.
    """
    ctl = resolve_control(control)
    left_graph = explore(left, budget, ctl)
    right_graph = explore(right, budget, ctl)
    relation = largest_simulation(left_graph, right_graph, ctl)
    related_left = {p for p, _ in relation}
    for key, state in left_graph.states.items():
        if key not in related_left:
            return state
    return None
