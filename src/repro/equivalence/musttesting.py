"""Must-testing — the stronger twin of the paper's may-testing.

Footnote 4 of the paper notes its testing equivalence "technically is a
*may*-testing equivalence": ``P`` may-passes ``(T, beta)`` when *some*
computation of ``P | T`` reaches the barb.  The classical must variant
(De Nicola & Hennessy) demands that *every* maximal computation does.

On an explored finite fragment the must judgement is exact and computed
by a backward greatest fixpoint: a state can *avoid* the barb when it
does not exhibit it and either deadlocks or has a successor that can
avoid it; ``P`` must-passes iff the initial state cannot avoid the barb.
Truncated fragments yield a qualified verdict like everything else in
the library.

Divergence note: an infinite tau-loop that never exhibits the barb
counts as avoidance (the classical catastrophic reading of divergence),
which the fixpoint gives for free — a cycle of non-exhibiting states is
its own witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.equivalence.barbs import barbs
from repro.equivalence.simulation import _sweep_interrupted
from repro.equivalence.testing import Configuration, Test, compose
from repro.runtime.deadline import RunControl, resolve_control
from repro.runtime.exhaustion import Exhaustion
from repro.semantics.actions import Barb
from repro.semantics.lts import Budget, DEFAULT_BUDGET, Graph, explore
from repro.semantics.system import System


def avoiding_states(
    graph: Graph,
    barb: Barb,
    control: Optional[RunControl] = None,
    _noted: Optional[list[str]] = None,
) -> frozenset[str]:
    """States from which some maximal run never exhibits ``barb``.

    Greatest fixpoint of: ``s`` avoids iff ``s`` does not exhibit the
    barb and (``s`` has no successors or some successor avoids).
    """
    ctl = resolve_control(control)
    noted = _noted if _noted is not None else []
    exhibiting = {
        key for key, state in graph.states.items() if barb in barbs(state)
    }
    avoiding = set(graph.states) - exhibiting
    changed = True
    while changed and not _sweep_interrupted(ctl, noted):
        changed = False
        for key in tuple(avoiding):
            out = graph.successors_of(key)
            if not out:
                continue  # deadlock: avoidance stands
            if not any(target in avoiding for _, target in out):
                avoiding.discard(key)
                changed = True
    return frozenset(avoiding)


@dataclass(frozen=True, slots=True)
class MustVerdict:
    """Outcome of a must-pass check (budget-qualified)."""

    passes: bool
    exhaustive: bool
    states: int
    exhaustion: Optional[Exhaustion] = None

    def describe(self) -> str:
        verdict = "must-passes" if self.passes else "may fail"
        if self.exhaustive:
            qualifier = ""
        elif self.exhaustion is not None:
            qualifier = f" (within budget: {'+'.join(self.exhaustion.reasons)})"
        else:
            qualifier = " (within budget)"
        return f"{verdict} over {self.states} states{qualifier}"


def must_pass_system(
    system: System,
    barb: Barb,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> MustVerdict:
    """Does every maximal run of ``system`` reach a state exhibiting
    ``barb``?"""
    ctl = resolve_control(control)
    # Must-testing is branching/divergence-sensitive; symmetry merging
    # (a quotient by an LTS automorphism) keeps both.
    graph = explore(system, budget, ctl)
    noted: list[str] = []
    avoiding = avoiding_states(graph, barb, ctl, noted)
    exhaustion = Exhaustion.merge(
        graph.exhaustion, *(Exhaustion.single(reason) for reason in noted)
    )
    return MustVerdict(
        passes=graph.initial not in avoiding,
        exhaustive=exhaustion is None,
        states=graph.state_count(),
        exhaustion=exhaustion,
    )


def must_passes(
    config: Configuration,
    test: Test,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> MustVerdict:
    """Must-testing of a configuration against ``(T, beta)``."""
    return must_pass_system(compose(config, test.tester), test.barb, budget, control)


def must_preorder(
    left: Configuration,
    right: Configuration,
    tests: list[Test],
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[bool, Test | None]:
    """``left <=must right`` over a finite test suite.

    Returns ``(holds, distinguishing test)``; the preorder requires
    every test must-passed by ``left`` to be must-passed by ``right``.
    """
    for test in tests:
        if must_passes(left, test, budget).passes and not must_passes(
            right, test, budget
        ).passes:
            return False, test
    return True, None
