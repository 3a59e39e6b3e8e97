"""Secrecy analysis — the other half of Section 5.1's remark.

The paper notes that localizing the *output* as well::

    A' = (nu M) c@l<M>        with l the address of B w.r.t. A

"would give a secrecy guarantee on the message, because A would be sure
that B is the only possible receiver of M".

This module makes the claim checkable: explore a configuration, collect
everything a designated spy role ever receives, close it under
Dolev-Yao analysis, and ask whether the secret becomes derivable.
:func:`secrecy_protocol` builds the doubly-localized variant of the
paper's abstract protocol; ``keeps_secret`` shows it keeps ``M`` from
every attacker while the plain abstract protocol (whose output anyone
may consume) does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.analysis.knowledge import Knowledge
from repro.core.addresses import Location, is_prefix
from repro.core.processes import Channel, Input, LocVar, Nil, Output, Process, Restriction
from repro.core.terms import Name, Term, Var, fresh_uid
from repro.equivalence.testing import Configuration, compose
from repro.protocols.paper import Continuation, observing_continuation
from repro.protocols.startup import startup
from repro.runtime.deadline import RunControl, resolve_control
from repro.runtime.exhaustion import Exhaustion
from repro.semantics.actions import Transition
from repro.semantics.lts import Budget, DEFAULT_BUDGET, Graph, _bfs, explore
from repro.semantics.system import System
from repro.semantics.transitions import successors

if TYPE_CHECKING:
    from repro.analysis.witness import Witness


@dataclass(frozen=True, slots=True)
class SecrecyVerdict:
    """Outcome of a secrecy check.

    ``holds`` means the spy could not derive any matching secret within
    the explored space; ``leak`` carries a derivable secret otherwise.
    ``exhaustive`` is False when the exploration was budget-truncated.
    """

    holds: bool
    exhaustive: bool
    heard: int
    leak: Optional[Term] = None
    exhaustion: Optional[Exhaustion] = None
    witness: Optional["Witness"] = None

    def describe(self) -> str:
        if self.holds:
            if self.exhaustive:
                qualifier = ""
            elif self.exhaustion is not None:
                qualifier = (
                    f" (within the exploration budget: "
                    f"{'+'.join(self.exhaustion.reasons)})"
                )
            else:
                qualifier = " (within the exploration budget)"
            return f"secret kept: spy heard {self.heard} messages{qualifier}"
        from repro.syntax.pretty import render_term

        return f"SECRET LEAKED: spy can derive {render_term(self.leak)}"


def keeps_secret(
    config: Configuration,
    secret: Callable[[Name], bool] | str,
    spy: str = "E",
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> SecrecyVerdict:
    """Can the ``spy`` role ever derive a secret?

    ``secret`` selects the sensitive names — either a predicate on
    :class:`Name` or a base spelling (every restricted name spelled so
    counts, across all replication instances).

    The Dolev-Yao closure of everything delivered *to* the spy anywhere
    in the explored space over-approximates any run, so it only filters.
    :func:`_leak_path` confirms a secret it derives: a run found is the
    leak (witnessed when ``secret`` is a spelling), an exhaustive search
    finding none keeps the secret, and a search cut short leaves the
    union's leak standing without a witness.
    """
    if isinstance(secret, str):
        base = secret
        predicate: Callable[[Name], bool] = lambda n: n.base == base and n.uid is not None
    else:
        predicate = secret

    system = compose(config)
    spy_loc = system.location_of(spy)
    graph = explore(system, budget, control)

    heard: list[Term] = []
    secrets: set[Name] = set()
    for key in graph.states:
        for name in graph.states[key].private:
            if predicate(name):
                secrets.add(name)
        for transition, _ in graph.successors_of(key):
            action = transition.action
            if is_prefix(spy_loc, action.receiver):
                heard.append(action.value)

    knowledge = Knowledge.from_terms(heard)
    leaks = [name for name in secrets if knowledge.can_derive(name)]
    leak = witness = None
    if leaks:
        found, run, exhaustive = _leak_path(system, spy_loc, predicate, budget, control)
        if found is not None or not exhaustive:
            leak = found or min(leaks, key=lambda n: n.uid or 0)
        if run is not None and isinstance(secret, str):
            from repro.analysis.witness import secrecy_witness

            witness = secrecy_witness(system, run, secret, spy)
    return SecrecyVerdict(
        holds=leak is None,
        exhaustive=not graph.truncated,
        heard=len(heard),
        leak=leak,
        exhaustion=graph.exhaustion,
        witness=witness,
    )


def _leak_path(
    system: System,
    spy_loc: Location,
    predicate: Callable[[Name], bool],
    budget: Budget,
    control: Optional[RunControl],
) -> tuple[Optional[Name], Optional[list[Transition]], bool]:
    """``(leaked name, run, exhaustive)`` for the shortest run whose own
    spy knowledge derives a secret: a search over (state, path
    knowledge) nodes, keyed like environment states.  Name and run are
    ``None`` if no run leaks before the budget or ``control`` stops it."""
    from repro.analysis.environment import EnvState, EnvStep

    def derived(node: EnvState) -> list[Name]:
        return [
            name for name in node.system.private
            if predicate(name) and node.knowledge.can_derive(name)
        ]

    def expand(node: EnvState) -> list[EnvStep]:
        steps = []
        for step in successors(node.system):
            known = node.knowledge
            if is_prefix(spy_loc, step.action.receiver):
                known = known.adding(step.action.value)
            steps.append(EnvStep("tau", step.action, EnvState(step.target, known)))
        return steps

    start = EnvState(system, Knowledge.from_terms(()))
    graph = Graph(initial=start.key())
    found = _bfs(graph, expand, EnvState.key, budget, resolve_control(control),
                 initial=start, goal=lambda node: bool(derived(node)), family="search")
    if found is None:
        return None, None, not graph.truncated
    run = [Transition(step.action, step.target.system) for step in graph.trace_to(found)]
    return min(derived(graph.states[found]), key=lambda n: n.uid or 0), run, True


def secrecy_protocol(
    continuation: Continuation = observing_continuation,
    channel: str = "c",
) -> Process:
    """The doubly-localized abstract protocol of the Section 5.1 remark.

    ``startup(lamA, A', lamB, B)`` with ``A' = (nu M) c@lamA<M>``: the
    output itself is pinned to B, so no environment can even *receive*
    the message, let alone forge one — authentication and secrecy by
    construction.
    """
    c = Name(channel)
    lam_a = LocVar("lamA", fresh_uid())
    lam_b = LocVar("lamB", fresh_uid())
    m = Name("M")
    z = Var("z", fresh_uid())
    side_a = Restriction(m, Output(Channel(c, lam_a), m, Nil()))
    side_b = Input(Channel(c, lam_b), z, continuation(z))
    return startup(lam_a, side_a, lam_b, side_b)
