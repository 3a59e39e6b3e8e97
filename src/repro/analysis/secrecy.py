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
from repro.core.addresses import is_prefix
from repro.core.processes import Channel, Input, LocVar, Nil, Output, Process, Restriction
from repro.core.terms import Name, Term, Var, fresh_uid
from repro.equivalence.testing import Configuration, compose
from repro.protocols.paper import Continuation, observing_continuation
from repro.protocols.startup import startup
from repro.runtime.deadline import RunControl
from repro.runtime.exhaustion import Exhaustion
from repro.semantics import canonical
from repro.semantics.lts import Budget, DEFAULT_BUDGET, explore

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
    counts, across all replication instances).  The spy's knowledge is
    the Dolev-Yao closure of every message delivered *to* it anywhere in
    the explored state space (a sound over-approximation of any single
    run within the horizon).
    """
    if isinstance(secret, str):
        base = secret
        predicate: Callable[[Name], bool] = lambda n: n.base == base and n.uid is not None
    else:
        predicate = secret

    system = compose(config)
    spy_loc = system.location_of(spy)
    # The union below merges raw names heard on different branches;
    # shared unfolds would give one site's names one uid on all of
    # them and coarsen it (see canonical.separate_unfolds).
    with canonical.separate_unfolds():
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
    for name in sorted(secrets, key=lambda n: n.uid or 0):
        if knowledge.can_derive(name):
            witness = None
            if isinstance(secret, str):
                # Union-knowledge over all branches is an over-
                # approximation of any single run; the witness builder
                # searches for one concrete leaking path and may come
                # up empty within the budget or the job's deadline
                # (witness stays None and --certify degrades the
                # verdict to a fault).
                from repro.analysis.witness import secrecy_witness

                witness = secrecy_witness(
                    system, spy_loc, secret, spy, budget, control
                )
            return SecrecyVerdict(
                holds=False,
                exhaustive=not graph.truncated,
                heard=len(heard),
                leak=name,
                exhaustion=graph.exhaustion,
                witness=witness,
            )
    return SecrecyVerdict(
        holds=True,
        exhaustive=not graph.truncated,
        heard=len(heard),
        exhaustion=graph.exhaustion,
    )


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
