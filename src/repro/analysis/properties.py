"""The paper's named trace properties: Authentication and Freshness.

After Proposition 3 the paper displays two properties that hold for the
multisession abstract protocol (and all similarly-shaped ones):

  **Authentication**: when the continuation of an instance of
  ``B0(theta*theta' N)`` is activated, ``theta*theta'`` must be the
  relative address of an instance of A with respect to the actual
  instance of B.

  **Freshness**: for every pair of activated continuations
  ``B0(theta*theta' N)`` and ``B0(theta~*theta~' N')``, the two
  messages have been originated by two *different* instances of A.

This module checks both over the explored state space of a
configuration.  "Continuation activated with value V" is observed as a
delivery on the observation channel: the canonical ``B0(z) =
observe<z>`` republishes exactly the datum the session accepted, with
its origin intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.addresses import Location, RelativeAddress, is_prefix
from repro.core.errors import TermError
from repro.core.terms import Name, Term, localize, origin
from repro.equivalence.testing import Configuration, compose
from repro.runtime.deadline import RunControl
from repro.runtime.exhaustion import Exhaustion
from repro.semantics.lts import Budget, DEFAULT_BUDGET, Graph, explore
from repro.semantics.system import System
from repro.semantics.transitions import pending_actions

if TYPE_CHECKING:
    from repro.analysis.witness import Witness


@dataclass(frozen=True, slots=True)
class Activation:
    """One observed continuation activation: who got what from where."""

    receiver: Location  # the B-instance whose continuation ran
    creator: Optional[Location]  # origin of the accepted datum
    address: Optional[RelativeAddress]  # creator as B sees it

    def describe(self) -> str:
        from repro.core.addresses import location_str

        addr = "unlocalized" if self.address is None else self.address.render()
        return f"B at {location_str(self.receiver)} accepted a datum from {addr}"


@dataclass(frozen=True, slots=True)
class PropertyVerdict:
    """Outcome of an authentication/freshness check.

    ``holds`` is qualified by ``exhaustive`` exactly like every other
    bounded verdict in the library; ``violation`` names the offending
    activation (pair).
    """

    holds: bool
    exhaustive: bool
    activations: int
    violation: Optional[str] = None
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
            return f"holds over {self.activations} activations{qualifier}"
        return f"VIOLATED: {self.violation}"


def _observations(state: System, observe_base: str) -> Iterator[tuple[Location, Term]]:
    """``(receiver, datum)`` for each activated continuation of ``state``:
    the pending outputs on the observation channel, payload localized."""
    for action in pending_actions(state):
        if not action.is_output or action.channel_subject.base != observe_base:
            continue
        try:
            value = localize(action.payload, action.act_loc)
        except TermError:
            continue
        yield action.act_loc, value


def authentication_violation(
    state: System, sender_loc: Location, observe_base: str
) -> Optional[Term]:
    """The datum an activated continuation of ``state`` holds that the
    authenticated sender did not create, or ``None``."""
    for _, value in _observations(state, observe_base):
        creator = origin(value)
        if creator is None or not is_prefix(sender_loc, creator):
            return value
    return None


def freshness_violation(state: System, observe_base: str) -> bool:
    """Does ``state`` hold two co-existing activations with one creator
    — the single-run signature of a replay?"""
    per_creator: dict[Location, Location] = {}
    for receiver, value in _observations(state, observe_base):
        creator = origin(value)
        if creator is None:
            continue
        previous = per_creator.get(creator)
        if previous is not None and previous != receiver:
            return True
        per_creator[creator] = receiver
    return False


def _collect_activations(graph: Graph, observe: Name) -> list[Activation]:
    """Every distinct continuation activation in the explored space.

    An activation is a *pending* output on the observation channel: the
    continuation ``B0(z) = observe<z>`` offers the accepted datum as
    soon as it runs, whether or not anything consumes it.
    """
    activations: list[Activation] = []
    seen: set[tuple] = set()
    for state in graph.states.values():
        for receiver, value in _observations(state, observe.base):
            creator = origin(value)
            fingerprint = (receiver, creator)
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            address = (
                None
                if creator is None
                else RelativeAddress.between(observer=receiver, target=creator)
            )
            activations.append(
                Activation(receiver=receiver, creator=creator, address=address)
            )
    return activations


def authentication(
    config: Configuration,
    sender_role: str,
    observe: Name = Name("observe"),
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> PropertyVerdict:
    """The paper's Authentication property.

    Every activated continuation must have accepted a datum whose
    creator is an instance of ``sender_role`` (by location prefix).
    A violation's witness is the path to the first violating state of
    the exploration.
    """
    system = compose(config)
    sender_loc = system.location_of(sender_role)
    graph = explore(system, budget, control)
    activations = _collect_activations(graph, observe)
    for activation in activations:
        if activation.creator is None or not is_prefix(sender_loc, activation.creator):
            from repro.analysis.witness import graph_witness

            key = next(
                key
                for key, state in graph.states.items()
                if authentication_violation(state, sender_loc, observe.base) is not None
            )
            return PropertyVerdict(
                holds=False,
                exhaustive=not graph.truncated,
                activations=len(activations),
                violation=activation.describe(),
                exhaustion=graph.exhaustion,
                witness=graph_witness(
                    graph,
                    key,
                    "authentication",
                    {"sender": sender_role, "observe": observe.base},
                ),
            )
    return PropertyVerdict(
        holds=True,
        exhaustive=not graph.truncated,
        activations=len(activations),
        exhaustion=graph.exhaustion,
    )


def freshness(
    config: Configuration,
    observe: Name = Name("observe"),
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> PropertyVerdict:
    """The paper's Freshness property.

    No two *distinct* continuation activations of one run may have
    accepted data originated by the same creator instance — accepting
    the same origin twice is exactly what a replay looks like.

    "Of one run" matters: exploration sees all nondeterministic
    branches, and the same creator may legitimately serve different
    partners in different branches.  A replay, by contrast, leaves two
    co-existing activations in a *single* reachable state — which is how
    the paper's attack on Pm2 manifests (two B-instances simultaneously
    holding one ``{M}KAB``).  A violation's witness is the path to that
    state in the exploration.
    """
    system = compose(config)
    graph = explore(system, budget, control)
    total = 0
    for key, state in graph.states.items():
        per_creator: dict[Location, Location] = {}
        for receiver, value in _observations(state, observe.base):
            creator = origin(value)
            if creator is None:
                continue
            total += 1
            previous = per_creator.get(creator)
            if previous is not None and previous != receiver:
                from repro.analysis.witness import graph_witness
                from repro.core.addresses import location_str

                return PropertyVerdict(
                    holds=False,
                    exhaustive=not graph.truncated,
                    activations=total,
                    violation=(
                        f"receivers {location_str(previous)} and "
                        f"{location_str(receiver)} both accepted a datum "
                        f"created at {location_str(creator)} in one run"
                    ),
                    exhaustion=graph.exhaustion,
                    witness=graph_witness(
                        graph, key, "freshness", {"observe": observe.base}
                    ),
                )
            per_creator[creator] = receiver
    return PropertyVerdict(
        holds=True,
        exhaustive=not graph.truncated,
        activations=total,
        exhaustion=graph.exhaustion,
    )
