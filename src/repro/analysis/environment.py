"""The knowledge-indexed most-general attacker.

:mod:`repro.analysis.intruder` approximates Definition 4's "for all X in
E_C" by a canned suite of attacker *processes*.  This module implements
the stronger, standard alternative: an *environment-sensitive semantics*
whose states pair the protocol with the attacker's Dolev-Yao knowledge.
The environment is not a fixed process — at every point it may

* **hear** any output the localization discipline lets it receive
  (extending its knowledge with the message), or
* **say** any message it can synthesize, to any input that admits it.

One exploration of this system covers *every* attacker whose outputs
stay within the synthesis bound, so a property that holds on the
environment graph holds against the whole family at once.

Partner authentication interacts with the environment exactly as with
process attackers: the environment owns a *location* (a designated part
of the configuration, conventionally the ``E`` role), so a channel
localized to an honest partner simply never talks to it, and messages
it invents are localized at its location — which is what the
origin-sensitive properties then detect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.knowledge import Knowledge, synthesizable
from repro.analysis.properties import authentication_violation, freshness_violation
from repro.obs.metrics import current_metrics
from repro.obs.trace import trace_span
from repro.core.addresses import Location, is_prefix
from repro.core.errors import TermError
from repro.core.processes import replace_leaves
from repro.core.substitution import instantiate_locvar, subst
from repro.core.terms import Name, Term, localize
from repro.equivalence.testing import Configuration, compose
from repro.runtime.deadline import RunControl, resolve_control
from repro.runtime.exhaustion import Exhaustion
from repro.semantics import canonical, reduction
from repro.semantics.actions import Comm, PendingAction, Transition
from repro.semantics.lts import Budget, DEFAULT_BUDGET, Graph, _bfs
from repro.semantics.normalize import normalize
from repro.semantics.system import System
from repro.semantics.transitions import _admits, pending_actions
from repro.core.processes import LocVar

if TYPE_CHECKING:
    from repro.analysis.witness import Witness


@dataclass(frozen=True, slots=True)
class EnvState:
    """A protocol state paired with the attacker's knowledge."""

    system: System
    knowledge: Knowledge

    def key(self) -> tuple[str, str]:
        """Process and knowledge keyed together: see ``canonical.knowledge_key``."""
        system = self.system
        return (
            system.canonical_key(),
            canonical.knowledge_key(system.root, system.roles, self.knowledge.atoms),
        )


@dataclass(frozen=True, slots=True)
class EnvStep:
    """One step of the environment-sensitive semantics.

    ``kind`` is ``"tau"`` (honest internal), ``"hear"`` (the environment
    consumed an output) or ``"say"`` (the environment fed an input).
    """

    kind: str
    action: Comm
    target: "EnvState"

    def describe(self, source: EnvState) -> str:
        base = Transition(self.action, self.target.system).describe(source.system)
        return f"[{self.kind}] {base}"


def _consume_output(
    system: System, out: PendingAction, env_loc: Location
) -> System:
    """The environment hears ``out``: the sender's prefix fires."""
    continuation = out.continuation
    if isinstance(out.index, LocVar):
        continuation = instantiate_locvar(continuation, out.index, env_loc)
    new_root = replace_leaves(system.root, {out.leaf_loc: out.wrap(continuation)})
    return system.with_root(normalize(new_root), out.new_private)


def _feed_input(
    system: System, inp: PendingAction, value: Term, env_loc: Location
) -> System:
    """The environment says ``value`` to the input ``inp``."""
    continuation = subst(inp.continuation, {inp.binder: value})
    if isinstance(inp.index, LocVar):
        continuation = instantiate_locvar(continuation, inp.index, env_loc)
    new_root = replace_leaves(system.root, {inp.leaf_loc: inp.wrap(continuation)})
    return system.with_root(normalize(new_root), inp.new_private)


def env_successors(
    state: EnvState,
    env_loc: Location,
    channels: frozenset[str],
    synth_depth: int = 1,
) -> Iterator[EnvStep]:
    """Every step of the environment-sensitive semantics.

    ``channels`` restricts the environment to the protocol wires (the
    set ``C`` of Definition 4, by base spelling); honest internal steps
    are not restricted.
    """
    # Honest internal steps (the environment idles).
    for step in reduction.reduced_successors(state.system):
        yield EnvStep("tau", step.action, EnvState(step.target, state.knowledge))

    actions = [
        act
        for act in pending_actions(state.system)
        if not is_prefix(env_loc, act.act_loc)
    ]

    # The environment hears an admissible output.
    for out in actions:
        if not out.is_output or out.channel_subject.base not in channels:
            continue
        if out.channel_subject.uid is not None and not state.knowledge.can_derive(
            out.channel_subject
        ):
            continue  # a channel the environment does not know
        if not _admits(out.index, out.act_loc, env_loc):
            continue
        try:
            value = localize(out.payload, out.act_loc)
        except TermError:
            continue
        action = Comm(out.channel_subject, value, sender=out.act_loc, receiver=env_loc)
        target = EnvState(
            _consume_output(state.system, out, env_loc),
            state.knowledge.adding(value),
        )
        yield EnvStep("hear", action, target)

    # The environment says something synthesizable.
    for inp in actions:
        if inp.is_output or inp.channel_subject.base not in channels:
            continue
        if inp.channel_subject.uid is not None and not state.knowledge.can_derive(
            inp.channel_subject
        ):
            continue
        if not _admits(inp.index, inp.act_loc, env_loc):
            continue
        for message in synthesizable(state.knowledge, synth_depth):
            value = localize(message, env_loc)
            action = Comm(
                inp.channel_subject, value, sender=env_loc, receiver=inp.act_loc
            )
            target = EnvState(
                _feed_input(state.system, inp, value, env_loc), state.knowledge
            )
            yield EnvStep("say", action, target)


def env_initial(
    config: Configuration,
    env_role: str = "E",
    initial_knowledge: tuple[Term, ...] = (),
) -> tuple[EnvState, Location, frozenset[str]]:
    """The starting point of the environment-sensitive semantics.

    Returns the initial :class:`EnvState`, the environment's location,
    and the wire set ``C`` (by base spelling) — everything
    :func:`env_successors` needs.  Shared by :func:`env_explore` and the
    independent witness replayer, which must agree on the initial
    system.
    """
    from repro.core.processes import Nil

    cfg = config
    if env_role not in config.labels():
        cfg = config.with_part(env_role, Nil())
    system = compose(cfg)
    env_loc = system.location_of(env_role)
    channels = frozenset(name.base for name in cfg.private) | {
        name.base for name in initial_knowledge if isinstance(name, Name)
    }
    # The attacker of Definition 4 lives inside the (nu C) scope, so it
    # knows the *instantiated* channel names, not just their spellings.
    channel_instances = tuple(
        name for name in system.private if name.base in channels
    )
    knowledge = Knowledge.from_terms(tuple(initial_knowledge) + channel_instances)
    return EnvState(system, knowledge), env_loc, channels


def env_explore(
    config: Configuration,
    env_role: str = "E",
    initial_knowledge: tuple[Term, ...] = (),
    synth_depth: int = 1,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> Graph:
    """Explore a configuration against the most-general attacker.

    The configuration must contain a part for ``env_role`` (use
    ``Nil()`` — it is only there to give the environment a location in
    the tree).  ``initial_knowledge`` seeds the attacker (free protocol
    channels are always known).

    This runs the exploration kernel of :mod:`repro.semantics.lts`, so
    it is cooperative like :func:`~repro.semantics.lts.explore`: a
    deadline or cancellation (explicit ``control`` or the ambient
    :func:`~repro.runtime.deadline.governed` one) stops the exploration
    between state expansions, and injected faults skip the failing state
    — both leave a partial graph with a structured ``exhaustion``.

    The graph's keys are :meth:`EnvState.key` pairs, its states
    :class:`EnvState` values, and its edges and parent pointers carry
    :class:`EnvStep` records.
    """
    initial, env_loc, channels = env_initial(config, env_role, initial_knowledge)

    def expand(state: EnvState) -> Iterator[EnvStep]:
        return env_successors(state, env_loc, channels, synth_depth)

    graph = Graph(initial=initial.key())
    with trace_span("env.explore", max_states=budget.max_states,
                    max_depth=budget.max_depth):
        _bfs(graph, expand, EnvState.key, budget, resolve_control(control),
             initial=initial, family="env")
    metrics = current_metrics()
    if metrics is not None:
        kinds = Counter(step.kind for out in graph.edges.values() for step, _ in out)
        for kind in ("tau", "hear", "say"):
            metrics.inc(f"env.{kind}", kinds[kind])
    return graph


# ----------------------------------------------------------------------
# Properties over the environment graph
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EnvVerdict:
    """Outcome of a most-general-attacker check."""

    holds: bool
    exhaustive: bool
    states: int
    violation: Optional[str] = None
    exhaustion: Optional[Exhaustion] = None
    witness: Optional["Witness"] = None

    def describe(self) -> str:
        if self.holds:
            if self.exhaustive:
                qualifier = ""
            elif self.exhaustion is not None:
                qualifier = f" (within budget: {'+'.join(self.exhaustion.reasons)})"
            else:
                qualifier = " (within budget)"
            return f"holds against the most-general attacker over {self.states} states{qualifier}"
        return f"VIOLATED: {self.violation}"


def _holds(graph: Graph) -> EnvVerdict:
    return EnvVerdict(
        holds=True,
        exhaustive=not graph.truncated,
        states=graph.state_count(),
        exhaustion=graph.exhaustion,
    )


def _violated(
    graph: Graph, key: tuple, violation: str, kind: str, prop: dict
) -> EnvVerdict:
    """The verdict for the first violating state ``key``; its witness is
    the path back to that state through the exploration tree."""
    from repro.analysis.witness import graph_witness

    return EnvVerdict(
        holds=False,
        exhaustive=not graph.truncated,
        states=graph.state_count(),
        violation=violation,
        exhaustion=graph.exhaustion,
        witness=graph_witness(graph, key, kind, prop),
    )


def env_secrecy(
    config: Configuration,
    secret_base: str,
    env_role: str = "E",
    synth_depth: int = 1,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> EnvVerdict:
    """Can the most-general attacker ever derive a secret?"""
    graph = env_explore(
        config, env_role, synth_depth=synth_depth, budget=budget, control=control
    )
    prop = {"secret": secret_base, "env": env_role, "synth_depth": synth_depth}
    for key, state in graph.states.items():
        for name in state.system.private:
            if name.base == secret_base and state.knowledge.can_derive(name):
                return _violated(
                    graph, key, f"the attacker derives {name.render()}",
                    "env-secrecy", prop,
                )
    return _holds(graph)


def env_freshness(
    config: Configuration,
    observe: str = "observe",
    env_role: str = "E",
    synth_depth: int = 1,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> EnvVerdict:
    """Can the most-general attacker make two continuation instances
    accept data from the same creator (a replay), in any single run?"""
    graph = env_explore(
        config, env_role, synth_depth=synth_depth, budget=budget, control=control
    )
    prop = {"observe": observe, "env": env_role, "synth_depth": synth_depth}
    for key, state in graph.states.items():
        if freshness_violation(state.system, observe):
            return _violated(
                graph,
                key,
                "two continuation instances accepted data from one creator "
                "in a single run",
                "env-freshness",
                prop,
            )
    return _holds(graph)


def env_authentication(
    config: Configuration,
    sender_role: str,
    observe: str = "observe",
    env_role: str = "E",
    synth_depth: int = 1,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> EnvVerdict:
    """Does every activated continuation hold a datum created by
    ``sender_role``, whatever the most-general attacker does?"""
    from repro.syntax.pretty import render_term

    graph = env_explore(
        config, env_role, synth_depth=synth_depth, budget=budget, control=control
    )
    prop = {
        "sender": sender_role,
        "observe": observe,
        "env": env_role,
        "synth_depth": synth_depth,
    }
    sender_loc = graph.states[graph.initial].system.location_of(sender_role)
    for key, state in graph.states.items():
        value = authentication_violation(state.system, sender_loc, observe)
        if value is not None:
            return _violated(
                graph,
                key,
                f"a continuation accepted {render_term(value)} "
                f"not created by {sender_role}",
                "env-authentication",
                prop,
            )
    return _holds(graph)
