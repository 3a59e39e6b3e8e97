"""Replayable violation witnesses.

Every negative verdict this library produces is intrinsically
*witnessed*: a secrecy leak, an authentication/freshness violation or a
Definition-4 attack is exhibited by a concrete run from the initial
system (the Woo-Lam narration of :mod:`repro.analysis.attacks` is the
canonical example).  This module upgrades the prose narration to a
machine-checkable record: a :class:`Witness` is a JSON-round-trippable,
checksummed, engine-stamped list of concrete steps, which the
deliberately minimal trusted core in :mod:`repro.semantics.replay`
re-derives against the unreduced, uncached transition relation.

Design constraints:

* **Uid-freedom.**  Restricted-name uids come from a process-global
  counter, so they are not stable across processes.  Steps therefore
  record *shapes* (:func:`term_shape`): names by base spelling plus
  creator location (which is structural — the absolute tree position of
  the restriction — and therefore deterministic), composites
  structurally.  Shape-ambiguous matches are resolved by the replayer's
  backtracking search.
* **Sealing split.**  Builders run where the violation is found and
  cannot know how the initial system was constructed; they emit an
  *unsealed* witness (``system`` recipe ``None``, no checksum).  The
  caller that owns the construction (the worker, the CLI) seals it with
  a recipe via :meth:`Witness.sealed`, which also stamps the checksum.
* **One exploration.**  A witness is the path back through the
  verdict's own exploration tree (:meth:`repro.semantics.lts.Graph.trace_to`),
  walked along parent pointers from the first violating state in
  breadth-first order, so no state is expanded twice.  The one exception
  is plain-semantics secrecy, whose verdict unions the spy's knowledge
  over all branches; :func:`secrecy_witness` searches the
  ``(state, path knowledge)`` product space for one concrete run.
* **Best effort.**  That search may exhaust its budget or be stopped
  by the job's deadline and return ``None`` — under ``--certify`` a
  violation without a replayable witness degrades to a retryable fault
  rather than a silent wrong verdict.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from repro import engine_version
from repro.core.addresses import Location, is_prefix
from repro.core.errors import ReproError
from repro.core.terms import (
    At,
    Localized,
    Name,
    Pair,
    SharedEnc,
    Succ,
    Term,
    Var,
    Zero,
)
from repro.runtime.deadline import RunControl, resolve_control
from repro.semantics import canonical
from repro.semantics.actions import Comm, Transition
from repro.semantics.lts import Budget, Graph, _bfs
from repro.semantics.system import System
from repro.semantics.transitions import successors

#: Recognized witness kinds.  The ``env-`` prefix selects the
#: environment-sensitive (most-general-attacker) semantics on replay.
WITNESS_KINDS = frozenset(
    {
        "secrecy",
        "authentication",
        "freshness",
        "env-secrecy",
        "env-authentication",
        "env-freshness",
        "attack",
    }
)

#: Schema version of serialized witnesses.
WITNESS_VERSION = 1


class WitnessError(ReproError):
    """A witness is structurally malformed or fails validation."""


# ----------------------------------------------------------------------
# Term shapes — uid-free structural signatures
# ----------------------------------------------------------------------


def term_shape(term: Term) -> Any:
    """A JSON-ready, uid-free structural signature of a runtime value.

    Names are keyed by base spelling, boundness, and creator location;
    two names from different restriction instances (including distinct
    replication copies, whose copy index is part of the creator
    location) keep distinct shapes.
    """
    if isinstance(term, Name):
        shape: dict = {"t": "name", "b": term.base, "u": term.uid is not None}
        if term.creator is not None:
            shape["c"] = list(term.creator)
        return shape
    if isinstance(term, Pair):
        return {"t": "pair", "f": term_shape(term.first), "s": term_shape(term.second)}
    if isinstance(term, Zero):
        return {"t": "zero"}
    if isinstance(term, Succ):
        return {"t": "succ", "n": term_shape(term.term)}
    if isinstance(term, SharedEnc):
        return {
            "t": "enc",
            "b": [term_shape(part) for part in term.body],
            "k": term_shape(term.key),
        }
    if isinstance(term, Localized):
        return {"t": "loc", "c": list(term.creator), "v": term_shape(term.term)}
    if isinstance(term, At):
        return {
            "t": "at",
            "a": term.address.render(),
            "v": None if term.term is None else term_shape(term.term),
        }
    if isinstance(term, Var):  # defensive: open terms never flow at runtime
        return {"t": "var", "v": term.ident}
    raise WitnessError(f"cannot shape term {term!r}")


def step_record(action: Comm, label: str, env: Optional[str] = None) -> dict:
    """One serialized witness step: the action's full signature plus the
    human narration line (``env`` is the environment-step kind for
    ``env-*`` witnesses: ``tau``/``hear``/``say``)."""
    record = {
        "label": label,
        "ch": term_shape(action.channel),
        "val": term_shape(action.value),
        "s": list(action.sender),
        "r": list(action.receiver),
    }
    if env is not None:
        record["env"] = env
    return record


def _steps_from_trace(initial: Any, trace: Sequence) -> tuple[dict, ...]:
    """Serialize a trace, narrating each step against its source state.

    Environment steps (:class:`~repro.analysis.environment.EnvStep`)
    also record their ``tau``/``hear``/``say`` kind; plain
    :class:`Transition` steps have none.
    """
    steps = []
    state = initial
    for step in trace:
        steps.append(
            step_record(step.action, step.describe(state), getattr(step, "kind", None))
        )
        state = step.target
    return tuple(steps)


# ----------------------------------------------------------------------
# The witness record
# ----------------------------------------------------------------------


def witness_checksum(payload: Mapping) -> str:
    """Checksum of a witness payload (all fields except ``checksum``),
    over the canonical sorted-compact JSON rendering — the same idiom as
    the verdict store's record checksums."""
    data = {key: value for key, value in payload.items() if key != "checksum"}
    encoded = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Witness:
    """The violating run, as concrete steps from the initial system.

    ``prop`` carries the violated property's parameters (secret base,
    sender role, observation channel...); ``system`` is the sealed
    construction recipe the replayer rebuilds the initial system from
    (``None`` while unsealed); ``checksum`` covers every other field.
    """

    kind: str
    prop: Mapping[str, Any]
    steps: tuple[Mapping[str, Any], ...]
    system: Optional[Mapping[str, Any]] = None
    engine: str = field(default_factory=engine_version)
    version: int = WITNESS_VERSION
    checksum: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in WITNESS_KINDS:
            raise WitnessError(f"unknown witness kind {self.kind!r}")

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "engine": self.engine,
            "kind": self.kind,
            "property": dict(self.prop),
            "system": None if self.system is None else dict(self.system),
            "steps": [dict(step) for step in self.steps],
            "checksum": self.checksum,
        }

    @staticmethod
    def from_json(data: Mapping) -> "Witness":
        if not isinstance(data, Mapping):
            raise WitnessError(f"a witness must be an object, got {type(data).__name__}")
        try:
            version = int(data["version"])
            engine = data["engine"]
            kind = data["kind"]
            prop = data["property"]
            system = data.get("system")
            steps = data["steps"]
            checksum = data.get("checksum")
        except (KeyError, TypeError, ValueError) as err:
            raise WitnessError(f"malformed witness: {err}")
        if version != WITNESS_VERSION:
            raise WitnessError(f"unsupported witness version {version!r}")
        if not isinstance(engine, str) or not isinstance(kind, str):
            raise WitnessError("witness engine/kind must be strings")
        if not isinstance(prop, Mapping) or not isinstance(steps, list):
            raise WitnessError("witness property must be an object, steps a list")
        if system is not None and not isinstance(system, Mapping):
            raise WitnessError("witness system recipe must be an object")
        for step in steps:
            if not isinstance(step, Mapping) or not {"ch", "val", "s", "r"} <= set(step):
                raise WitnessError(f"malformed witness step: {step!r}")
        if checksum is not None and not isinstance(checksum, str):
            raise WitnessError("witness checksum must be a string")
        return Witness(
            kind=kind,
            prop=dict(prop),
            steps=tuple(dict(step) for step in steps),
            system=None if system is None else dict(system),
            engine=engine,
            version=version,
            checksum=checksum,
        )

    def sealed(self, system: Mapping[str, Any]) -> "Witness":
        """This witness with the construction recipe and checksum set."""
        unsealed = replace(self, system=dict(system), checksum=None)
        return replace(unsealed, checksum=witness_checksum(unsealed.to_json()))

    def verify_checksum(self) -> bool:
        """True when the stored checksum matches the payload."""
        return self.checksum is not None and self.checksum == witness_checksum(
            self.to_json()
        )


# ----------------------------------------------------------------------
# Builders — plain-semantics witnesses
# ----------------------------------------------------------------------


def graph_witness(graph: Graph, key: Any, kind: str, prop: Mapping[str, Any]) -> Witness:
    """The run to the violating state ``key`` of an explored graph: the
    path back through the exploration tree's parent pointers.

    Serves plain graphs (``authentication``/``freshness``) and
    environment graphs (the ``env-*`` kinds) alike.
    """
    return Witness(
        kind=kind,
        prop=dict(prop),
        steps=_steps_from_trace(graph.states[graph.initial], graph.trace_to(key)),
    )


class _SpyStep(NamedTuple):
    """A step of the secrecy product space: the plain transition and
    the product state it leads to."""

    transition: Transition
    target: Any  # EnvState: the target system and the spy's path knowledge


def secrecy_witness(
    system: System,
    spy_loc: Location,
    secret_base: str,
    spy: str,
    budget: Budget,
    control: Optional[RunControl] = None,
) -> Optional[Witness]:
    """Shortest run along which the spy's *path* knowledge derives a
    secret.

    :func:`repro.analysis.secrecy.keeps_secret` unions the spy's hearing
    over every explored branch (a sound over-approximation); a witness
    must be one concrete run, so this is a search of its own over
    ``(system state, path knowledge)`` nodes, with unreduced successors.
    Returns ``None`` when no single-path leak is found within the
    budget, or before ``control`` stops the search.
    """
    from repro.analysis.environment import EnvState
    from repro.analysis.knowledge import Knowledge

    def leaks(node: EnvState) -> bool:
        return any(
            name.base == secret_base
            and name.uid is not None
            and node.knowledge.can_derive(name)
            for name in node.system.private
        )

    def expand(node: EnvState) -> list[_SpyStep]:
        steps = []
        for transition in successors(node.system):
            known = node.knowledge
            if is_prefix(spy_loc, transition.action.receiver):
                known = known.adding(transition.action.value)
            steps.append(_SpyStep(transition, EnvState(transition.target, known)))
        return steps

    start = EnvState(system, Knowledge.from_terms(()))
    graph = Graph(initial=start.key())
    with canonical.separate_unfolds():  # keyed on raw knowledge
        found = _bfs(graph, expand, EnvState.key, budget, resolve_control(control),
                     initial=start, goal=leaks, family="search")
    if found is None:
        return None
    trace = [step.transition for step in graph.trace_to(found)]
    return Witness(
        kind="secrecy",
        prop={"secret": secret_base, "spy": spy},
        steps=_steps_from_trace(system, trace),
    )


def attack_witness(
    system: System, trace: Sequence[Transition], test_name: str, barb_base: str
) -> Witness:
    """A Definition-4 attack run: the implementation-side trace that
    drives the distinguishing tester to its success barb (the
    specification side admits no such run — that half is the search's
    claim, not replayable from one trace)."""
    return Witness(
        kind="attack",
        prop={"test": test_name, "barb": barb_base},
        steps=_steps_from_trace(system, trace),
    )


# ----------------------------------------------------------------------
# Recipe rebuild — how the replayer reconstructs the initial system
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplaySetup:
    """The rebuilt starting point of a replay.

    ``mode`` is ``"system"`` (plain semantics: ``initial`` is a
    :class:`System`) or ``"env"`` (environment-sensitive: ``initial`` is
    an ``EnvState`` and ``env_loc``/``channels``/``synth_depth`` drive
    the expansion).
    """

    mode: str
    initial: Any
    env_loc: Optional[Location] = None
    channels: Optional[frozenset] = None
    synth_depth: int = 1


def rebuild_initial(witness: Witness) -> ReplaySetup:
    """Reconstruct the initial system a sealed witness starts from.

    Raises :class:`WitnessError` when the recipe is missing, names an
    unknown source, or its referents (zoo protocol, system file,
    attacker/test name) no longer resolve.
    """
    recipe = witness.system
    if recipe is None:
        raise WitnessError("unsealed witness: no system recipe to rebuild from")
    source = recipe.get("source")
    if source == "zoo":
        return _rebuild_zoo(witness, recipe)
    if source == "sysfile":
        return _rebuild_sysfile(witness, recipe)
    if source == "check":
        return _rebuild_check(witness, recipe)
    raise WitnessError(f"unknown witness system source {source!r}")


def _rebuild_zoo(witness: Witness, recipe: Mapping) -> ReplaySetup:
    from repro.analysis.intruder import eavesdropper, impersonator, replayer
    from repro.equivalence.testing import compose
    from repro.protocols.library import narration_configuration
    from repro.protocols.zoo import ZOO

    name = recipe.get("protocol")
    builder = ZOO.get(name)
    if builder is None:
        raise WitnessError(f"witness names unknown zoo protocol {name!r}")
    spec = builder()
    config = narration_configuration(
        spec,
        observed_role=recipe.get("observed_role", "B"),
        observed_datum=recipe.get("observed_datum", "PAYLOAD"),
    )
    wire = Name(spec.channel)
    intruder = recipe.get("intruder")
    if intruder == "eavesdropper":
        attacker = eavesdropper(wire, messages=int(recipe.get("messages", 1)))
    elif intruder == "impersonator":
        attacker = impersonator(wire)
    elif intruder == "replayer":
        attacker = replayer(wire)
    else:
        raise WitnessError(f"witness names unknown intruder {intruder!r}")
    return ReplaySetup(mode="system", initial=compose(config.with_part("E", attacker)))


def _rebuild_sysfile(witness: Witness, recipe: Mapping) -> ReplaySetup:
    from repro.analysis.environment import env_initial
    from repro.syntax.sysfile import load_system_file

    path = recipe.get("path")
    try:
        sysfile = load_system_file(path)
    except (OSError, ReproError) as err:
        raise WitnessError(f"cannot rebuild system file {path!r}: {err}")
    env_role = witness.prop.get("env", "E")
    initial, env_loc, channels = env_initial(sysfile.configuration, env_role)
    return ReplaySetup(
        mode="env",
        initial=initial,
        env_loc=env_loc,
        channels=channels,
        synth_depth=int(witness.prop.get("synth_depth", 1)),
    )


def _rebuild_check(witness: Witness, recipe: Mapping) -> ReplaySetup:
    from repro.analysis.attacks import standard_testers
    from repro.analysis.intruder import standard_attackers
    from repro.equivalence.testing import compose
    from repro.syntax.sysfile import load_system_file

    path = recipe.get("impl")
    try:
        impl = load_system_file(path)
    except (OSError, ReproError) as err:
        raise WitnessError(f"cannot rebuild implementation file {path!r}: {err}")
    attackers = dict(standard_attackers(list(impl.configuration.private)))
    attacker_name = recipe.get("attacker")
    if attacker_name not in attackers:
        raise WitnessError(f"witness names unknown attacker {attacker_name!r}")
    impl_x = impl.configuration.with_part("E", attackers[attacker_name])
    roles = tuple(recipe.get("roles") or ())
    tests = {
        test.name: test
        for test in standard_testers(
            impl_x, Name(recipe.get("observe", "observe")), roles=roles
        )
    }
    test_name = recipe.get("test")
    if test_name not in tests:
        raise WitnessError(f"witness names unknown test {test_name!r}")
    return ReplaySetup(
        mode="system", initial=compose(impl_x, tests[test_name].tester)
    )
