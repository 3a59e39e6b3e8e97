"""Independent witness replay — the deliberately small trusted core.

A :class:`~repro.analysis.witness.Witness` claims that a concrete run
from the initial system ends in a state where the recorded property is
violated.  This module re-derives that claim from scratch:

* the initial system is rebuilt from the sealed recipe, not taken from
  the producer;
* every step is matched against the **unreduced, uncached** transition
  relation — ``successors``/``env_successors`` *are* the raw full
  relation in every reduction mode (symmetry merging only touches state
  keys, which replay never computes), and replay runs with the
  canonical state cache disabled;
* the violated property is re-checked at the end of the trace by the
  minimal predicates below, which share no code with the verdict
  producers in :mod:`repro.analysis`.

Because restricted-name uids are process-local, steps are matched by
uid-free :func:`~repro.analysis.witness.term_shape` signatures; shape
ambiguity is resolved by a bounded backtracking search over the step
sequence.  A failed replay is a certification failure
(:class:`CertificationError` at the enforcement layer), never a silent
wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.addresses import is_prefix
from repro.core.errors import ReproError, TermError
from repro.core.terms import Name, localize, origin
from repro.semantics import canonical
from repro.semantics.actions import Comm, output_barb
from repro.semantics.transitions import pending_actions, successors


class CertificationError(ReproError):
    """A violation verdict could not be independently certified."""


#: Default cap on transition expansions during one replay; a witness is
#: a straight-line trace, so this is generous slack for backtracking.
DEFAULT_MAX_NODES = 50_000


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one independent replay."""

    ok: bool
    kind: str = ""
    steps: int = 0
    matched: int = 0
    reason: Optional[str] = None

    def describe(self) -> str:
        if self.ok:
            return (
                f"witness certified: {self.kind} violation re-derived over "
                f"{self.steps} unreduced step(s)"
            )
        return f"witness rejected: {self.reason}"

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "kind": self.kind,
            "steps": self.steps,
            "matched": self.matched,
            "reason": self.reason,
        }


def _shape_matches(recorded: Any, action: Comm) -> bool:
    from repro.analysis.witness import term_shape

    return (
        term_shape(action.channel) == recorded["ch"]
        and term_shape(action.value) == recorded["val"]
        and list(action.sender) == list(recorded["s"])
        and list(action.receiver) == list(recorded["r"])
    )


class _Exhausted(Exception):
    """Replay search exceeded its node budget."""


class _Replayer:
    """Bounded backtracking matcher over the raw transition relation."""

    def __init__(self, setup, steps: Sequence[Mapping], max_nodes: int) -> None:
        self.setup = setup
        self.steps = steps
        self.remaining = max_nodes
        self.deepest = 0

    def _spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise _Exhausted()

    def run(self):
        """Return (final state, matched plain actions) or None."""
        if self.setup.mode == "env":
            return self._match_env(self.setup.initial, 0, ())
        return self._match_system(self.setup.initial, 0, ())

    def _match_system(self, state, index: int, actions: tuple):
        self.deepest = max(self.deepest, index)
        if index == len(self.steps):
            return state, actions
        recorded = self.steps[index]
        if "env" in recorded:
            return None  # env step inside a plain-semantics witness
        for transition in successors(state):
            self._spend()
            if not _shape_matches(recorded, transition.action):
                continue
            found = self._match_system(
                transition.target, index + 1, (*actions, transition.action)
            )
            if found is not None:
                return found
        return None

    def _match_env(self, state, index: int, actions: tuple):
        from repro.analysis.environment import env_successors

        self.deepest = max(self.deepest, index)
        if index == len(self.steps):
            return state, actions
        recorded = self.steps[index]
        kind = recorded.get("env")
        if kind is None:
            return None  # plain step inside an environment witness
        for step in env_successors(
            state, self.setup.env_loc, self.setup.channels, self.setup.synth_depth
        ):
            self._spend()
            if step.kind != kind or not _shape_matches(recorded, step.action):
                continue
            found = self._match_env(step.target, index + 1, (*actions, step.action))
            if found is not None:
                return found
        return None


# ----------------------------------------------------------------------
# Final property checks — minimal, producer-independent
# ----------------------------------------------------------------------


def _observe_escapes(state, observe_base: str):
    """(value, act_loc) for each activated observation in ``state``."""
    escapes = []
    for action in pending_actions(state):
        if not action.is_output or action.channel_subject.base != observe_base:
            continue
        try:
            value = localize(action.payload, action.act_loc)
        except TermError:
            continue
        escapes.append((value, action.act_loc))
    return escapes


def _final_secrecy(witness, state, actions) -> Optional[str]:
    from repro.analysis.knowledge import Knowledge

    spy = witness.prop.get("spy", "E")
    secret = witness.prop.get("secret")
    try:
        spy_loc = state.location_of(spy)
    except ReproError as err:
        return f"cannot locate spy {spy!r}: {err}"
    heard = tuple(
        action.value for action in actions if is_prefix(spy_loc, action.receiver)
    )
    knowledge = Knowledge.from_terms(heard)
    for name in state.private:
        if name.base == secret and name.uid is not None and knowledge.can_derive(name):
            return None
    return f"final state does not leak a secret named {secret!r} to {spy!r}"


def _final_authentication(witness, state, actions) -> Optional[str]:
    sender = witness.prop.get("sender")
    observe = witness.prop.get("observe", "observe")
    try:
        sender_loc = state.location_of(sender)
    except ReproError as err:
        return f"cannot locate sender {sender!r}: {err}"
    for value, _ in _observe_escapes(state, observe):
        creator = origin(value)
        if creator is None or not is_prefix(sender_loc, creator):
            return None
    return f"final state holds no observation foreign to sender {sender!r}"


def _final_freshness(witness, state, actions) -> Optional[str]:
    observe = witness.prop.get("observe", "observe")
    per_creator: dict = {}
    for value, act_loc in _observe_escapes(state, observe):
        creator = origin(value)
        if creator is None:
            continue
        previous = per_creator.get(creator)
        if previous is not None and previous != act_loc:
            return None
        per_creator[creator] = act_loc
    return "final state holds no replayed observation"


def _final_env_secrecy(witness, env_state, actions) -> Optional[str]:
    secret = witness.prop.get("secret")
    for name in env_state.system.private:
        if name.base == secret and env_state.knowledge.can_derive(name):
            return None
    return f"final environment knowledge does not derive a secret named {secret!r}"


def _final_attack(witness, state, actions) -> Optional[str]:
    barb = witness.prop.get("barb")
    if not isinstance(barb, str):
        return f"attack witness names no barb channel: {barb!r}"
    from repro.equivalence.barbs import exhibits

    if exhibits(state, output_barb(Name(barb))):
        return None
    return f"final state does not exhibit the success barb {barb!r}"


_FINAL_CHECKS = {
    "secrecy": _final_secrecy,
    "authentication": _final_authentication,
    "freshness": _final_freshness,
    "attack": _final_attack,
}


def _final_env(witness, env_state, actions) -> Optional[str]:
    if witness.kind == "env-secrecy":
        return _final_env_secrecy(witness, env_state, actions)
    if witness.kind == "env-authentication":
        return _final_authentication(witness, env_state.system, actions)
    if witness.kind == "env-freshness":
        return _final_freshness(witness, env_state.system, actions)
    return f"unknown environment witness kind {witness.kind!r}"


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def replay_witness(
    data: Union[Mapping, "Witness"], max_nodes: int = DEFAULT_MAX_NODES
) -> ReplayReport:
    """Independently validate a witness end to end.

    Validates structure, checksum, and engine stamp; rebuilds the
    initial system from the sealed recipe; re-derives every step against
    the raw transition relation (state cache disabled); and re-checks
    the violated property at the trace end.
    Never raises for an invalid witness — the report says why.
    """
    from repro import engine_version
    from repro.analysis.witness import Witness, WitnessError

    try:
        witness = data if isinstance(data, Witness) else Witness.from_json(data)
    except WitnessError as err:
        return ReplayReport(ok=False, reason=str(err))
    report = ReplayReport(ok=False, kind=witness.kind, steps=len(witness.steps))
    if not witness.verify_checksum():
        return _fail(report, "checksum mismatch: witness payload was altered")
    if witness.engine != engine_version():
        return _fail(
            report,
            f"engine mismatch: witness from {witness.engine!r}, "
            f"this engine is {engine_version()!r}",
        )
    try:
        from repro.analysis.witness import rebuild_initial

        setup = rebuild_initial(witness)
    except WitnessError as err:
        return _fail(report, str(err))
    if (setup.mode == "env") != witness.kind.startswith("env-"):
        return _fail(report, "witness kind does not match its system recipe mode")

    replayer = _Replayer(setup, witness.steps, max_nodes)
    cache_was_enabled = canonical.set_cache_enabled(False)
    try:
        try:
            found = replayer.run()
        except _Exhausted:
            return _fail(
                report,
                f"replay budget exhausted after matching "
                f"{replayer.deepest}/{len(witness.steps)} step(s)",
                matched=replayer.deepest,
            )
        if found is None:
            return _fail(
                report,
                f"step {replayer.deepest + 1}/{len(witness.steps)} has no "
                f"matching unreduced transition",
                matched=replayer.deepest,
            )
        final_state, actions = found
        if setup.mode == "env":
            failure = _final_env(witness, final_state, actions)
        else:
            check = _FINAL_CHECKS.get(witness.kind)
            if check is None:
                failure = f"unknown witness kind {witness.kind!r}"
            else:
                failure = check(witness, final_state, actions)
    finally:
        canonical.set_cache_enabled(cache_was_enabled)
    if failure is not None:
        return _fail(report, failure, matched=len(witness.steps))
    return ReplayReport(
        ok=True,
        kind=witness.kind,
        steps=len(witness.steps),
        matched=len(witness.steps),
    )


def _fail(report: ReplayReport, reason: str, matched: int = 0) -> ReplayReport:
    return ReplayReport(
        ok=False,
        kind=report.kind,
        steps=report.steps,
        matched=matched,
        reason=reason,
    )


def replay_result(result: Mapping, max_nodes: int = DEFAULT_MAX_NODES) -> ReplayReport:
    """Replay the witness attached to a verdict result payload."""
    witness = result.get("witness")
    if witness is None:
        return ReplayReport(
            ok=False, reason="violation verdict carries no witness to replay"
        )
    return replay_witness(witness, max_nodes=max_nodes)
