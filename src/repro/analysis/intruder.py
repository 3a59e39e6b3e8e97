"""Canned attackers over the protocol channels (the set ``E_C`` of Definition 4).

Definition 4 quantifies over *every* process that communicates only on
the protocol channels ``C``.  That set is not enumerable, so the
Definition-4 driver (:func:`repro.analysis.attacks.securely_implements`)
runs a finite suite of **canned attackers**: the standard manipulations
every protocol analysis exercises (eavesdrop, intercept, forward,
replay, impersonate, relay), including the two concrete attackers the
paper uses in its counterexamples.

The canned suite cannot *prove* Definition 4.  Every negative verdict
comes with a concrete witness attack; positive verdicts are backed by
the simulation technique of Propositions 2/4 and by the
knowledge-indexed most-general attacker
(:mod:`repro.analysis.environment`), whose one exploration covers every
attacker within its synthesis bound.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.processes import (
    Channel,
    Input,
    Nil,
    Output,
    Process,
    Replication,
    Restriction,
)
from repro.core.terms import Name, Term, Var, fresh_uid

# ----------------------------------------------------------------------
# Canned attackers
# ----------------------------------------------------------------------


def idle() -> Process:
    """The empty environment — every protocol must at least survive it."""
    return Nil()


def eavesdropper(channel: Name, messages: int = 1) -> Process:
    """Absorb ``messages`` messages and stop (a message-killing sink)."""
    proc: Process = Nil()
    for _ in range(messages):
        proc = Input(Channel(channel), Var("e", fresh_uid()), proc)
    return proc


def forwarder(channel: Name, times: int = 1) -> Process:
    """Intercept one message and re-send it ``times`` times.

    With ``times=2`` this is exactly the replay attacker of Section 5.2:
    ``E = c(x). c<x>. c<x>`` — it intercepts ``{M}KAB`` and delivers it
    to two different responder instances.
    """
    x = Var("x", fresh_uid())
    proc: Process = Nil()
    for _ in range(times):
        proc = Output(Channel(channel), x, proc)
    return Input(Channel(channel), x, proc)


def replayer(channel: Name) -> Process:
    """The paper's replay attacker: intercept once, deliver twice."""
    return forwarder(channel, times=2)


def impersonator(channel: Name, spoofed: str = "ME") -> Process:
    """Send one fresh message, pretending to be a legitimate sender.

    This is the Section 5.1 attacker ``E = (nu ME) c<ME>`` behind the
    attack ``Message 1  E(A) -> B : ME``.
    """
    me = Name(spoofed)
    return Restriction(me, Output(Channel(channel), me, Nil()))


def injector(channel: Name, message: Term) -> Process:
    """Send a chosen message once."""
    return Output(Channel(channel), message, Nil())


def relay(source: Name, target: Name) -> Process:
    """Move one message from one channel to another."""
    x = Var("x", fresh_uid())
    return Input(Channel(source), x, Output(Channel(target), x, Nil()))


def persistent_forwarder(channel: Name) -> Process:
    """``!c(x).c<x>`` — an unbounded store-and-forward medium."""
    x = Var("x", fresh_uid())
    return Replication(Input(Channel(channel), x, Output(Channel(channel), x, Nil())))


def standard_attackers(channels: Sequence[Name]) -> list[tuple[str, Process]]:
    """The canned attacker suite for a set of protocol channels."""
    attackers: list[tuple[str, Process]] = [("idle", idle())]
    for ch in channels:
        tag = ch.base
        attackers.extend(
            [
                (f"eavesdrop({tag})", eavesdropper(ch)),
                (f"intercept2({tag})", eavesdropper(ch, messages=2)),
                (f"forward({tag})", forwarder(ch)),
                (f"replay({tag})", replayer(ch)),
                (f"impersonate({tag})", impersonator(ch)),
            ]
        )
    for src in channels:
        for dst in channels:
            if src != dst:
                attackers.append((f"relay({src.base}->{dst.base})", relay(src, dst)))
    return attackers
