"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.processes import Channel, Input, Nil, Output, Process, Restriction
from repro.core.terms import Name, Var, fresh_uid
from repro.equivalence.testing import Configuration
from repro.protocols.paper import (
    abstract_multisession,
    abstract_protocol,
    challenge_response_multisession,
    crypto_multisession,
    crypto_protocol,
    plaintext_protocol,
)
from repro.semantics.lts import Budget

#: Budgets tuned so the whole suite stays fast; integration tests that
#: need exhaustive negative answers get the larger one.
SMALL_BUDGET = Budget(max_states=300, max_depth=12)
MEDIUM_BUDGET = Budget(max_states=1500, max_depth=16)


@pytest.fixture
def small_budget() -> Budget:
    return SMALL_BUDGET


@pytest.fixture
def medium_budget() -> Budget:
    return MEDIUM_BUDGET


@pytest.fixture
def channel_c() -> Name:
    return Name("c")


def spec_single() -> Configuration:
    """The abstract single-session protocol P as a configuration."""
    return Configuration(
        parts=(("P", abstract_protocol()),),
        private=(Name("c"),),
        subroles=(("P", (0,), "A"), ("P", (1,), "B")),
    )


def impl_plaintext() -> Configuration:
    """The insecure plaintext protocol P1 as a configuration."""
    pair = plaintext_protocol()
    return Configuration(
        parts=(("A", pair.initiator), ("B", pair.responder)),
        private=(Name("c"),),
    )


def impl_crypto() -> Configuration:
    """The single-session crypto protocol P2 as a configuration."""
    return Configuration(
        parts=(("P2", crypto_protocol()),),
        private=(Name("c"),),
        subroles=(("P2", (0,), "A"), ("P2", (1,), "B")),
    )


def spec_multi() -> Configuration:
    """The abstract multisession protocol Pm."""
    return Configuration(
        parts=(("Pm", abstract_multisession()),),
        private=(Name("c"),),
        subroles=(("Pm", (0,), "!A"), ("Pm", (1,), "!B")),
    )


def impl_crypto_multi() -> Configuration:
    """The replay-broken multisession protocol Pm2."""
    return Configuration(
        parts=(("Pm2", crypto_multisession()),),
        private=(Name("c"),),
        subroles=(("Pm2", (0,), "!A"), ("Pm2", (1,), "!B")),
    )


def impl_challenge_response() -> Configuration:
    """The challenge-response multisession protocol Pm3."""
    return Configuration(
        parts=(("Pm3", challenge_response_multisession()),),
        private=(Name("c"),),
        subroles=(("Pm3", (0,), "!A"), ("Pm3", (1,), "!B")),
    )


def simple_sender(channel: Name, payload_name: str = "M") -> Process:
    """``(nu M) c<M>`` — one fresh message."""
    m = Name(payload_name)
    return Restriction(m, Output(Channel(channel), m, Nil()))


def simple_receiver(channel: Name, forward_to: Name | None = None) -> Process:
    """``c(x)`` optionally forwarding the message on another channel."""
    x = Var("x", fresh_uid())
    continuation: Process = Nil()
    if forward_to is not None:
        continuation = Output(Channel(forward_to), x, Nil())
    return Input(Channel(channel), x, continuation)


def suite_verdicts(records) -> dict:
    """``job id -> (status, holds, exact, violated)`` of journal-shaped
    result records: what the worker-parity tests compare."""
    return {
        rec["job"]: (
            rec["status"],
            rec["result"]["holds"],
            rec["result"]["exact"],
            rec["result"]["violated"],
        )
        for rec in records
    }


def in_process_verdicts(jobs) -> dict:
    """:func:`suite_verdicts` of ``jobs`` run one by one in this
    interpreter through the worker's own entry point, in whatever cache
    and reduction mode the caller has set."""
    from repro.runtime.supervisor import OK
    from repro.runtime.worker import run_job

    return suite_verdicts(
        {"job": job.id, "status": OK, "result": run_job(job)} for job in jobs
    )
