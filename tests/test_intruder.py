"""Tests for attacker construction: the canned suite."""

from __future__ import annotations

from repro.analysis.intruder import (
    eavesdropper,
    forwarder,
    impersonator,
    injector,
    persistent_forwarder,
    relay,
    replayer,
    standard_attackers,
)
from repro.core.processes import (
    Input,
    Output,
    Replication,
    Restriction,
    free_names,
    free_variables,
    walk,
)
from repro.core.terms import Name

c, d = Name("c"), Name("d")


def channels_touched(proc) -> set[str]:
    """Base names of all channels a process performs I/O on."""
    touched: set[str] = set()
    for node in walk(proc):
        if isinstance(node, (Input, Output)):
            subject = node.channel.subject
            if isinstance(subject, Name):
                touched.add(subject.base)
    return touched


class TestCannedAttackers:
    def test_eavesdropper_structure(self):
        e = eavesdropper(c, messages=2)
        assert isinstance(e, Input) and isinstance(e.continuation, Input)

    def test_forwarder_replays_n_times(self):
        f = forwarder(c, times=3)
        assert isinstance(f, Input)
        outs = 0
        node = f.continuation
        while isinstance(node, Output):
            outs += 1
            node = node.continuation
        assert outs == 3

    def test_replayer_is_double_forwarder(self):
        r = replayer(c)
        assert isinstance(r, Input)
        assert isinstance(r.continuation, Output)
        assert isinstance(r.continuation.continuation, Output)

    def test_impersonator_restricts_its_fake(self):
        i = impersonator(c)
        assert isinstance(i, Restriction)
        assert free_names(i) == {c}

    def test_injector(self):
        i = injector(c, d)
        assert isinstance(i, Output) and i.payload == d

    def test_relay_moves_between_channels(self):
        r = relay(c, d)
        assert channels_touched(r) == {"c", "d"}

    def test_persistent_forwarder_is_replicated(self):
        p = persistent_forwarder(c)
        assert isinstance(p, Replication)

    def test_standard_suite_stays_in_E_C(self):
        for name, attacker in standard_attackers([c, d]):
            assert channels_touched(attacker) <= {"c", "d"}, name
            assert free_variables(attacker) == frozenset(), name

    def test_standard_suite_contains_papers_attackers(self):
        names = [name for name, _ in standard_attackers([c])]
        assert "impersonate(c)" in names  # Section 5.1
        assert "replay(c)" in names      # Section 5.2

    def test_relay_pairs_for_multiple_channels(self):
        names = [name for name, _ in standard_attackers([c, d])]
        assert "relay(c->d)" in names and "relay(d->c)" in names
