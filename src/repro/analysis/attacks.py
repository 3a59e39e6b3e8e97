"""The Definition-4 driver: secure implementation checking & attack search.

``P securely implements P'`` (Definition 4) iff for every attacker ``X``
over the protocol channels, ``(nu C)(P | X) <=may (nu C)(P' | X)``.
This module checks the property over finite attacker and tester
families, and — when it fails — reconstructs a human-readable *attack
narration* in the paper's ``Message 1  E(A) -> B : ...`` style from the
distinguishing run.

Positive verdicts are additionally cross-checkable with the barbed weak
simulation of :mod:`repro.equivalence.simulation` (the technique the
paper uses to *prove* Propositions 2 and 4); :func:`securely_implements`
runs both when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.addresses import RelativeAddress
from repro.core.processes import AddrMatch, Channel, Input, Nil, Output, Process
from repro.core.terms import At, Name, Var, fresh_uid
from repro.equivalence.simulation import SimulationResult, weakly_simulated
from repro.equivalence.testing import (
    Configuration,
    Test,
    compose,
    part_locations,
    passes_result,
)
from repro.runtime.deadline import RunControl
from repro.runtime.exhaustion import Exhaustion
from repro.semantics.actions import Transition, output_barb
from repro.semantics.lts import Budget, DEFAULT_BUDGET, narrate

if TYPE_CHECKING:
    from repro.analysis.witness import Witness

#: The default success channel testers signal on.
SUCCESS = Name("omega")


# ----------------------------------------------------------------------
# Tester generation
# ----------------------------------------------------------------------


def origin_tester(
    observe: Name, address: RelativeAddress, success: Name = SUCCESS
) -> Process:
    """``observe(z). [z =~ l] omega<ok>`` — "the datum came from ``l``".

    The tester of Section 5.1: it detects that the continuation was fed
    a message originating at a given location (e.g. the attacker's).
    """
    z = Var("z", fresh_uid())
    return Input(
        Channel(observe),
        z,
        AddrMatch(z, At(address), Output(Channel(success), Name("ok"), Nil())),
    )


def same_origin_tester(observe: Name, success: Name = SUCCESS) -> Process:
    """``observe(x). observe(y). [x =~ y] omega<ok>``.

    The tester of Section 5.2: it detects that two accepted messages
    share a creator — the signature of a replay.
    """
    x = Var("x", fresh_uid())
    y = Var("y", fresh_uid())
    return Input(
        Channel(observe),
        x,
        Input(
            Channel(observe),
            y,
            AddrMatch(x, y, Output(Channel(success), Name("ok"), Nil())),
        ),
    )


def standard_testers(
    config: Configuration,
    observe: Name,
    roles: Sequence[str],
    success: Name = SUCCESS,
) -> list[Test]:
    """The paper's tester family for a configuration.

    One origin tester per named role (is the delivered message really
    from ``A``? could it be from ``E``?...) plus the same-origin replay
    detector.  Address literals are computed for the composed tree
    shape, so the configurations compared against each other must share
    their part layout.
    """
    table = part_locations(config, with_tester=True)
    tester_loc = table["T"]
    tests: list[Test] = []
    for role in roles:
        address = RelativeAddress.between(observer=tester_loc, target=table[role])
        tests.append(
            Test(
                name=f"origin-is-{role}",
                tester=origin_tester(observe, address, success),
                barb=output_barb(success),
            )
        )
    tests.append(
        Test(
            name="same-origin-twice",
            tester=same_origin_tester(observe, success),
            barb=output_barb(success),
        )
    )
    return tests


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Attack:
    """A found implementation flaw, with its reconstructed narration.

    ``witness`` is the same distinguishing run in machine-checkable
    form (unsealed: the caller that knows how ``impl`` was built must
    seal it with a system recipe before serializing).  It covers the
    implementation side of Definition 4 only — that the tester's success
    barb is reachable; the specification side's *absence* of such a run
    is the search's claim and not replayable from one trace.
    """

    attacker_name: str
    attacker: Process
    test: Test
    narration: tuple[str, ...]
    witness: Optional["Witness"] = None

    def describe(self) -> str:
        lines = [
            f"attack with attacker {self.attacker_name!r}, "
            f"distinguishing test {self.test.name!r}:"
        ]
        lines.extend(f"  {line}" for line in self.narration)
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class ImplementationVerdict:
    """Outcome of a bounded Definition-4 check.

    ``secure`` means no attacker/tester pair in the families could
    distinguish the implementation from the specification.  The verdict
    carries how much was checked; ``exhaustive`` is False when some
    exploration hit its budget.
    """

    secure: bool
    attackers_checked: int
    tests_checked: int
    exhaustive: bool
    attack: Optional[Attack] = None
    simulations: tuple[SimulationResult, ...] = ()
    exhaustion: Optional[Exhaustion] = None

    def describe(self) -> str:
        if self.secure:
            if self.exhaustive:
                qualifier = ""
            elif self.exhaustion is not None:
                qualifier = f" (budget-limited: {'+'.join(self.exhaustion.reasons)})"
            else:
                qualifier = " (budget-limited)"
            return (
                f"securely implements: no distinguishing attack among "
                f"{self.attackers_checked} attackers x {self.tests_checked} "
                f"tests{qualifier}"
            )
        assert self.attack is not None
        return "NOT a secure implementation:\n" + self.attack.describe()


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _narrate_attack(
    config: Configuration, test: Test, trace: list[Transition]
) -> tuple[tuple[str, ...], "Witness"]:
    """The distinguishing run of ``config | tester`` — the trace the
    passing test search found — as the role-named narration plus the
    machine-checkable witness."""
    from repro.analysis.witness import attack_witness

    system = compose(config, test.tester)
    witness = attack_witness(system, trace, test.name, test.barb.channel.base)
    return tuple(narrate(system, trace)), witness


def securely_implements(
    impl: Configuration,
    spec: Configuration,
    attackers: Sequence[tuple[str, Process]],
    tests: Optional[Sequence[Test]] = None,
    observe: Name = Name("observe"),
    roles: Sequence[str] = ("A", "B", "E"),
    budget: Budget = DEFAULT_BUDGET,
    check_simulation: bool = False,
    control: Optional[RunControl] = None,
) -> ImplementationVerdict:
    """Check Definition 4 over attacker and tester families.

    ``impl`` and ``spec`` are configurations *without* the attacker part;
    each attacker is composed in as role ``E``.  When ``tests`` is not
    given, the paper's standard tester family is generated per attacker
    (origin testers for ``roles`` plus the replay detector).

    With ``check_simulation=True`` a barbed-weak-simulation check of
    ``(nu C)(impl | X)`` against ``(nu C)(spec | X)`` is also run for
    every attacker and included in the verdict — the paper's positive
    proof technique, independent of the tester family.
    """
    from repro.obs.metrics import current_metrics

    tests_count = 0
    exhaustions: list[Optional[Exhaustion]] = []
    simulations: list[SimulationResult] = []
    metrics = current_metrics()
    if metrics is not None:
        metrics.inc("check.runs")
        metrics.inc("check.attackers", len(attackers))
    for attacker_name, attacker in attackers:
        impl_x = impl.with_part("E", attacker)
        spec_x = spec.with_part("E", attacker)
        suite = (
            list(tests)
            if tests is not None
            else standard_testers(impl_x, observe, roles=roles)
        )
        tests_count = max(tests_count, len(suite))
        for test in suite:
            impl_result = passes_result(impl_x, test, budget, control)
            exhaustions.append(impl_result.exhaustion)
            if not impl_result.found:
                continue
            spec_result = passes_result(spec_x, test, budget, control)
            exhaustions.append(spec_result.exhaustion)
            if spec_result.found:
                continue
            narration, witness = _narrate_attack(impl_x, test, impl_result.trace)
            attack = Attack(
                attacker_name=attacker_name,
                attacker=attacker,
                test=test,
                narration=narration,
                witness=witness,
            )
            return ImplementationVerdict(
                secure=False,
                attackers_checked=len(attackers),
                tests_checked=tests_count,
                exhaustive=spec_result.exhaustive,
                attack=attack,
                exhaustion=spec_result.exhaustion,
            )
        if check_simulation:
            simulations.append(
                weakly_simulated(compose(impl_x), compose(spec_x), budget, control)
            )
    sim_ok = all(s.holds for s in simulations)
    merged = Exhaustion.merge(*exhaustions, *(s.exhaustion for s in simulations))
    return ImplementationVerdict(
        secure=sim_ok,
        attackers_checked=len(attackers),
        tests_checked=tests_count,
        exhaustive=merged is None,
        simulations=tuple(simulations),
        exhaustion=merged,
    )


def find_attack(
    impl: Configuration,
    spec: Configuration,
    attackers: Sequence[tuple[str, Process]],
    observe: Name = Name("observe"),
    roles: Sequence[str] = ("A", "B", "E"),
    budget: Budget = DEFAULT_BUDGET,
) -> Optional[Attack]:
    """Search the attacker family for a distinguishing attack."""
    verdict = securely_implements(
        impl, spec, attackers, observe=observe, roles=roles, budget=budget
    )
    return verdict.attack
