"""Fault-injection tests: graceful degradation of every verdict path.

The acceptance bar for the resilient runtime: with faults injected into
the engine's hot primitives (``successors()``, canonicalization), every
verdict — may-testing, simulation, the trace
properties, secrecy, the environment semantics — reports itself as
qualified/inconclusive.  Nothing raises, and nothing silently claims
exactness it does not have.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.environment import env_explore, env_secrecy
from repro.analysis.properties import authentication, freshness
from repro.analysis.secrecy import keeps_secret
from repro.core.terms import Name
from repro.equivalence.simulation import weakly_simulated
from repro.equivalence.testing import may_preorder, passes, passes_result
from repro.analysis.attacks import securely_implements, standard_testers
from repro.analysis.intruder import replayer
from repro.protocols.paper import OBSERVE
from repro.runtime.deadline import Deadline, RunControl
from repro.runtime.exhaustion import DEADLINE, FAULT
from repro.runtime.faults import (
    CANONICAL,
    FaultError,
    FaultPlan,
    SUCCESSORS,
    fault_hook,
    inject_faults,
)
from repro.semantics.lts import Budget, explore
from repro.equivalence.testing import compose

from tests.conftest import SMALL_BUDGET, impl_crypto, spec_multi, spec_single

#: Enough failures to guarantee any exploration trips at least one.
EVERY_OTHER = FaultPlan(every=2)


class TestInjection:
    def test_hook_is_noop_without_a_plan(self):
        fault_hook(SUCCESSORS)  # must not raise

    def test_injector_counts_calls_and_failures(self):
        with inject_faults(FaultPlan(fail_at=(1, 3))) as injector:
            for expected in (True, False, True):
                if expected:
                    with pytest.raises(FaultError):
                        fault_hook(SUCCESSORS)
                else:
                    fault_hook(SUCCESSORS)
        assert injector.calls == 3
        assert injector.failures == 2

    def test_sites_filter(self):
        with inject_faults(FaultPlan(fail_at=(1,), sites=frozenset({CANONICAL}))) as injector:
            fault_hook(SUCCESSORS)  # not a live site: ignored entirely
            with pytest.raises(FaultError):
                fault_hook(CANONICAL)
        assert injector.calls == 1

    def test_seeded_failure_rate_is_reproducible(self):
        def run() -> list[bool]:
            hits = []
            with inject_faults(FaultPlan(failure_rate=0.5, seed=42)):
                for _ in range(20):
                    try:
                        fault_hook(SUCCESSORS)
                        hits.append(False)
                    except FaultError:
                        hits.append(True)
            return hits

        first, second = run(), run()
        assert first == second
        assert any(first) and not all(first)

    def test_plan_deactivates_after_the_block(self):
        with inject_faults(FaultPlan(every=1)):
            pass
        graph = explore(compose(spec_single()), SMALL_BUDGET)
        assert graph.exhaustion is None  # no lingering injection


class TestExploreUnderFaults:
    def test_fault_qualifies_exploration(self):
        with inject_faults(FaultPlan(fail_at=(2,))) as injector:
            graph = explore(compose(spec_single()), SMALL_BUDGET)
        assert injector.failures == 1
        assert graph.exhaustion is not None
        assert FAULT in graph.exhaustion.reasons
        assert "injected fault" in (graph.exhaustion.detail or "")
        # The faulted state stays on the frontier, resumable.
        assert graph.pending

    def test_faulted_state_recovers_on_resume(self):
        from repro.semantics.lts import resume_exploration

        system = compose(spec_single())
        with inject_faults(FaultPlan(fail_at=(2,))):
            partial = explore(system, SMALL_BUDGET)
        resumed = resume_exploration(partial, SMALL_BUDGET)
        clean = explore(system, SMALL_BUDGET)
        assert set(resumed.states) == set(clean.states)
        assert resumed.exhaustion is None

    def test_canonicalization_fault_is_recoverable(self):
        system = compose(spec_single())
        plan = FaultPlan(fail_at=(2,), sites=frozenset({CANONICAL}))
        with inject_faults(plan):
            graph = explore(system, SMALL_BUDGET)
        assert graph.exhaustion is not None
        assert FAULT in graph.exhaustion.reasons

    def test_latency_plus_deadline(self):
        control = RunControl(deadline=Deadline.after(0.01))
        with inject_faults(FaultPlan(latency=0.02)):
            graph = explore(compose(spec_multi()), SMALL_BUDGET, control)
        assert graph.exhaustion is not None
        assert DEADLINE in graph.exhaustion.reasons


class TestVerdictsDegradeGracefully:
    """Every verdict path: qualified, never raising, never over-claiming."""

    def test_passes_reports_inconclusive(self):
        config = spec_single().with_part("E", replayer(Name("c")))
        test = standard_testers(config, OBSERVE, roles=("A",))[0]
        with inject_faults(FaultPlan(every=1)):
            result = passes_result(config, test, SMALL_BUDGET)
        assert not result.found
        assert not result.exhaustive
        assert FAULT in result.exhaustion.reasons
        with inject_faults(FaultPlan(every=1)):
            passed, exhaustive = passes(config, test, SMALL_BUDGET)
        assert (passed, exhaustive) == (False, False)

    def test_may_preorder_qualified(self):
        left = spec_single().with_part("E", replayer(Name("c")))
        right = impl_crypto().with_part("E", replayer(Name("c")))
        tests = standard_testers(left, OBSERVE, roles=("A",))
        with inject_faults(EVERY_OTHER):
            verdict = may_preorder(left, right, tests, SMALL_BUDGET)
        assert not verdict.exhaustive
        assert verdict.exhaustion is not None

    def test_weakly_simulated_qualified(self):
        left = compose(impl_crypto())
        right = compose(spec_single())
        with inject_faults(EVERY_OTHER):
            result = weakly_simulated(left, right, SMALL_BUDGET)
        assert result.truncated
        assert FAULT in result.exhaustion.reasons

    def test_authentication_qualified(self):
        with inject_faults(EVERY_OTHER):
            verdict = authentication(spec_single(), "A", budget=SMALL_BUDGET)
        assert not verdict.exhaustive
        assert verdict.exhaustion is not None

    def test_freshness_qualified(self):
        with inject_faults(EVERY_OTHER):
            verdict = freshness(spec_multi(), budget=SMALL_BUDGET)
        assert not verdict.exhaustive
        assert verdict.exhaustion is not None

    def test_keeps_secret_qualified(self):
        config = impl_crypto().with_part("E", replayer(Name("c")))
        with inject_faults(EVERY_OTHER):
            verdict = keeps_secret(config, "M", budget=SMALL_BUDGET)
        assert not verdict.exhaustive
        assert verdict.exhaustion is not None

    def test_securely_implements_qualified(self):
        with inject_faults(EVERY_OTHER):
            verdict = securely_implements(
                impl_crypto(),
                spec_single(),
                [("replay", replayer(Name("c")))],
                budget=SMALL_BUDGET,
            )
        assert not verdict.exhaustive
        assert verdict.exhaustion is not None

    def test_env_explore_qualified(self):
        with inject_faults(FaultPlan(fail_at=(3,))):
            graph = env_explore(spec_single(), budget=SMALL_BUDGET)
        assert graph.truncated
        assert FAULT in graph.exhaustion.reasons

    def test_env_secrecy_qualified(self):
        with inject_faults(EVERY_OTHER):
            verdict = env_secrecy(impl_crypto(), "M", budget=SMALL_BUDGET)
        assert not verdict.exhaustive
        assert verdict.exhaustion is not None


class TestWitnessesUnderFaults:
    """Violating verdicts under injected faults: the witness is read off
    the verdict's own (faulted) exploration, so nothing raises, and any
    witness that is produced is a run the replay checker accepts."""

    SYSTEMS = os.path.join(os.path.dirname(__file__), "..", "examples", "systems")
    P1 = os.path.normpath(os.path.join(SYSTEMS, "p1_impl.spi"))
    P_SPEC = os.path.normpath(os.path.join(SYSTEMS, "p_spec.spi"))

    JOBS = {
        "env-secrecy": dict(kind="secrecy", target={"sysfile": P1}, secret="M"),
        "env-authentication": dict(
            kind="authentication", target={"sysfile": P1}, sender="A"
        ),
        "check-attack": dict(kind="check", target={"impl": P1, "spec": P_SPEC}),
        "zoo-secrecy": dict(
            kind="secrecy", target={"zoo": "needham-schroeder-sk"}, secret="NA"
        ),
    }

    @pytest.mark.parametrize("every", [3, 2])
    @pytest.mark.parametrize("name", sorted(JOBS))
    def test_violation_degrades_or_replays(self, name, every):
        from repro.runtime.worker import Job, run_job
        from repro.semantics.replay import replay_witness

        job = Job(id=f"faults:{name}", max_states=2000, max_depth=24, **self.JOBS[name])
        with inject_faults(FaultPlan(every=every)):
            result = run_job(job)
        witness = result.get("witness")
        assert not result["exact"] or witness is not None, result["summary"]
        if witness is not None:
            # Replayed outside the fault plan: the checker's own
            # successor calls must not be the ones failing.
            report = replay_witness(witness)
            assert report.ok, report.describe()
