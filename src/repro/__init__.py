"""repro — authentication primitives for protocol specifications.

A complete, executable reproduction of

    C. Bodei, P. Degano, R. Focardi, C. Priami.
    "Authentication Primitives for Protocol Specifications", PACT 2003.

The library implements the paper's extension of the spi calculus with
two authentication primitives:

* **partner authentication** — channels localized by *relative
  addresses* (``c@l``) or location variables (``c@lam``), pinned to one
  partner for a whole session by the abstract machine;
* **message authentication** — every datum carries the location of its
  creator, testable with the *address matching* operator ``[M =~ N]``.

On top of the calculus it provides the paper's verification story:
may-testing (Definition 3), secure implementation (Definition 4) over
attacker/tester families, barbed weak simulation (the proof technique of
Propositions 2 and 4), automatic attack search with narration
reconstruction, and an Alice&Bob narration compiler.

Quickstart::

    from repro import (
        Configuration, Name, abstract_protocol, crypto_protocol,
        securely_implements, standard_attackers,
    )

    c = Name("c")
    spec = Configuration(
        parts=(("P", abstract_protocol()),), private=(c,),
        subroles=(("P", (0,), "A"), ("P", (1,), "B")),
    )
    impl = Configuration(
        parts=(("P2", crypto_protocol()),), private=(c,),
        subroles=(("P2", (0,), "A"), ("P2", (1,), "B")),
    )
    verdict = securely_implements(impl, spec, standard_attackers([c]))
    assert verdict.secure
"""

from repro.core.lazy import lazy_exports

__version__ = "1.0.0"


def engine_version() -> str:
    """The engine stamp verdict-store records and witnesses carry:
    bumping ``__version__`` invalidates every stored verdict and every
    saved witness at once."""
    return __version__


# Every public name, served from its defining module on first access
# (see repro.core.lazy): ``import repro.semantics.lts`` loads the
# engine without the analysis, equivalence, protocol and service layers.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.addresses": "Location RelativeAddress",
    "repro.core.errors": "ReproError AddressError TermError ProcessError "
    "SubstitutionError ParseError SemanticsError InstantiationError "
    "BudgetExceededError NarrationError EquivalenceError",
    "repro.core.processes": "Nil Output Input Restriction Parallel Match "
    "AddrMatch Replication Case IntCase Split Channel LocVar Process chan "
    "parallel restrict",
    "repro.core.terms": "Name Var Pair SharedEnc Localized At Term enc names "
    "variables origin Zero Succ nat nat_value",
    "repro.semantics.system": "System instantiate build_system",
    "repro.semantics.transitions": "successors",
    "repro.semantics.lts": "Budget Graph explore reachable search ReachResult "
    "resume_exploration narrate",
    "repro.semantics.diagnostics": "statistics to_dot to_networkx GraphStatistics",
    "repro.semantics.actions": "Barb Comm Transition input_barb output_barb",
    "repro.runtime.exhaustion": "Exhaustion",
    "repro.runtime.deadline": "Deadline CancelToken RunControl governed",
    "repro.runtime.faults": "FaultPlan FaultInjector FaultError inject_faults",
    "repro.runtime.checkpoint": "Checkpoint CheckpointError load_checkpoint",
    "repro.runtime.escalation": "EscalationPolicy EscalationReport Attempt "
    "escalate explore_escalating",
    "repro.runtime.journal": "Journal JournalError read_journal journaled_results",
    "repro.runtime.worker": "Job JobError run_job",
    "repro.runtime.supervisor": "JobOutcome SuiteReport SupervisorError "
    "run_suite zoo_jobs",
    "repro.equivalence.barbs": "barbs exhibits converges",
    "repro.equivalence.testing": "Test Configuration compose part_locations "
    "passes may_preorder PreorderVerdict",
    "repro.equivalence.simulation": "weakly_simulated SimulationResult",
    "repro.analysis.knowledge": "Knowledge synthesizable",
    "repro.analysis.intruder": "standard_attackers forwarder replayer impersonator",
    "repro.analysis.attacks": "securely_implements find_attack Attack "
    "ImplementationVerdict origin_tester same_origin_tester standard_testers",
    "repro.analysis.secrecy": "keeps_secret SecrecyVerdict secrecy_protocol",
    "repro.analysis.properties": "authentication freshness PropertyVerdict "
    "Activation",
    "repro.analysis.sessions": "hooking_report communication_partners "
    "HookingReport",
    "repro.analysis.environment": "env_explore env_secrecy env_authentication "
    "env_freshness EnvVerdict",
    "repro.analysis.audit": "audit AuditReport",
    "repro.analysis.narration": "NarrationSpec Message ref pair_msg enc_msg "
    "compile_narration",
    "repro.protocols.startup": "startup m_startup",
    "repro.protocols.paper": "OBSERVE abstract_protocol plaintext_protocol "
    "crypto_protocol abstract_multisession crypto_multisession "
    "challenge_response_multisession",
    "repro.protocols.library": "wide_mouthed_frog nonce_handshake "
    "plain_transport encrypted_transport narration_configuration observer",
    "repro.protocols.reflection": "bidirectional_pm3 reflecting_attacker",
    "repro.protocols.zoo": "ZOO needham_schroeder_sk otway_rees yahalom woo_lam",
    "repro.syntax.parser": "parse_process parse_term parse_address",
    "repro.syntax.pretty": "render_process render_term",
    "repro.syntax.sysfile": "parse_system_file load_system_file SystemFile",
})
__all__ += ["__version__"]
