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

from repro.core.addresses import Location, RelativeAddress
from repro.core.errors import (
    AddressError,
    BudgetExceededError,
    EquivalenceError,
    InstantiationError,
    NarrationError,
    ParseError,
    ProcessError,
    ReproError,
    SemanticsError,
    SubstitutionError,
    TermError,
)
from repro.core.processes import (
    AddrMatch,
    Case,
    Channel,
    Input,
    IntCase,
    LocVar,
    Match,
    Nil,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
    Split,
    chan,
    parallel,
    restrict,
)
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
    enc,
    names,
    nat,
    nat_value,
    origin,
    variables,
)
from repro.analysis.attacks import (
    Attack,
    ImplementationVerdict,
    find_attack,
    origin_tester,
    same_origin_tester,
    securely_implements,
    standard_testers,
)
from repro.analysis.intruder import (
    forwarder,
    impersonator,
    replayer,
    standard_attackers,
)
from repro.analysis.knowledge import Knowledge, synthesizable
from repro.analysis.properties import (
    Activation,
    PropertyVerdict,
    authentication,
    freshness,
)
from repro.analysis.audit import AuditReport, audit
from repro.analysis.environment import (
    EnvVerdict,
    env_authentication,
    env_explore,
    env_freshness,
    env_secrecy,
)
from repro.analysis.secrecy import SecrecyVerdict, keeps_secret, secrecy_protocol
from repro.analysis.sessions import HookingReport, communication_partners, hooking_report
from repro.analysis.narration import (
    Message,
    NarrationSpec,
    compile_narration,
    enc_msg,
    pair_msg,
    ref,
)
from repro.equivalence.barbs import barbs, converges, exhibits
from repro.equivalence.simulation import (
    SimulationResult,
    weakly_simulated,
)
from repro.equivalence.testing import (
    Configuration,
    PreorderVerdict,
    Test,
    compose,
    may_preorder,
    part_locations,
    passes,
)
from repro.runtime import (
    Attempt,
    CancelToken,
    Checkpoint,
    CheckpointError,
    Deadline,
    EscalationPolicy,
    EscalationReport,
    Exhaustion,
    FaultError,
    FaultInjector,
    FaultPlan,
    Job,
    JobError,
    JobOutcome,
    Journal,
    JournalError,
    RunControl,
    SuiteReport,
    SupervisorError,
    escalate,
    explore_escalating,
    governed,
    inject_faults,
    journaled_results,
    load_checkpoint,
    read_journal,
    run_job,
    run_suite,
    zoo_jobs,
)
from repro.protocols.library import (
    encrypted_transport,
    narration_configuration,
    nonce_handshake,
    observer,
    plain_transport,
    wide_mouthed_frog,
)
from repro.protocols.paper import (
    OBSERVE,
    abstract_multisession,
    abstract_protocol,
    challenge_response_multisession,
    crypto_multisession,
    crypto_protocol,
    plaintext_protocol,
)
from repro.protocols.reflection import bidirectional_pm3, reflecting_attacker
from repro.protocols.zoo import ZOO, needham_schroeder_sk, otway_rees, woo_lam, yahalom
from repro.protocols.startup import m_startup, startup
from repro.semantics.actions import Barb, Comm, Transition, input_barb, output_barb
from repro.semantics.lts import (
    Budget,
    Graph,
    ReachResult,
    explore,
    narrate,
    reachable,
    resume_exploration,
    search,
)
from repro.semantics.diagnostics import GraphStatistics, statistics, to_dot, to_networkx
from repro.semantics.system import System, build_system, instantiate
from repro.semantics.transitions import successors
from repro.syntax.parser import parse_address, parse_process, parse_term
from repro.syntax.sysfile import SystemFile, load_system_file, parse_system_file
from repro.syntax.pretty import render_process, render_term

__version__ = "1.0.0"

__all__ = [
    # core
    "Location", "RelativeAddress", "Name", "Var", "Pair", "SharedEnc",
    "Localized", "At", "Term", "enc", "names", "variables", "origin",
    "Zero", "Succ", "nat", "nat_value",
    "Nil", "Output", "Input", "Restriction", "Parallel", "Match",
    "AddrMatch", "Replication", "Case", "IntCase", "Split", "Channel",
    "LocVar",
    "Process", "chan", "parallel", "restrict",
    # errors
    "ReproError", "AddressError", "TermError", "ProcessError",
    "SubstitutionError", "ParseError", "SemanticsError",
    "InstantiationError", "BudgetExceededError", "NarrationError",
    "EquivalenceError",
    # semantics
    "System", "instantiate", "build_system", "successors", "Budget",
    "Graph", "explore", "reachable", "search", "ReachResult",
    "resume_exploration", "narrate",
    "statistics", "to_dot", "to_networkx", "GraphStatistics",
    "Barb", "Comm", "Transition", "input_barb", "output_barb",
    # runtime
    "Exhaustion", "Deadline", "CancelToken", "RunControl", "governed",
    "FaultPlan", "FaultInjector", "FaultError", "inject_faults",
    "Checkpoint", "CheckpointError", "load_checkpoint",
    "EscalationPolicy", "EscalationReport", "Attempt", "escalate",
    "explore_escalating",
    "Journal", "JournalError", "read_journal", "journaled_results",
    "Job", "JobError", "run_job",
    "JobOutcome", "SuiteReport", "SupervisorError", "run_suite",
    "zoo_jobs",
    # equivalence
    "barbs", "exhibits", "converges", "Test", "Configuration",
    "compose", "part_locations", "passes", "may_preorder",
    "PreorderVerdict", "weakly_simulated", "SimulationResult",
    # analysis
    "Knowledge", "synthesizable", "standard_attackers",
    "forwarder", "replayer", "impersonator",
    "securely_implements", "find_attack", "Attack",
    "ImplementationVerdict", "origin_tester", "same_origin_tester",
    "standard_testers", "keeps_secret", "SecrecyVerdict",
    "authentication", "freshness", "PropertyVerdict", "Activation",
    "hooking_report", "communication_partners", "HookingReport",
    "env_explore", "env_secrecy", "env_authentication", "env_freshness",
    "EnvVerdict", "audit", "AuditReport",
    "secrecy_protocol", "NarrationSpec", "Message", "ref", "pair_msg",
    "enc_msg", "compile_narration",
    # protocols
    "startup", "m_startup", "OBSERVE", "abstract_protocol",
    "plaintext_protocol", "crypto_protocol", "abstract_multisession",
    "crypto_multisession", "challenge_response_multisession",
    "wide_mouthed_frog", "nonce_handshake", "plain_transport",
    "encrypted_transport", "narration_configuration", "observer",
    "bidirectional_pm3", "reflecting_attacker", "ZOO",
    "needham_schroeder_sk", "otway_rees", "yahalom", "woo_lam",
    # syntax
    "parse_process", "parse_term", "parse_address", "render_process",
    "render_term", "parse_system_file", "load_system_file", "SystemFile",
    "__version__",
]
