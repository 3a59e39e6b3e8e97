"""Resilient verification runtime.

Cross-cutting machinery that makes every bounded check in the library
survive hostile inputs:

* :mod:`repro.runtime.exhaustion` — the structured :class:`Exhaustion`
  record that replaced the boolean ``truncated`` flag;
* :mod:`repro.runtime.deadline` — wall-clock :class:`Deadline`,
  :class:`CancelToken` and the ambient :func:`governed` control;
* :mod:`repro.runtime.faults` — the fault-injection harness used to
  prove graceful degradation;
* :mod:`repro.runtime.checkpoint` — serialize an in-progress
  exploration (visited set + frontier) to disk and resume it;
* :mod:`repro.runtime.escalation` — adaptive budget escalation: retry a
  truncated run with geometrically growing budgets, reusing prior work,
  until the result is exact or a hard ceiling is hit;
* :mod:`repro.runtime.journal` — crash-safe append-only JSONL result
  journal (fsync'd appends, torn-tail-tolerant reload);
* :mod:`repro.runtime.worker` — JSON-serializable verification
  :class:`Job` descriptions and the pool-worker process entry point;
* :mod:`repro.runtime.supervisor` — the supervised parallel suite
  runner: process-isolated workers with crash/OOM/hang recovery.

Import note: the package is a lazy name table (see
:mod:`repro.core.lazy`): a module loads when one of its names is first
used.  Only ``exhaustion``, ``deadline`` and ``faults`` load with the
package, since the semantics layer imports them anyway; ``checkpoint``
and ``escalation`` import the semantics layer, so serving them on
demand also keeps the imports acyclic.
"""

from __future__ import annotations

from repro.core.lazy import lazy_exports
from repro.runtime import deadline, exhaustion, faults  # noqa: F401 - see the import note

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.runtime.deadline": "CancelToken Deadline RunControl current_control "
    "governed resolve_control",
    "repro.runtime.exhaustion": "Exhaustion",
    "repro.runtime.faults": "FaultError FaultInjector FaultPlan inject_faults",
    "repro.runtime.checkpoint": "Checkpoint CheckpointError load_checkpoint",
    "repro.runtime.escalation": "Attempt EscalationPolicy EscalationReport "
    "escalate explore_escalating estimate_graph_memory_mb",
    "repro.runtime.journal": "Journal JournalError read_journal journaled_results",
    "repro.runtime.worker": "Job JobError run_job",
    "repro.runtime.supervisor": "JobOutcome SuiteReport SupervisorError "
    "run_suite zoo_jobs",
})
