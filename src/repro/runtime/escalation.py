"""Adaptive budget escalation.

Fixed budgets force an unpleasant choice: small ones truncate real
verdicts, big ones waste minutes on protocols that finish in a hundred
states.  Escalation resolves it: start small, and while the result is
exhausted *for a budget reason* (states or depth — the retriable ones),
retry with geometrically grown budgets until the result is exact or a
hard ceiling (states, depth, attempts, estimated memory, or the
governing deadline) is hit.

Two entry points:

* :func:`explore_escalating` — escalate a state-space exploration,
  **reusing prior work**: each retry resumes from the previous attempt's
  frontier (:func:`repro.semantics.lts.resume_exploration`) instead of
  re-exploring from scratch, and can checkpoint between attempts.
* :func:`escalate` — escalate any budgeted check (a callable taking a
  :class:`Budget`), for verdicts whose internals cannot be resumed.

Both return the final result paired with an :class:`EscalationReport`
describing every attempt, so callers (and benchmarks) can see what the
retry policy cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.core.errors import ReproError
from repro.runtime.deadline import RunControl, resolve_control
from repro.runtime.exhaustion import BUDGET_REASONS, Exhaustion
from repro.semantics.lts import Budget, DEFAULT_BUDGET, Graph, explore, resume_exploration
from repro.semantics.system import System

T = TypeVar("T")


class EscalationError(ReproError):
    """Escalation was asked to judge a result it cannot interpret."""


def estimate_graph_memory_mb(graph: Graph) -> float:
    """Rough resident-size estimate of an explored graph, in MiB.

    Canonical keys dominate; systems and transitions are charged a flat
    per-object overhead.  This is a *ceiling heuristic* for escalation,
    not an accounting tool.
    """
    key_bytes = sum(len(key) for key in graph.states)
    edge_count = sum(len(out) for out in graph.edges.values())
    return (2 * key_bytes + 600 * len(graph.states) + 200 * edge_count) / (1024 * 1024)


@dataclass(frozen=True, slots=True)
class EscalationPolicy:
    """How budgets grow and where they stop.

    Attributes:
        state_factor: multiplier for ``max_states`` per attempt.
        depth_factor: multiplier for ``max_depth`` per attempt (kept
            gentler by default — depth growth multiplies the frontier).
        max_attempts: total attempts, the initial one included.
        state_ceiling / depth_ceiling: hard caps on the grown budget.
        memory_ceiling_mb: stop when the partial graph's estimated size
            exceeds this (``None`` disables the check; only
            :func:`explore_escalating` can apply it — generic verdicts
            expose no graph to measure).
    """

    state_factor: float = 4.0
    depth_factor: float = 2.0
    max_attempts: int = 6
    state_ceiling: int = 200_000
    depth_ceiling: int = 1024
    memory_ceiling_mb: Optional[float] = None

    def next_budget(self, budget: Budget) -> Optional[Budget]:
        """The grown budget, or ``None`` when the ceilings allow no
        further growth."""
        grown = Budget(
            min(max(int(budget.max_states * self.state_factor), budget.max_states + 1),
                self.state_ceiling),
            min(max(int(budget.max_depth * self.depth_factor), budget.max_depth + 1),
                self.depth_ceiling),
        )
        if grown == budget:
            return None
        return Budget(
            max(grown.max_states, budget.max_states),
            max(grown.max_depth, budget.max_depth),
        )


DEFAULT_POLICY = EscalationPolicy()

#: Reasons an escalation loop gives up (``EscalationReport.stopped``).
STOP_CEILING = "ceiling"
STOP_ATTEMPTS = "attempts"
STOP_MEMORY = "memory"
STOP_INTERRUPTED = "interrupted"


@dataclass(frozen=True, slots=True)
class Attempt:
    """One budgeted run inside an escalation loop."""

    budget: Budget
    exhaustion: Optional[Exhaustion]
    elapsed: float

    @property
    def exact(self) -> bool:
        return self.exhaustion is None


@dataclass(frozen=True, slots=True)
class EscalationReport:
    """What the retry policy did and why it stopped.

    ``exact`` means the final attempt completed within its budget;
    otherwise ``stopped`` names the giving-up reason (``"ceiling"``,
    ``"attempts"``, ``"memory"``, or ``"interrupted"`` when the last
    exhaustion was not retriable — deadline, cancellation, fault).
    """

    attempts: tuple[Attempt, ...]
    exact: bool
    stopped: Optional[str] = None

    @property
    def total_elapsed(self) -> float:
        return sum(attempt.elapsed for attempt in self.attempts)

    def describe(self) -> str:
        ladder = " -> ".join(
            f"{a.budget.max_states}s/{a.budget.max_depth}d" for a in self.attempts
        )
        outcome = (
            "exact" if self.exact else f"gave up ({self.stopped})"
        )
        return (
            f"escalation {outcome} after {len(self.attempts)} attempt(s) "
            f"[{ladder}], {self.total_elapsed:.2f}s total"
        )


def _giving_up_reason(
    exhaustion: Optional[Exhaustion],
    attempts_used: int,
    policy: EscalationPolicy,
    budget: Budget,
) -> Optional[str]:
    """Why the loop must stop now, or ``None`` to escalate once more."""
    if exhaustion is None:
        return None
    if not set(exhaustion.reasons) <= BUDGET_REASONS:
        return STOP_INTERRUPTED
    if attempts_used >= policy.max_attempts:
        return STOP_ATTEMPTS
    if policy.next_budget(budget) is None:
        return STOP_CEILING
    return None


def explore_escalating(
    system: System,
    budget: Budget = DEFAULT_BUDGET,
    policy: EscalationPolicy = DEFAULT_POLICY,
    control: Optional[RunControl] = None,
    checkpoint_path: Optional[str] = None,
) -> tuple[Graph, EscalationReport]:
    """Explore with escalating budgets, resuming between attempts.

    Each truncated attempt's frontier seeds the next, so the total work
    is close to a single run at the final budget.  With
    ``checkpoint_path`` the partial graph is saved after every truncated
    attempt, making the whole loop kill-resumable.
    """
    ctl = resolve_control(control)
    attempts: list[Attempt] = []
    graph: Optional[Graph] = None
    while True:
        started = time.monotonic()
        graph = (
            explore(system, budget, ctl)
            if graph is None
            else resume_exploration(graph, budget, ctl)
        )
        attempts.append(Attempt(budget, graph.exhaustion, time.monotonic() - started))
        if graph.exhaustion is None:
            return graph, EscalationReport(tuple(attempts), exact=True)
        if checkpoint_path is not None:
            from repro.runtime.checkpoint import Checkpoint

            Checkpoint(graph, budget).save(checkpoint_path)
        stopped = _giving_up_reason(graph.exhaustion, len(attempts), policy, budget)
        if stopped is None and policy.memory_ceiling_mb is not None:
            if estimate_graph_memory_mb(graph) >= policy.memory_ceiling_mb:
                stopped = STOP_MEMORY
        if stopped is not None:
            return graph, EscalationReport(tuple(attempts), exact=False, stopped=stopped)
        budget = policy.next_budget(budget)  # type: ignore[assignment]


_MISSING = object()


def result_exhaustion(result: Any) -> Optional[Exhaustion]:
    """Best-effort extraction of a result's exhaustion record.

    Understands anything with an ``exhaustion`` attribute, the JSON
    results of :func:`repro.runtime.worker.run_job` (their
    ``"exhaustion"`` record), the ``exhaustive``/``truncated`` boolean
    conventions, and the ``(value, exhaustive)`` tuples some primitives
    return.  Booleans are mapped to a bare budget-reason record
    (``states+depth``) so the escalation loop treats them as retriable.
    """
    if isinstance(result, dict) and "exhaustion" in result:
        return Exhaustion.from_json(result["exhaustion"])
    probed = getattr(result, "exhaustion", _MISSING)
    if probed is not _MISSING:
        return probed
    exhaustive = getattr(result, "exhaustive", None)
    if exhaustive is None:
        truncated = getattr(result, "truncated", None)
        if truncated is not None:
            exhaustive = not truncated
    if exhaustive is None and isinstance(result, tuple) and result:
        last = result[-1]
        if isinstance(last, bool):
            exhaustive = last
    if exhaustive is None:
        raise EscalationError(
            f"cannot judge exactness of {type(result).__name__!r}; pass exact=..."
        )
    return None if exhaustive else Exhaustion(("states", "depth"))


def escalate(
    run: Callable[[Budget], T],
    budget: Budget = DEFAULT_BUDGET,
    policy: EscalationPolicy = DEFAULT_POLICY,
    control: Optional[RunControl] = None,
    exact: Optional[Callable[[T], bool]] = None,
) -> tuple[T, EscalationReport]:
    """Run a budgeted check with geometrically growing budgets.

    ``run`` is invoked with the current budget; its result is judged by
    ``exact`` (default: :func:`result_exhaustion`-based).  Unlike
    :func:`explore_escalating` nothing is reused between attempts — use
    this for verdicts whose exploration is internal.
    """
    ctl = resolve_control(control)
    attempts: list[Attempt] = []
    while True:
        started = time.monotonic()
        result = run(budget)
        elapsed = time.monotonic() - started
        if exact is not None:
            exhaustion = None if exact(result) else Exhaustion(("states", "depth"))
        else:
            exhaustion = result_exhaustion(result)
        attempts.append(Attempt(budget, exhaustion, elapsed))
        if exhaustion is None:
            return result, EscalationReport(tuple(attempts), exact=True)
        if ctl.interruption() is not None:
            return result, EscalationReport(
                tuple(attempts), exact=False, stopped=STOP_INTERRUPTED
            )
        stopped = _giving_up_reason(exhaustion, len(attempts), policy, budget)
        if stopped is not None:
            return result, EscalationReport(tuple(attempts), exact=False, stopped=stopped)
        budget = policy.next_budget(budget)  # type: ignore[assignment]
