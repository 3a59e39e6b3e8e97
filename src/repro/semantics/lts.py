"""Bounded exploration of the silent-transition state space.

Replication makes the transition system infinite, so every exploration
carries an explicit :class:`Budget`.  Results always say whether they
are *exact* (the reachable space fit in the budget) or exhausted — and
when exhausted, *why*: a structured
:class:`~repro.runtime.exhaustion.Exhaustion` records which limit
tripped (states, depth, wall-clock deadline, cancellation, or an
injected fault) and how far the run got.  Verification verdicts built on
top propagate that qualifier.

Explorations are *resilient*:

* they poll a :class:`~repro.runtime.deadline.RunControl` (explicit or
  ambient, see :func:`repro.runtime.deadline.governed`) between state
  expansions, so any check can be bounded in wall-clock time or
  cancelled cooperatively;
* ``KeyboardInterrupt`` yields a partial graph with reason
  ``"cancelled"``, not a stack trace;
* a failing ``successors()`` call (see :mod:`repro.runtime.faults`)
  leaves its state unexpanded and qualifies the result instead of
  aborting it;
* partial graphs carry their unexpanded frontier (:attr:`Graph.pending`)
  so :func:`resume_exploration` — possibly in a later process, via
  :mod:`repro.runtime.checkpoint` — continues instead of restarting.

Every breadth-first search in the library — :func:`explore`,
:func:`resume_exploration`, :func:`search`, the environment-sensitive
exploration of :mod:`repro.analysis.environment` and the secrecy
witness search of :mod:`repro.analysis.witness` — runs the one kernel
:func:`_bfs`, which also records a parent pointer per state: a
violating run is read back off the exploration that found it
(:meth:`Graph.trace_to`) instead of being searched for a second time.

States are deduplicated up to alpha-equivalence by the canonical key of
:mod:`repro.semantics.canonical`, which renumbers the fresh ids
introduced by replication unfolding.  With the state cache enabled
(the default) keys come from hash-consed, memoized rendering and
repeated expansions hit a successor cache; ``--no-state-cache`` (or
``REPRO_NO_STATE_CACHE=1``) falls back to rendering every state
through :func:`repro.syntax.pretty.canonical_process` — the two paths
produce byte-identical keys, and therefore byte-identical graphs.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.obs.metrics import current_metrics
from repro.obs.trace import trace_span
from repro.runtime import exhaustion as ex
from repro.runtime.deadline import RunControl, resolve_control
from repro.runtime.exhaustion import Exhaustion
from repro.runtime.faults import FaultError
from repro.semantics import canonical, reduction
from repro.semantics.actions import Transition
from repro.semantics.system import System


@dataclass(frozen=True, slots=True)
class Budget:
    """Limits for a state-space exploration.

    Attributes:
        max_states: maximum number of distinct states to expand.
        max_depth: maximum length of any explored transition sequence.
    """

    max_states: int = 2000
    max_depth: int = 64

    def scaled(self, factor: float, depth_factor: Optional[float] = None) -> "Budget":
        """Grow both axes (``depth_factor`` defaults to ``factor``).

        Scaling *both* limits matters: a depth-truncated exploration
        whose escalation only grew ``max_states`` would re-truncate at
        the same horizon forever.
        """
        if depth_factor is None:
            depth_factor = factor
        return Budget(
            int(self.max_states * factor), int(self.max_depth * depth_factor)
        )


DEFAULT_BUDGET = Budget()


@dataclass
class Graph:
    """An explored fragment of the labelled transition system.

    The exploration kernel builds the same record for the other state
    spaces it searches (the environment-sensitive semantics, the secrecy
    witness product); their keys, states and steps are that space's own.

    Attributes:
        states: canonical key -> representative system.
        edges: canonical key -> list of (transition, target key).  A
            state has an entry iff it was expanded (possibly partially,
            see ``incomplete``).
        initial: canonical key of the initial state.
        exhaustion: ``None`` when the graph is the exact reachable
            space; otherwise the structured record of which limit cut
            the exploration short.  The graph is then an
            under-approximation.
        pending: the unexpanded frontier — ``(key, depth)`` pairs whose
            expansion was refused (by depth, states, deadline,
            cancellation or a fault).  Feed the graph to
            :func:`resume_exploration` to continue.
        incomplete: keys whose recorded edges are missing some targets
            (the state budget refused them).  Kept separate so
            :meth:`deadlocks` does not mistake a half-expanded state for
            a stuck one.
        parents: key -> (parent key, step) for every recorded state but
            the initial one: the state that first discovered it and the
            step it took.  ``states[key]`` is exactly that step's
            target, so the tree path is a concrete run even when
            symmetry merging maps other representatives to ``key``.
    """

    initial: str
    states: dict[str, System] = field(default_factory=dict)
    edges: dict[str, list[tuple[Transition, str]]] = field(default_factory=dict)
    exhaustion: Optional[Exhaustion] = None
    pending: list[tuple[str, int]] = field(default_factory=list)
    incomplete: set[str] = field(default_factory=set)
    parents: dict[str, tuple[str, Transition]] = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        """Backward-compatible boolean view of :attr:`exhaustion`."""
        return self.exhaustion is not None

    def state_count(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return sum(len(out) for out in self.edges.values())

    def successors_of(self, key: str) -> list[tuple[Transition, str]]:
        return self.edges.get(key, [])

    def deadlocks(self) -> list[str]:
        """Keys of states that were expanded and have no successor.

        States the budget refused to expand (no ``edges`` entry) and
        states with refused targets (``incomplete``) are *not* counted:
        the exploration never learned whether they are stuck.
        """
        return [
            key
            for key, out in self.edges.items()
            if not out and key not in self.incomplete
        ]

    def trace_to(self, key: Hashable) -> list:
        """The steps from the initial state to ``key`` along parent
        pointers: the shortest run the breadth-first exploration found."""
        trace = []
        while key != self.initial:
            key, step = self.parents[key]
            trace.append(step)
        trace.reverse()
        return trace


def _dedup_pending(entries) -> list[tuple[str, int]]:
    """Drop repeated frontier keys, keeping the first (shallowest,
    BFS-ordered) entry for each.

    A batched expansion enqueues a whole successor set at once, so a
    checkpoint written around it can see the same key both in the
    refused ``pending`` list and the live queue; resuming such a
    snapshot without deduplication would expand the state twice and
    double-count its work in the run's ``states``/``transitions``
    stats.
    """
    seen: set[str] = set()
    out: list[tuple[str, int]] = []
    for key, depth in entries:
        if key in seen:
            continue
        seen.add(key)
        out.append((key, depth))
    return out


def snapshot_exploration(graph: Graph, queue: deque[tuple[str, int]]) -> Graph:
    """A resumable, independent copy of an in-flight exploration.

    The copy's ``pending`` frontier includes the not-yet-expanded queue
    (deduplicated against the refused entries), so feeding it to
    :func:`resume_exploration` (directly or through a
    :class:`~repro.runtime.checkpoint.Checkpoint`) continues exactly
    where the live run stood.  State values are immutable, so shallow
    container copies fully decouple the snapshot from the live graph.
    """
    return Graph(
        initial=graph.initial,
        states=dict(graph.states),
        edges=dict(graph.edges),
        exhaustion=graph.exhaustion,
        pending=_dedup_pending(list(graph.pending) + list(queue)),
        incomplete=set(graph.incomplete),
        parents=dict(graph.parents),
    )


def _bfs(
    graph: Graph,
    successors: Callable[[Any], Iterable],
    key_of: Callable[[Any], Hashable],
    budget: Budget,
    control: RunControl,
    *,
    initial: Any = None,
    frontier: Iterable[tuple[Hashable, int]] = (),
    goal: Optional[Callable[[Any], bool]] = None,
    family: str = "explore",
    autosave: bool = False,
) -> Optional[Hashable]:
    """The breadth-first search kernel: explore into ``graph``.

    ``successors(state)`` returns the steps to expand from a state, each
    carrying its ``target`` state.  ``key_of`` maps a state to its
    dedupe key.  With ``initial`` the run starts afresh from that state
    (whose key must be ``graph.initial``); otherwise it continues from
    ``frontier``, the ``(key, depth)`` pairs of a partial graph.

    ``goal`` sees every state when it is first discovered — before the
    state budget applies, since the path to it is already concrete —
    and the first hit stops the run; its key is returned (``None`` when
    no state matched).

    The kernel owns the budget checks and the order their exhaustion
    reasons are noted in, interruption polling, ``KeyboardInterrupt``
    and ``FaultError`` degradation (the state goes back to ``pending``),
    dedupe, the ``pending``/``incomplete`` frontier, parent pointers,
    the checkpoint autosave (``autosave``: plain explorations only) and
    one publication of the ``{family}.*`` metrics.
    """
    states, edges, parents = graph.states, graph.edges, graph.parents
    queue: deque[tuple[Hashable, int]] = deque(frontier)
    reasons: list[str] = []
    detail: Optional[str] = None
    deepest = 0
    found: Optional[Hashable] = None
    started = time.monotonic()
    autosave_every = control.checkpoint_every if autosave else None
    on_checkpoint = control.on_checkpoint if autosave_every else None
    last_saved = len(states)
    recorded = expanded = transitions = dedup_hits = max_queue = 0
    cache_before = canonical.metrics_snapshot()

    def note(reason: str) -> None:
        if reason not in reasons:
            reasons.append(reason)

    if initial is not None:
        states[graph.initial] = initial
        queue.append((graph.initial, 0))
        recorded = 1
        if goal is not None and goal(initial):
            found = graph.initial
    try:
        while queue and found is None:
            if len(queue) > max_queue:
                max_queue = len(queue)
            stop = control.interruption()
            if stop is not None:
                note(stop)
                break
            key, depth = queue.popleft()
            deepest = max(deepest, depth)
            if depth >= budget.max_depth:
                note(ex.DEPTH)
                graph.pending.append((key, depth))
                continue
            out: list = []
            partial = False
            try:
                for step in successors(states[key]):
                    target = step.target
                    target_key = key_of(target)
                    if target_key in states:
                        dedup_hits += 1
                    else:
                        if goal is not None and goal(target):
                            found = target_key
                        elif len(states) >= budget.max_states:
                            # Leave the refused target's edge out too, so
                            # the graph stays self-contained (every
                            # recorded edge ends in a recorded state).
                            note(ex.STATES)
                            partial = True
                            continue
                        states[target_key] = target
                        parents[target_key] = (key, step)
                        queue.append((target_key, depth + 1))
                        recorded += 1
                    out.append((step, target_key))
                    if found is not None:
                        partial = True
                        break
            except FaultError as error:
                note(ex.FAULT)
                detail = str(error)
                graph.pending.append((key, depth))
                graph.incomplete.add(key)
                continue
            except KeyboardInterrupt:
                note(ex.CANCELLED)
                detail = "KeyboardInterrupt"
                graph.pending.append((key, depth))
                break
            expanded += 1
            transitions += len(out)
            edges[key] = out
            if partial:
                graph.pending.append((key, depth))
                graph.incomplete.add(key)
            else:
                graph.incomplete.discard(key)
            if on_checkpoint is not None and len(states) - last_saved >= autosave_every:
                on_checkpoint(snapshot_exploration(graph, queue))
                last_saved = len(states)
    except KeyboardInterrupt:
        note(ex.CANCELLED)
        detail = "KeyboardInterrupt"
    graph.pending.extend(queue)
    queue.clear()
    elapsed = time.monotonic() - started
    graph.exhaustion = (
        Exhaustion(
            tuple(reasons),
            states=len(states),
            depth=deepest,
            elapsed=elapsed,
            detail=detail,
        )
        if reasons
        else None
    )
    metrics = current_metrics()
    if metrics is not None:
        metrics.inc(f"{family}.runs")
        metrics.inc(f"{family}.states", recorded)
        metrics.inc(f"{family}.expanded", expanded)
        metrics.inc(f"{family}.transitions", transitions)
        metrics.inc(f"{family}.dedup_hits", dedup_hits)
        if goal is not None:
            metrics.inc(f"{family}.found", 0 if found is None else 1)
        metrics.set_gauge(f"{family}.queue_depth", max_queue)
        metrics.observe(f"{family}.seconds", elapsed)
        canonical.publish_cache_metrics(metrics, cache_before)
    return found


def explore(
    system: System,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> Graph:
    """Breadth-first exploration of the tau-reachable states.

    Under the default reduction mode, states that differ only by a
    permutation of replicated sessions share one key (see
    :mod:`repro.semantics.reduction`): a quotient by an automorphism of
    the LTS, so the graph keeps the full branching structure that
    bisimulation, simulation and must-testing read.
    """
    graph = Graph(initial=system.canonical_key())
    with trace_span("lts.explore", max_states=budget.max_states,
                    max_depth=budget.max_depth):
        _bfs(graph, reduction.reduced_successors, System.canonical_key, budget,
             resolve_control(control), initial=system, autosave=True)
    return graph


def resume_exploration(
    graph: Graph,
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> Graph:
    """Continue a partial exploration from its pending frontier.

    The input graph is not mutated; the returned graph shares no
    bookkeeping with it.  Resuming with the *same* budget after a
    deadline/cancellation reproduces exactly the states an uninterrupted
    run would have found (the frontier preserves BFS order); resuming
    with a *larger* budget is how escalation reuses prior work —
    states refused by the old budget are re-expanded under the new one.
    """
    resumed = Graph(
        initial=graph.initial,
        states=dict(graph.states),
        edges=dict(graph.edges),
        incomplete=set(graph.incomplete),
        parents=dict(graph.parents),
    )
    # Deduplicate defensively on the read side too: checkpoints written
    # by older versions (or mid-expansion of a batched successor set)
    # may carry a key in both the refused list and the saved queue, and
    # re-expanding it would double-count states/transitions work.
    frontier = _dedup_pending(graph.pending)
    if not frontier:
        resumed.exhaustion = graph.exhaustion
        return resumed
    with trace_span("lts.resume", prior_states=len(graph.states),
                    max_states=budget.max_states, max_depth=budget.max_depth):
        _bfs(resumed, reduction.reduced_successors, System.canonical_key, budget,
             resolve_control(control), frontier=frontier, autosave=True)
    return resumed


@dataclass(frozen=True, slots=True)
class ReachResult:
    """Outcome of a bounded reachability search.

    ``found`` is conclusive when True; a False is only conclusive when
    ``exhaustion`` is ``None``.  A found result carries ``trace``: the
    shortest run to the matching state in the searched (reduced) graph,
    ``[]`` when the initial state matches.
    """

    found: bool
    exhaustion: Optional[Exhaustion] = None
    states: int = 0
    trace: Optional[list[Transition]] = None

    @property
    def exhaustive(self) -> bool:
        return self.exhaustion is None


def search(
    system: System,
    predicate: Callable[[System], bool],
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> ReachResult:
    """Search for a reachable state satisfying ``predicate``.

    The structured twin of :func:`reachable`: the result says not just
    whether the search was exhaustive but which limit stopped it, and a
    hit carries the run that reaches it.  A state is tested when it is
    first discovered, so a match the state budget would have refused
    is still reported.

    Under symmetry merging the search tests one representative per
    permutation class of replicated sessions; a predicate that tells
    permuted sessions apart needs ``--reduce none``.
    """
    graph = Graph(initial=system.canonical_key())
    found = _bfs(graph, reduction.reduced_successors, System.canonical_key, budget,
                 resolve_control(control), initial=system, goal=predicate,
                 family="search")
    if found is None:
        return ReachResult(False, graph.exhaustion, len(graph.states))
    return ReachResult(True, None, len(graph.states), graph.trace_to(found))


def reachable(
    system: System,
    predicate: Callable[[System], bool],
    budget: Budget = DEFAULT_BUDGET,
    control: Optional[RunControl] = None,
) -> tuple[bool, bool]:
    """Search for a reachable state satisfying ``predicate``.

    Returns ``(found, exhaustive)``: when ``found`` is False and
    ``exhaustive`` is False, the budget ran out before the search could
    conclude (the property may still hold beyond the horizon).  Use
    :func:`search` for the structured exhaustion record.
    """
    result = search(system, predicate, budget, control)
    return result.found, result.exhaustive


def narrate(system: System, trace: list[Transition]) -> list[str]:
    """Render a transition sequence as a protocol narration."""
    lines: list[str] = []
    state = system
    for i, step in enumerate(trace, start=1):
        lines.append(f"Step {i}: {step.describe(state)}")
        state = step.target
    return lines
