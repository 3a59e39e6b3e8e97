"""State-space reduction: symmetry merging of replicated sessions.

Replicated sessions that differ only by a permutation of structurally
identical copies are merged at the canonical-key level — see the
symmetry section of :mod:`repro.semantics.canonical`, which owns the
machinery and the on/off switch (key assembly cannot depend on this
module).  The merge is a quotient by an automorphism of the transition
system, so it preserves reachability, deadlocks, the may-testing
preorder and the simulation/bisimulation games alike: an exhaustive
verdict is the same with it on or off, and only the number of explored
states (hence how far a budget reaches) changes.

Modes are selected with :func:`set_reduction_mode` (CLI flag
``--reduce {none,full}``) or the ``REPRO_REDUCTION`` environment
variable, read at import so spawn-context suite/serve/cluster workers
inherit the parent's choice, like ``REPRO_NO_STATE_CACHE``.
Effectiveness is observable through the ``reduction.sym_merge``
counter published by the exploration loops.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.addresses import Location
from repro.core.errors import SemanticsError
from repro.core.processes import Parallel, Process
from repro.core.terms import Localized, Name
from repro.semantics import canonical
from repro.semantics.actions import Transition
from repro.semantics.system import System
from repro.semantics.transitions import batched_successors

__all__ = [
    "MODES",
    "permute_sessions",
    "reduced_successors",
    "reduction_mode",
    "set_reduction_mode",
    "suspended",
]

MODES = ("none", "full")


def reduction_mode() -> str:
    """The active reduction mode: ``full`` (symmetry merging) or ``none``."""
    return "full" if canonical.symmetry_enabled() else "none"


def set_reduction_mode(mode: str) -> str:
    """Select the reduction mode; returns the previous one."""
    if mode not in MODES:
        raise ValueError(f"unknown reduction mode {mode!r} (expected one of {MODES})")
    previous = reduction_mode()
    canonical.set_symmetry_enabled(mode == "full")
    return previous


@contextmanager
def suspended() -> Iterator[None]:
    """Run a block with symmetry merging off, restoring the mode after.

    For per-copy diagnostics (session hooking reports), which must not
    merge permuted sessions.  Switching modes drops the canonical
    caches, so this is for cold paths only.
    """
    previous = set_reduction_mode("none")
    try:
        yield
    finally:
        set_reduction_mode(previous)


def reduced_successors(system: System) -> list[Transition]:
    """The transitions an exploration expands from ``system``.

    The one successor entry point the exploration kernel and
    :func:`~repro.analysis.environment.env_successors` look up at call
    time, so a wrapper installed on this module sees every expansion.
    """
    # batched_successors is looked up in this module, so a wrapper here sees it too.
    return list(batched_successors(system))


# ----------------------------------------------------------------------
# Session permutation (test helper and specification witness)
# ----------------------------------------------------------------------


def permute_sessions(system: System, head: Location, order: tuple[int, ...]) -> System:
    """The system with the replicated sessions at ``head`` permuted.

    ``head`` locates a spine — a right-nested parallel chain ending in
    a replication template — and ``order`` gives, for each slot
    position, the index of the original slot to place there.  Creator
    locations throughout the system (names, localized values, the
    private set) are rewritten consistently, so the result is the
    behaviourally equivalent state the symmetry argument promises: the
    canonical symmetric key is invariant under this operation.
    """
    from repro.core.processes import subprocess_at

    node = subprocess_at(system.root, head)
    chain = canonical._chain(node)
    if chain is None:
        raise SemanticsError(f"no replicated-session spine at {head!r}")
    slots, template = chain
    k = len(slots)
    if sorted(order) != list(range(k)):
        raise SemanticsError(f"order {order!r} is not a permutation of range({k})")
    old_slots = [head + (1,) * i + (0,) for i in range(k)]
    moves = {}
    for new_index, old_index in enumerate(order):
        if old_index != new_index:
            moves[old_slots[old_index]] = old_slots[new_index]
    rebuilt: Process = template
    for i in reversed(range(k)):
        rebuilt = Parallel(slots[order[i]], rebuilt)

    def rebuild(node: Process, at: Location) -> Process:
        if at == head:
            return rebuilt
        if not isinstance(node, Parallel):
            raise SemanticsError(f"spine head {head!r} not in tree")
        if head[: len(at) + 1] == at + (0,):
            return Parallel(rebuild(node.left, at + (0,)), node.right)
        return Parallel(node.left, rebuild(node.right, at + (1,)))

    new_root = rebuild(system.root, ()) if head else rebuilt
    if not moves:
        return system
    ordered = sorted(moves.items(), key=lambda item: len(item[0]), reverse=True)

    def move_loc(loc):
        if loc is None:
            return None
        for old, new in ordered:
            if loc[: len(old)] == old:
                return new + loc[len(old):]
        return loc

    def rewrite(value):
        if isinstance(value, Name):
            moved = move_loc(value.creator)
            if moved is value.creator:
                return value
            return Name(value.base, value.uid, moved)
        if isinstance(value, Localized):
            return Localized(move_loc(value.creator), rewrite(value.term))
        if not hasattr(value, "__dataclass_fields__"):
            return value
        changed = False
        updates = {}
        for field in value.__dataclass_fields__:
            old = getattr(value, field)
            if isinstance(old, tuple) and old and hasattr(old[0], "__dataclass_fields__"):
                new = tuple(rewrite(item) for item in old)
                same = all(a is b for a, b in zip(old, new))
            elif hasattr(old, "__dataclass_fields__"):
                new = rewrite(old)
                same = new is old
            else:
                continue
            if not same:
                changed = True
                updates[field] = new
        if not changed:
            return value
        import dataclasses

        return dataclasses.replace(value, **updates)

    import dataclasses

    return dataclasses.replace(
        system,
        root=rewrite(new_root),
        private=frozenset(rewrite(n) for n in system.private),
        _key_cache=None,
    )
