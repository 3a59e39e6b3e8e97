"""The transition relation of the calculus with authentication primitives.

Given a :class:`~repro.semantics.system.System`, :func:`successors`
computes every silent transition, implementing the paper's rules:

* **communication** — an output and an input on the same channel in two
  different leaves synchronize, *provided the localization indexes
  admit it*: a channel indexed with a relative address only talks to the
  partner at exactly that address (partner authentication), and a
  channel indexed with a location variable talks to anyone but binds the
  variable to the partner's location for the rest of the session;
* **message localization** — the transmitted value is localized at the
  sender if it is a freshly-built composite, while forwarded values keep
  their original creator (message authentication).  Because the machine
  stores absolute creator locations, the paper's address-composition on
  forwarding is performed implicitly and exactly;
* **matching / address matching / decryption / pair splitting** — these
  are evaluated on the way to a prefix, so a transition may discharge
  any number of them, as in the SOS where ``[M = M]P`` has the actions
  of ``P``;
* **replication** — ``!P`` acts by unfolding one freshened copy whose
  restricted names receive fresh identities created at the copy's
  location; the residual template is kept to the right, so existing
  locations never move (the tree only grows at leaves).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.core.addresses import AddressError, Location, RelativeAddress
from repro.core.errors import SemanticsError
from repro.core.intern import InternTable
from repro.core.processes import (
    AddrMatch,
    Case,
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
    replace_leaves,
    walk_leaves,
)
from repro.core.substitution import freshen_bound, instantiate_locvar, subst
from repro.core.terms import Name, Term, localize, payload
from repro.runtime.faults import SUCCESSORS, fault_hook
from repro.semantics import canonical
from repro.semantics.actions import Comm, PendingAction, Transition
from repro.semantics.guards import addr_match_passes, decrypt, int_case, match_passes, split_pair
from repro.semantics.normalize import normalize
from repro.semantics.system import System, instantiate_names

# ----------------------------------------------------------------------
# Commitments: the enabled prefixes of each leaf
# ----------------------------------------------------------------------


def _identity(p: Process) -> Process:
    return p


def commitments(
    proc: Process,
    act_loc: Location,
    leaf_loc: Location,
    embed: Callable[[Process], Process] = _identity,
    new_private: frozenset[Name] = frozenset(),
) -> Iterator[PendingAction]:
    """Enumerate the enabled prefixes reachable inside one leaf.

    ``embed`` maps the process that will replace the *currently examined*
    subterm back to the process replacing the whole leaf; it accumulates
    the surrounding structure created by replication unfolding and by
    parallel compositions inside an unfolded copy.
    """
    if isinstance(proc, Nil):
        return
    if isinstance(proc, Output):
        subject = payload(proc.channel.subject)
        if isinstance(subject, Name):
            yield PendingAction(
                is_output=True,
                channel_subject=subject,
                index=proc.channel.index,
                act_loc=act_loc,
                leaf_loc=leaf_loc,
                continuation=proc.continuation,
                wrap=embed,
                payload=proc.payload,
                new_private=new_private,
            )
        return
    if isinstance(proc, Input):
        subject = payload(proc.channel.subject)
        if isinstance(subject, Name):
            yield PendingAction(
                is_output=False,
                channel_subject=subject,
                index=proc.channel.index,
                act_loc=act_loc,
                leaf_loc=leaf_loc,
                continuation=proc.continuation,
                wrap=embed,
                binder=proc.binder,
                new_private=new_private,
            )
        return
    if isinstance(proc, Match):
        if match_passes(proc.left, proc.right, act_loc):
            yield from commitments(proc.continuation, act_loc, leaf_loc, embed, new_private)
        return
    if isinstance(proc, AddrMatch):
        if addr_match_passes(proc.left, proc.right, act_loc):
            yield from commitments(proc.continuation, act_loc, leaf_loc, embed, new_private)
        return
    if isinstance(proc, Case):
        parts = decrypt(proc.scrutinee, proc.key, len(proc.binders))
        if parts is not None:
            opened = subst(proc.continuation, dict(zip(proc.binders, parts)))
            yield from commitments(opened, act_loc, leaf_loc, embed, new_private)
        return
    if isinstance(proc, Split):
        parts = split_pair(proc.scrutinee)
        if parts is not None:
            opened = subst(proc.continuation, {proc.first: parts[0], proc.second: parts[1]})
            yield from commitments(opened, act_loc, leaf_loc, embed, new_private)
        return
    if isinstance(proc, IntCase):
        branch = int_case(proc.scrutinee)
        if branch is not None:
            kind, inner = branch
            if kind == "zero":
                chosen = proc.zero_branch
            else:
                chosen = subst(proc.succ_branch, {proc.binder: inner})
            yield from commitments(chosen, act_loc, leaf_loc, embed, new_private)
        return
    if isinstance(proc, Replication):
        # !P acts as one freshened copy in parallel with the template:
        # the copy goes to the left (location .0), the template to the
        # right (.1), so every pre-existing location stays valid.
        template, copy, created = _unfold(proc, act_loc)

        def unfold_embed(
            k: Process, _embed: Callable[[Process], Process] = embed
        ) -> Process:
            return _embed(Parallel(k, template))

        yield from commitments(
            copy, act_loc + (0,), leaf_loc, unfold_embed, new_private | created
        )
        return
    if isinstance(proc, Parallel):
        # Parallel structure inside an unfolded copy: recurse on both
        # branches, keeping the sibling intact in the rebuilt subtree.
        left, right = proc.left, proc.right

        def left_embed(k: Process, _embed=embed, _right=right) -> Process:
            return _embed(Parallel(k, _right))

        def right_embed(k: Process, _embed=embed, _left=left) -> Process:
            return _embed(Parallel(_left, k))

        yield from commitments(left, act_loc + (0,), leaf_loc, left_embed, new_private)
        yield from commitments(right, act_loc + (1,), leaf_loc, right_embed, new_private)
        return
    if isinstance(proc, Restriction):
        # Restrictions are erased at instantiation; reaching one here
        # means a caller skipped instantiation.
        raise SemanticsError(
            "live restriction encountered during commitment enumeration; "
            "systems must be built with repro.semantics.system.instantiate"
        )
    raise SemanticsError(f"unknown process {proc!r}")


#: Replication unfolds, keyed by (identity of the interned template,
#: acting location); each entry holds ``(template, copy, created)`` and
#: its template pins the id.  Reusing a copy is sound because the tree
#: is never pruned: a location holds the template until it unfolds
#: there and a ``Parallel`` from then on, so no state holds both the
#: template at that location and names from an earlier unfold of it.
#: Dropped with the intern table via the registered clear hook.
_unfold_memo: dict[tuple[int, Location], tuple[Process, Process, frozenset[Name]]] = {}
canonical.register_clear_hook(_unfold_memo.clear)


def _unfold(
    template: Replication, act_loc: Location
) -> tuple[Process, Process, frozenset[Name]]:
    """``(template, copy, created)`` for unfolding ``template`` at ``act_loc``.

    The copy is freshened and its restrictions are instantiated at
    ``act_loc + (0,)``.  While :func:`canonical.unfolds_shared`, each
    site unfolds once and every later expansion reuses its fresh
    identities, so interleavings that reach the same state build the
    same tree.  Otherwise (cache off, or inside
    :func:`canonical.separate_unfolds`) every call freshens anew, as
    the reference path does.
    """
    sharing = canonical.unfolds_shared()
    if sharing:
        template = canonical.intern_process(template)
        hit = _unfold_memo.get((id(template), act_loc))
        if hit is not None:
            return hit
    copy, created = instantiate_names(freshen_bound(template.body), at=act_loc + (0,))
    entry = (template, copy, created)
    if sharing:
        _unfold_memo[id(template), act_loc] = entry
    return entry


def pending_actions(system: System) -> list[PendingAction]:
    """All enabled prefixes of the system, leaf by leaf."""
    actions: list[PendingAction] = []
    for loc, leaf in system.leaves():
        actions.extend(commitments(leaf, loc, loc))
    return actions


# ----------------------------------------------------------------------
# Synchronization
# ----------------------------------------------------------------------


def _admits(index: object, own_loc: Location, partner_loc: Location) -> bool:
    """Does a channel localization admit this partner?

    ``None`` admits anyone; a location variable admits anyone (it will
    be bound); an absolute location or a relative address admits exactly
    the partner it denotes.
    """
    if index is None or isinstance(index, LocVar):
        return True
    if isinstance(index, RelativeAddress):
        try:
            return index.resolve(own_loc) == partner_loc
        except AddressError:
            return False
    if isinstance(index, tuple):  # machine-level absolute location
        return index == partner_loc
    raise SemanticsError(f"unknown channel index {index!r}")


def _match_pair(
    out: PendingAction, inp: PendingAction
) -> Optional[tuple[Term, Process, Process]]:
    """Admissibility and continuations for one output/input pair.

    Returns ``(value, sender_cont, receiver_cont)`` when the pair can
    synchronize, ``None`` otherwise.
    """
    if out.leaf_loc == inp.leaf_loc:
        # Both prefixes come from the same leaf (a replication whose body
        # contains both ends).  Their rebuild closures would conflict;
        # the protocols the calculus targets never need this shape.
        return None
    if out.channel_subject != inp.channel_subject:
        return None
    if not _admits(out.index, out.act_loc, inp.act_loc):
        return None
    if not _admits(inp.index, inp.act_loc, out.act_loc):
        return None

    value = localize(out.payload, out.act_loc)

    sender_cont: Process = out.continuation
    if isinstance(out.index, LocVar):
        sender_cont = instantiate_locvar(sender_cont, out.index, inp.act_loc)
    receiver_cont: Process = subst(inp.continuation, {inp.binder: value})
    if isinstance(inp.index, LocVar):
        receiver_cont = instantiate_locvar(receiver_cont, inp.index, out.act_loc)
    return value, sender_cont, receiver_cont


# ----------------------------------------------------------------------
# Batched successor generation
# ----------------------------------------------------------------------
#
# With the cache on, a state's successors are computed incrementally.
# A communication rewrites only the two leaves it synchronizes, so a
# child state shares every other leaf with its parent, and every other
# output/input pair with it too.  Two memos exploit that:
#
# * the **leaf memo** holds, per ``(interned leaf, location)``, the
#   leaf's enabled prefixes split into outputs and inputs;
# * the **redex memo** holds, per pair of those (identical) prefix
#   objects, the outcome of :func:`_match_pair`: ``None`` for a pair
#   that cannot synchronize, otherwise the action and both rewritten
#   leaves, already wrapped, interned and normalized at their locations.
#
# Both depend on nothing but their key: commitments read only the leaf
# and its location (unfolds come from the site memo), and a match reads
# only its two prefixes.  Both pin their keys' objects and are dropped
# with the intern table.  They are bypassed while unfolds are not
# shared (cache off, or inside ``canonical.separate_unfolds()``), where
# every expansion must freshen anew.
#
# Targets are assembled in the arena: the two rewritten leaves are
# grafted into the interned root and each new spine node comes from the
# intern table, so the target root is interned as built.  Normalization
# acts leaf by leaf, so grafting normal leaves into a normal root gives
# a normal root; only a root that is not yet normal gets a whole-tree
# pass after the graft.

#: ``(id(interned leaf), location) -> (leaf, outputs, inputs)``.
_leaf_memo: dict[
    tuple[int, Location],
    tuple[Process, tuple[PendingAction, ...], tuple[PendingAction, ...]],
] = {}

#: ``(id(output), id(input)) -> (output, input, redex)`` where ``redex``
#: is ``None`` or ``(action, sender leaf, receiver leaf)``.
_redex_memo: dict[
    tuple[int, int],
    tuple[PendingAction, PendingAction, Optional[tuple[Comm, Process, Process]]],
] = {}
canonical.register_clear_hook(_leaf_memo.clear)
canonical.register_clear_hook(_redex_memo.clear)


def _leaf_actions(
    leaf: Process, loc: Location
) -> tuple[tuple[PendingAction, ...], tuple[PendingAction, ...]]:
    """The enabled prefixes of one leaf as ``(outputs, inputs)``."""
    actions = list(commitments(leaf, loc, loc))
    return (
        tuple(a for a in actions if a.is_output),
        tuple(a for a in actions if not a.is_output),
    )


def _redex(
    out: PendingAction, inp: PendingAction, table
) -> Optional[tuple[Comm, Process, Process]]:
    """``(action, sender leaf, receiver leaf)`` for a pair that can
    synchronize, else ``None``.  Both leaves are wrapped, interned and
    normalized at their own locations."""
    matched = _match_pair(out, inp)
    if matched is None:
        return None
    value, sender, receiver = matched
    action = Comm(
        channel=out.channel_subject,
        value=value,
        sender=out.act_loc,
        receiver=inp.act_loc,
    )
    return (
        action,
        _normalize_interned(table.process(out.wrap(sender)), table, out.leaf_loc),
        _normalize_interned(table.process(inp.wrap(receiver)), table, inp.leaf_loc),
    )


def _graft(node: Process, depth: int, loc: Location, leaf: Process, table) -> Process:
    """``node`` with the leaf at ``loc`` replaced by ``leaf``, in the arena.

    ``node`` is interned and sits at ``loc[:depth]``; ``leaf`` is
    interned.  Restrictions are transparent, as in
    :func:`~repro.core.processes.replace_leaves`.  Subtrees off the path
    are shared and each rebuilt node comes from ``table``, so the result
    is interned as built.
    """
    if node.__class__ is Restriction:
        return table.restriction(node.name, _graft(node.body, depth, loc, leaf, table))
    if depth == len(loc):
        return leaf
    if node.__class__ is not Parallel:
        raise SemanticsError(f"replacement location {loc} not in tree")
    if loc[depth]:
        return table.parallel(node.left, _graft(node.right, depth + 1, loc, leaf, table))
    return table.parallel(_graft(node.left, depth + 1, loc, leaf, table), node.right)


def _graft_pair(
    node: Process,
    depth: int,
    a: Location,
    leaf_a: Process,
    b: Location,
    leaf_b: Process,
    table,
) -> Process:
    """:func:`_graft` of two leaves at once: the paths to ``a`` and
    ``b`` are rebuilt together down to where they part."""
    if node.__class__ is Restriction:
        body = _graft_pair(node.body, depth, a, leaf_a, b, leaf_b, table)
        return table.restriction(node.name, body)
    if depth == len(a) or depth == len(b):
        raise SemanticsError(f"nested replacement locations {a} and {b}")
    if node.__class__ is not Parallel:
        raise SemanticsError(f"replacement location {a} not in tree")
    if a[depth] != b[depth]:
        if a[depth]:
            a, leaf_a, b, leaf_b = b, leaf_b, a, leaf_a
        return table.parallel(
            _graft(node.left, depth + 1, a, leaf_a, table),
            _graft(node.right, depth + 1, b, leaf_b, table),
        )
    if a[depth]:
        right = _graft_pair(node.right, depth + 1, a, leaf_a, b, leaf_b, table)
        return table.parallel(node.left, right)
    left = _graft_pair(node.left, depth + 1, a, leaf_a, b, leaf_b, table)
    return table.parallel(left, node.right)


#: ``normalize`` memo for the batched path, keyed by (identity of the
#: interned node, absolute position).  Guard evaluation is position
#: dependent (address matching resolves relative to the position), so
#: the position is part of the key.  Every result is also recorded as
#: its own normal form (``normalize`` is idempotent), so a state root
#: the path built is known normal at once.  Entries reference nodes the
#: intern table keeps alive; the memo is dropped with the rest of the
#: canonical caches via the registered clear hook.
_norm_memo: dict[tuple[int, Location], Process] = {}
canonical.register_clear_hook(_norm_memo.clear)


def _normalize_interned(node: Process, table, at: Location = ()) -> Process:
    """:func:`normalize` over the interned arena, memoized.

    ``node`` must be interned (children of an interned node are
    interned, so the recursion stays inside the arena until it reaches
    a non-structural node, which falls through to plain ``normalize``).
    The result is interned too: a node whose children come back
    unchanged is returned as itself, and rebuilt nodes come from
    ``table``.
    """
    key = (id(node), at)
    hit = _norm_memo.get(key)
    if hit is not None:
        return hit
    if node.__class__ is Parallel:
        left = _normalize_interned(node.left, table, at + (0,))
        right = _normalize_interned(node.right, table, at + (1,))
        result: Process = (
            node
            if left is node.left and right is node.right
            else table.parallel(left, right)
        )
    elif node.__class__ is Restriction:
        body = _normalize_interned(node.body, table, at)
        result = node if body is node.body else table.restriction(node.name, body)
    else:
        result = table.process(normalize(node, at))
    _norm_memo[key] = _norm_memo[id(result), at] = result
    return result


def batched_successors(system: System) -> tuple[Transition, ...]:
    """Every silent transition enabled in ``system``, as one batch.

    Instrumented for fault injection (:mod:`repro.runtime.faults`): the
    hook is free unless a plan is active, and it fires first, so
    injected-fault schedules see the same call sequence whether or not
    the state cache is enabled.

    With the cache enabled, successors are computed incrementally
    through the leaf and redex memos (see the section comment) and
    each target is grafted and normalized inside the intern arena.
    With the cache disabled the reference per-pair path runs — the
    differential parity suites hold the two byte-identical.
    """
    fault_hook(SUCCESSORS)
    table = canonical.arena()
    if table is None:
        return _reference_successors(system)
    return _arena_successors(system, table)


def _arena_successors(system: System, table: InternTable) -> tuple[Transition, ...]:
    """The cached path of :func:`batched_successors` (cache enabled)."""
    root = table.process(system.root)
    root_normal = _normalize_interned(root, table) is root
    memoize = canonical.unfolds_shared()
    # Bypassed, the memos are replaced by dicts that live for this call
    # only: within one state no leaf location or prefix pair repeats,
    # so every lookup misses and everything is computed afresh.
    leaf_memo = _leaf_memo if memoize else {}
    redex_memo = _redex_memo if memoize else {}
    leaf_hits = leaf_misses = redex_hits = redex_misses = 0
    outputs: list[PendingAction] = []
    inputs: list[PendingAction] = []
    for loc, leaf in walk_leaves(root):
        entry = leaf_memo.get((id(leaf), loc))
        if entry is None:
            leaf_misses += 1
            entry = leaf_memo[id(leaf), loc] = (leaf, *_leaf_actions(leaf, loc))
        else:
            leaf_hits += 1
        outputs.extend(entry[1])
        inputs.extend(entry[2])
    transitions: list[Transition] = []
    for out in outputs:
        for inp in inputs:
            hit = redex_memo.get((id(out), id(inp)))
            if hit is None:
                redex_misses += 1
                redex = _redex(out, inp, table)
                hit = redex_memo[id(out), id(inp)] = (out, inp, redex)
            else:
                redex_hits += 1
            redex = hit[2]
            if redex is None:
                continue
            action, sender, receiver = redex
            new_root = _graft_pair(
                root, 0, out.leaf_loc, sender, inp.leaf_loc, receiver, table
            )
            if not root_normal:
                new_root = _normalize_interned(new_root, table)
            target = system.with_root(new_root, out.new_private | inp.new_private)
            transitions.append(Transition(action=action, target=target))
    if memoize:
        canonical.note_successor_memos(leaf_hits, leaf_misses, redex_hits, redex_misses)
    return tuple(transitions)


def _reference_successors(system: System) -> tuple[Transition, ...]:
    """The uncached path of :func:`batched_successors`: every pair is
    matched and every target rebuilt and normalized from scratch."""
    actions = pending_actions(system)
    outputs = [a for a in actions if a.is_output]
    inputs = [a for a in actions if not a.is_output]
    pairs: list[tuple[PendingAction, PendingAction, Term, Process, Process]] = []
    for out in outputs:
        for inp in inputs:
            matched = _match_pair(out, inp)
            if matched is not None:
                pairs.append((out, inp) + matched)
    transitions: list[Transition] = []
    for out, inp, value, sender, receiver in pairs:
        new_root = replace_leaves(
            system.root,
            {out.leaf_loc: out.wrap(sender), inp.leaf_loc: inp.wrap(receiver)},
        )
        new_root = normalize(new_root)
        target = system.with_root(new_root, out.new_private | inp.new_private)
        action = Comm(
            channel=out.channel_subject,
            value=value,
            sender=out.act_loc,
            receiver=inp.act_loc,
        )
        transitions.append(Transition(action=action, target=target))
    return tuple(transitions)


def successors(system: System) -> list[Transition]:
    """Every silent transition enabled in ``system``: the full relation,
    whatever the reduction mode (symmetry only merges state keys)."""
    return list(batched_successors(system))
