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


def synchronize(out: PendingAction, inp: PendingAction, system: System) -> Optional[Transition]:
    """Build the transition for one output/input pair, if admissible."""
    matched = _match_pair(out, inp)
    if matched is None:
        return None
    value, sender_cont, receiver_cont = matched
    new_root = replace_leaves(
        system.root,
        {out.leaf_loc: out.wrap(sender_cont), inp.leaf_loc: inp.wrap(receiver_cont)},
    )
    # Administrative normalization: discharge the guards the communication
    # just enabled and expose freshly-created parallel structure.
    new_root = normalize(new_root)
    target = system.with_root(new_root, out.new_private | inp.new_private)
    action = Comm(
        channel=out.channel_subject,
        value=value,
        sender=out.act_loc,
        receiver=inp.act_loc,
    )
    return Transition(action=action, target=target)


# ----------------------------------------------------------------------
# Batched successor generation
# ----------------------------------------------------------------------


def _rewrite_batch(root: Process, patches: list[dict]) -> list[Process]:
    """Apply each two-leaf patch to ``root`` independently, in one walk.

    Each patch is a ``{leaf location: replacement}`` dict as accepted by
    :func:`~repro.core.processes.replace_leaves`; the result list holds
    one rebuilt root per patch.  Untouched subtrees are shared between
    the input tree and every result, so the per-target cost is the two
    rewritten spines rather than a full-tree copy per transition.
    """

    def go(node: Process, at: Location, idxs: list[int]) -> dict[int, Process]:
        built: dict[int, Process] = {}
        rest: list[int] = []
        for i in idxs:
            if at in patches[i]:
                if len(patches[i]) == 1 or all(
                    loc[: len(at)] != at or loc == at for loc in patches[i]
                ):
                    built[i] = patches[i][at]
                else:
                    raise SemanticsError(f"nested replacement locations at {at}")
            else:
                rest.append(i)
        if not rest:
            return built
        if isinstance(node, Restriction):
            for i, sub in go(node.body, at, rest).items():
                built[i] = Restriction(node.name, sub)
            return built
        if not isinstance(node, Parallel):
            raise SemanticsError(f"replacement location not in tree at {at}")
        lp, rp = at + (0,), at + (1,)
        lefts = [i for i in rest if any(loc[: len(lp)] == lp for loc in patches[i])]
        rights = [i for i in rest if any(loc[: len(rp)] == rp for loc in patches[i])]
        left_built = go(node.left, lp, lefts) if lefts else {}
        right_built = go(node.right, rp, rights) if rights else {}
        for i in rest:
            built[i] = Parallel(
                left_built.get(i, node.left), right_built.get(i, node.right)
            )
        return built

    results = go(root, (), list(range(len(patches))))
    return [results[i] for i in range(len(patches))]


#: ``normalize`` memo for the batched path, keyed by (identity of the
#: interned node, absolute position).  Guard evaluation is position
#: dependent (address matching resolves relative to the position), so
#: the position is part of the key.  Entries reference nodes the intern
#: table keeps alive; the memo is dropped with the rest of the
#: canonical caches via the registered clear hook.
_norm_memo: dict[tuple[int, Location], Process] = {}
canonical.register_clear_hook(_norm_memo.clear)


def _normalize_interned(node: Process, at: Location = ()) -> Process:
    """:func:`normalize` over the interned arena, memoized.

    ``node`` must be interned (children of an interned node are
    interned, so the recursion stays inside the arena until it reaches
    a non-structural node, which falls through to plain ``normalize``).
    A node whose children come back unchanged is returned as itself, so
    the result stays interned wherever normalization did nothing.
    """
    key = (id(node), at)
    hit = _norm_memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, Parallel):
        left = _normalize_interned(node.left, at + (0,))
        right = _normalize_interned(node.right, at + (1,))
        result: Process = (
            node if left is node.left and right is node.right else Parallel(left, right)
        )
    elif isinstance(node, Restriction):
        body = _normalize_interned(node.body, at)
        result = node if body is node.body else Restriction(node.name, body)
    else:
        result = normalize(node, at)
    _norm_memo[key] = result
    return result


def batched_successors(system: System) -> tuple[Transition, ...]:
    """Every silent transition enabled in ``system``, as one batch.

    Instrumented for fault injection (:mod:`repro.runtime.faults`): the
    hook is free unless a plan is active, and it fires *before* the
    successor-cache lookup so injected-fault schedules see the same
    call sequence whether or not the cache is enabled.

    The transitions are memoized per interned state (see
    :mod:`repro.semantics.canonical`): re-expanding a state the
    attacker enumeration or an escalated re-exploration has already
    visited returns the recorded tuple — uids included, since the cache
    keys on the identity of the hash-consed root.

    With the cache enabled, target construction is batched: all patched
    roots are rebuilt in one shared walk over the arena
    (:func:`_rewrite_batch`) and normalized through a per-(node,
    position) memo, so shared spine work is paid once per state instead
    of once per transition.  With the cache disabled the legacy
    per-pair path runs — the differential parity suites hold the two
    byte-identical.
    """
    fault_hook(SUCCESSORS)
    cache_handle = canonical.successor_key(system)
    if cache_handle is not None:
        cached = canonical.successor_get(cache_handle)
        if cached is not None:
            return cached
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
    if cache_handle is not None and pairs:
        patches = [
            {out.leaf_loc: out.wrap(sender), inp.leaf_loc: inp.wrap(receiver)}
            for out, inp, _value, sender, receiver in pairs
        ]
        roots = _rewrite_batch(system.root, patches)
        for (out, inp, value, _s, _r), new_root in zip(pairs, roots):
            normalized = _normalize_interned(canonical.intern_process(new_root))
            target = system.with_root(normalized, out.new_private | inp.new_private)
            action = Comm(
                channel=out.channel_subject,
                value=value,
                sender=out.act_loc,
                receiver=inp.act_loc,
            )
            transitions.append(Transition(action=action, target=target))
    else:
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
    result = tuple(transitions)
    if cache_handle is not None:
        canonical.successor_put(cache_handle, result)
    return result


def successors(system: System) -> list[Transition]:
    """Every silent transition enabled in ``system``: the full relation,
    whatever the reduction mode (symmetry only merges state keys)."""
    return list(batched_successors(system))
