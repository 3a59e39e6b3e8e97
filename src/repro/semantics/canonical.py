"""Cached canonical state keys and successor memoization.

This module is the hot-path replacement for rendering every state
through :func:`repro.syntax.pretty.canonical_process` on every visit.
It produces **byte-identical** keys — the differential parity suite
(``tests/test_canonical_parity.py``) holds it to that — but obtains
them incrementally:

1. the state's process tree is *interned* through a global
   :class:`~repro.core.intern.InternTable`, so structurally equal
   subtrees (which transitions rebuild constantly) collapse onto one
   canonical instance each;
2. a **whole-key memo** maps the interned root (by identity) to its
   finished key.  A state whose tree was seen before — the dedup-hit
   case that dominates explorations — costs one intern walk and one
   dictionary lookup instead of a full render;
3. on a miss, assembly runs one linear pass over the root's
   **flattened token list**: string literals (adjacent ones pre-merged)
   interleaved with ``(kind, ident, uid)`` identity triples, renumbered
   globally in first-occurrence order exactly like ``canon_id``.
   Token lists are memoized per interned subtree, so flattening a new
   state splices the cached lists of everything below the rewritten
   spine with C-level copies — only identity renumbering is ever
   re-done per state (it is global, so it cannot be cached);
4. a bounded LRU **successor cache** keyed by ``(interned root,
   private, roles, unfold-sharing mode)`` lets repeated expansions of
   the same state — escalation re-explores from scratch, resume and
   repeated analyses revisit the same systems — skip the transition
   enumeration entirely.  Identity keying means a hit returns
   transitions whose uids match the querying state exactly.

Invalidation rules (see ``docs/performance.md``):

* intern-table keys embed children by ``id()``; the table holds strong
  references, so ids stay valid until :func:`clear_caches` drops the
  table, both memos and the successor cache **together** — partial
  eviction of the table or the fragment/key memos is never allowed;
* the successor cache may evict individually (its entries keep their
  interned root alive, so a recycled ``id`` can never alias a live
  key);
* the whole layer is bypassed when disabled — by the
  ``REPRO_NO_STATE_CACHE`` environment variable (read at import, so
  spawned workers inherit the choice), :func:`set_cache_enabled`, or
  the CLI's ``--no-state-cache`` — in which case ``state_key`` falls
  back to :func:`canonical_process` verbatim.

Cache effectiveness is observable through ``canonical.hit`` /
``canonical.miss`` (and ``successor.hit`` / ``successor.miss``)
counters, the successor path's leaf and redex memos through
``successor.leaf_hit`` / ``successor.leaf_miss`` /
``successor.redex_hit`` / ``successor.redex_miss``, symmetry merging
through ``reduction.sym_merge``, all
published to :mod:`repro.obs.metrics` by the exploration loops; see
:func:`metrics_snapshot` / :func:`publish_cache_metrics`.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.core.addresses import RelativeAddress, location_str
from repro.core.intern import InternTable
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
)
from repro.core.terms import (
    At,
    Localized,
    Name,
    Pair,
    SharedEnc,
    Succ,
    Var,
    Zero,
)
from repro.syntax.pretty import canonical_process

#: Environment switch honoured at import time so that spawn-context
#: worker processes (which re-import this module) follow the parent's
#: ``--no-state-cache`` choice.
DISABLE_ENV = "REPRO_NO_STATE_CACHE"

#: Reduction-mode environment switch (shared with
#: :mod:`repro.semantics.reduction`, which lives above this module in
#: the import graph): ``none`` turns symmetry merging off, anything else
#: leaves the default ``full``.  Read at import time so spawn-context
#: workers inherit the parent's choice, exactly like
#: ``REPRO_NO_STATE_CACHE``.
REDUCTION_ENV = "REPRO_REDUCTION"

#: Full-clear threshold for the intern table (node count).  Clearing is
#: all-or-nothing by design — see the module docstring.
MAX_INTERNED_NODES = 2_000_000

#: Entry cap for the successor LRU.
SUCCESSOR_CACHE_SIZE = 8_192


def _env_disabled() -> bool:
    return os.environ.get(DISABLE_ENV, "").strip().lower() in {"1", "true", "yes", "on"}


_enabled: bool = not _env_disabled()

#: Is symmetry canonicalization active?  The one record of the
#: reduction mode: owned here (rather than in
#: :mod:`repro.semantics.reduction`) because key assembly must not
#: depend on modules that import this one.
_symmetry: bool = os.environ.get(REDUCTION_ENV, "").strip().lower() != "none"

#: May a replication unfold reuse the copy its site produced before
#: (:func:`repro.semantics.transitions._unfold`)?  Off inside
#: :func:`separate_unfolds`; part of the successor-cache key, so the
#: two modes never serve each other's transitions.
_share_unfolds: bool = True

_table = InternTable()
_flats: dict[int, list] = {}  # id(interned node) -> flattened tokens
_keys: dict[int, str] = {}  # id(interned root) -> canonical key
_successors: "OrderedDict[tuple, tuple]" = OrderedDict()

# Symmetry-canonicalization memos: all keyed by id of interned nodes,
# so they live and die with the intern table (see clear_caches).
_sym_keys: dict[tuple, str] = {}  # (id(root), roles) -> symmetric key
_sym_safe_memo: dict[int, bool] = {}
_spiny_memo: dict[int, bool] = {}
_blind_memo: dict[tuple, str] = {}

#: Hooks run by :func:`clear_caches` so sibling modules whose memos key
#: on interned-node identity (e.g. the batched-normalize memo in
#: :mod:`repro.semantics.transitions`) are dropped with the table.
_clear_hooks: list[Callable[[], None]] = []

_canonical_hits = 0
_canonical_misses = 0
_successor_hits = 0
_successor_misses = 0
_sym_reorders = 0
#: Leaf hit, leaf miss, redex hit, redex miss of the memos in
#: :mod:`repro.semantics.transitions` (see :func:`note_successor_memos`).
_memo_counts = [0, 0, 0, 0]


# ----------------------------------------------------------------------
# Enable / disable / clear
# ----------------------------------------------------------------------


def cache_enabled() -> bool:
    """Is the hash-consed state cache active?"""
    return _enabled


def set_cache_enabled(enabled: bool) -> bool:
    """Switch the cache on or off; returns the previous setting.

    Turning the cache off clears it, so a later re-enable starts from
    an empty (and therefore trivially consistent) table.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    if not _enabled:
        clear_caches()
    return previous


def symmetry_enabled() -> bool:
    """Is symmetry canonicalization of replicated sessions active?"""
    return _symmetry


def set_symmetry_enabled(enabled: bool) -> bool:
    """Switch symmetry canonicalization; returns the previous setting.

    Flipping the switch drops every cache: plain and symmetric keys for
    the same tree differ, and memoized successor targets carry keys
    computed under the old setting, so nothing may be served across.
    """
    global _symmetry
    previous = _symmetry
    _symmetry = bool(enabled)
    if previous != _symmetry:
        clear_caches()
    return previous


def unfolds_shared() -> bool:
    """Does each replication site unfold to one memoized copy?

    True with the cache on, outside :func:`separate_unfolds`.
    """
    return _enabled and _share_unfolds


@contextmanager
def separate_unfolds() -> Iterator[None]:
    """Run a block in which every replication unfold freshens anew.

    Sharing one copy per site gives a name created there the same uid
    in every run that unfolds the site.  Plain explorations compare
    states by alpha-invariant key and never notice; analyses that
    relate raw names *across* states do: the environment semantics
    keys states on the attacker's knowledge, and secrecy's union
    knowledge merges what the spy heard on different branches.  They
    run inside this block and see the uid families of the uncached
    reference path.
    """
    global _share_unfolds
    previous = _share_unfolds
    _share_unfolds = False
    try:
        yield
    finally:
        _share_unfolds = previous


def register_clear_hook(hook: Callable[[], None]) -> None:
    """Run ``hook`` whenever :func:`clear_caches` drops the arena.

    For memos in other modules keyed by interned-node identity; they
    must not outlive the intern table.
    """
    _clear_hooks.append(hook)


def clear_caches() -> None:
    """Drop the intern table, every memo and the successor cache.

    Always clears everything together: the memos key by ``id`` of
    objects the table keeps alive, so none of them may outlive it.
    Registered clear hooks run last.
    """
    _table.clear()
    _flats.clear()
    _keys.clear()
    _successors.clear()
    _sym_keys.clear()
    _sym_safe_memo.clear()
    _spiny_memo.clear()
    _blind_memo.clear()
    for hook in _clear_hooks:
        hook()


def interned_size() -> int:
    """Number of canonical instances currently interned."""
    return len(_table)


def intern_process(root: Process) -> Process:
    """The canonical (hash-consed) instance of ``root``."""
    return _table.process(root)


def arena() -> InternTable:
    """The intern table itself, for building interned nodes straight
    from interned children (:meth:`InternTable.parallel`,
    :meth:`InternTable.restriction`).  Valid until the next
    :func:`clear_caches`."""
    return _table


# ----------------------------------------------------------------------
# Fragments: per-node canonical-rendering recipes
# ----------------------------------------------------------------------
#
# A fragment is a flat tuple whose elements are
#   * ``str``      — literal output,
#   * 3-tuples     — ``(kind, ident, uid)`` identities, renumbered in
#                    first-occurrence order at assembly (= ``canon_id``),
#   * ``_PreNumber`` — assign a number to an identity *now*, emit
#                    nothing (mirrors ``canonical_process`` evaluating
#                    binder ids before the surrounding f-string:
#                    Input/Case/IntCase number their binders first),
#   * anything else — an interned child node, expanded recursively.
#
# Fragments mention children by reference, so they are shared by every
# state containing the subtree: after a transition only the rewritten
# spine needs fragment construction, each node in O(arity).


class _PreNumber:
    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key


def _name_part(base: str, uid: Optional[int]):
    # canon_id("n", base, None) keeps the spelling of a free name.
    return base if uid is None else ("n", base, uid)


def _frag_name(t: Name) -> tuple:
    if t.uid is None:
        rendered = t.base
        if t.creator is not None:
            rendered += location_str(t.creator)
        return (rendered,)
    if t.creator is None:
        return (("n", t.base, t.uid),)
    return (("n", t.base, t.uid), location_str(t.creator))


def _frag_var(t: Var) -> tuple:
    return (("v", t.ident, t.uid),)


def _frag_pair(t: Pair) -> tuple:
    return ("(", t.first, ", ", t.second, ")")


def _frag_zero(t: Zero) -> tuple:
    return ("zero",)


def _frag_succ(t: Succ) -> tuple:
    return ("suc(", t.term, ")")


def _frag_enc(t: SharedEnc) -> tuple:
    parts: list = ["{"]
    for i, part in enumerate(t.body):
        if i:
            parts.append(", ")
        parts.append(part)
    parts.append("}")
    parts.append(t.key)
    return tuple(parts)


def _frag_localized(t: Localized) -> tuple:
    return (location_str(t.creator), t.term)


def _frag_at(t: At) -> tuple:
    literal = f"[{t.address.render()}]"
    return (literal,) if t.term is None else (literal, t.term)


def _frag_channel(ch: Channel) -> tuple:
    index = ch.index
    if index is None:
        return (ch.subject,)
    if isinstance(index, RelativeAddress):
        return (ch.subject, "@" + index.render())
    if isinstance(index, LocVar):
        return (ch.subject, "@", ("l", index.ident, index.uid))
    return (ch.subject, "@" + location_str(index))


def _frag_nil(p: Nil) -> tuple:
    return ("0",)


def _frag_output(p: Output) -> tuple:
    return (p.channel, "<", p.payload, ">.", p.continuation)


def _frag_input(p: Input) -> tuple:
    binder = ("v", p.binder.ident, p.binder.uid)
    return (_PreNumber(binder), p.channel, "(", binder, ").", p.continuation)


def _frag_restriction(p: Restriction) -> tuple:
    # canonical_process renders the binder via canon_id directly: the
    # creator never appears here (contrast with Name occurrences).
    return ("(nu ", _name_part(p.name.base, p.name.uid), ")(", p.body, ")")


def _frag_parallel(p: Parallel) -> tuple:
    return ("(", p.left, " | ", p.right, ")")


def _frag_match(p: Match) -> tuple:
    return ("[", p.left, " = ", p.right, "] ", p.continuation)


def _frag_addrmatch(p: AddrMatch) -> tuple:
    return ("[", p.left, " =~ ", p.right, "] ", p.continuation)


def _frag_replication(p: Replication) -> tuple:
    return ("!(", p.body, ")")


def _frag_case(p: Case) -> tuple:
    triples = [("v", b.ident, b.uid) for b in p.binders]
    parts: list = [_PreNumber(t) for t in triples]
    parts += ["case ", p.scrutinee, " of {"]
    for i, triple in enumerate(triples):
        if i:
            parts.append(", ")
        parts.append(triple)
    parts += ["}", p.key, " in ", p.continuation]
    return tuple(parts)


def _frag_intcase(p: IntCase) -> tuple:
    binder = ("v", p.binder.ident, p.binder.uid)
    return (
        _PreNumber(binder),
        "case ",
        p.scrutinee,
        " of zero: ",
        p.zero_branch,
        " suc(",
        binder,
        "): ",
        p.succ_branch,
    )


def _frag_split(p: Split) -> tuple:
    first = ("v", p.first.ident, p.first.uid)
    second = ("v", p.second.ident, p.second.uid)
    return ("let (", first, ", ", second, ") = ", p.scrutinee, " in ", p.continuation)


_FRAGMENT_BUILDERS: dict[type, object] = {
    Name: _frag_name,
    Var: _frag_var,
    Pair: _frag_pair,
    Zero: _frag_zero,
    Succ: _frag_succ,
    SharedEnc: _frag_enc,
    Localized: _frag_localized,
    At: _frag_at,
    Channel: _frag_channel,
    Nil: _frag_nil,
    Output: _frag_output,
    Input: _frag_input,
    Restriction: _frag_restriction,
    Parallel: _frag_parallel,
    Match: _frag_match,
    AddrMatch: _frag_addrmatch,
    Replication: _frag_replication,
    Case: _frag_case,
    IntCase: _frag_intcase,
    Split: _frag_split,
}


def _flatten(node) -> list:
    """The flattened token list of an interned subtree (memoized).

    Tokens are ``str`` literals (adjacent literals merged at build
    time), identity triples and ``_PreNumber`` markers, in the pretty
    printer's left-to-right output order.  Child references in the
    one-level recipes are expanded recursively, so flattening a
    transition target splices the cached lists of every shared subtree
    with C-level copies — only the rewritten spine builds new lists.
    """
    flat = _flats.get(id(node))
    if flat is not None:
        return flat
    out: list = []
    for part in _FRAGMENT_BUILDERS[node.__class__](node):
        cls = part.__class__
        if cls is str:
            if out and out[-1].__class__ is str:
                out[-1] += part
            else:
                out.append(part)
        elif cls is tuple or cls is _PreNumber:
            out.append(part)
        else:
            child = _flatten(part)
            if child and out and out[-1].__class__ is str and child[0].__class__ is str:
                out[-1] += child[0]
                out.extend(child[1:])
            else:
                out.extend(child)
    _flats[id(node)] = out
    return out


def _flatten_raw(node) -> list:
    """Non-memoized :func:`_flatten` for uninterned trees.

    Used by the disabled-cache symmetry path, which must produce the
    same token stream without touching the (cleared) arena memos.
    """
    out: list = []
    for part in _FRAGMENT_BUILDERS[node.__class__](node):
        cls = part.__class__
        if cls is str:
            if out and out[-1].__class__ is str:
                out[-1] += part
            else:
                out.append(part)
        elif cls is tuple or cls is _PreNumber:
            out.append(part)
        else:
            child = _flatten_raw(part)
            if child and out and out[-1].__class__ is str and child[0].__class__ is str:
                out[-1] += child[0]
                out.extend(child[1:])
            else:
                out.extend(child)
    return out


def _tokens(node, caching: bool) -> list:
    return _flatten(node) if caching else _flatten_raw(node)


def _render(tokens) -> str:
    """Render a token stream (one linear pass).

    Identity triples are numbered in first-occurrence order with one
    shared counter across kinds — byte-identical to ``canon_id``.
    """
    # Values are the *rendered* ids ("v3", "n7"): repeat occurrences —
    # the bulk of the tokens — cost one dict hit, no formatting.
    renumber: dict[tuple, str] = {}
    out: list[str] = []
    for item in tokens:
        cls = item.__class__
        if cls is str:
            out.append(item)
        elif cls is tuple:
            rendered = renumber.get(item)
            if rendered is None:
                rendered = renumber[item] = f"{item[0]}{len(renumber) + 1}"
            out.append(rendered)
        else:  # _PreNumber
            key = item.key
            if key not in renumber:
                renumber[key] = f"{key[0]}{len(renumber) + 1}"
    return "".join(out)


def _assemble(root) -> str:
    """Render an interned tree from its token list."""
    return _render(_flatten(root))


# ----------------------------------------------------------------------
# Symmetry canonicalization of replicated sessions
# ----------------------------------------------------------------------
#
# A ``!P`` that has unfolded k copies is a right-nested parallel chain
# ending in the replication template (the *spine*): copies sit in the
# chain's left slots, at locations h·1^i·0.  Two states that differ
# only by a permutation of such sibling copies — classic multi-session
# symmetry — are behaviourally interchangeable for every verdict the
# engine emits, *provided* nothing in the tree resolves addresses
# relative to tree positions and no role boundary runs through the
# spine.  The symmetric key renders the state with each eligible
# spine's slots sorted into a canonical order, rewriting the absolute
# creator locations baked into names so the rendered string is exactly
# the plain key of the permuted state.  Key equality therefore implies
# the states are related by a within-spine permutation with consistent
# creator renaming — a sound merge.  (Completeness is heuristic: a
# missed merge costs states, never verdicts.)

#: Matches every rendered absolute location, e.g. ``<||0||1||0>``.
#: Unambiguous in canonical output: uids render as ``n12``/``v3`` and
#: no other literal contains ``<||``.
_LOC_RE = re.compile(r"<(?:\|\|[01])+>")


def _parse_loc(rendered: str) -> tuple:
    return tuple(int(tag) for tag in rendered[1:-1].split("||")[1:])


#: Child fields per node class for the position-safety scan.  Classes
#: handled specially (Channel, SharedEnc, At, AddrMatch) are absent.
_SYM_CHILDREN: dict[type, tuple[str, ...]] = {
    Name: (),
    Var: (),
    Zero: (),
    Nil: (),
    Pair: ("first", "second"),
    Succ: ("term",),
    Localized: ("term",),
    Output: ("channel", "payload", "continuation"),
    Input: ("channel", "continuation"),
    Restriction: ("body",),
    Parallel: ("left", "right"),
    Match: ("left", "right", "continuation"),
    Replication: ("body",),
    Case: ("scrutinee", "key", "continuation"),
    IntCase: ("scrutinee", "zero_branch", "succ_branch"),
    Split: ("scrutinee", "continuation"),
}


def _sym_safe(node, memo: Optional[dict]) -> bool:
    """No position-relative constructs anywhere in the subtree.

    ``At`` terms, address matches, location variables and localized
    channels all resolve relative to absolute tree positions, so
    permuting siblings is only meaning-preserving in their absence.
    Plain creator locations (on names and localized values) are fine:
    the renderer rewrites them consistently with the permutation.
    """
    if memo is not None:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
    cls = node.__class__
    if cls is At or cls is AddrMatch:
        ok = False
    elif cls is Channel:
        ok = node.index is None and _sym_safe(node.subject, memo)
    elif cls is SharedEnc:
        ok = all(_sym_safe(p, memo) for p in node.body) and _sym_safe(node.key, memo)
    else:
        fields = _SYM_CHILDREN.get(cls)
        ok = fields is not None and all(
            _sym_safe(getattr(node, f), memo) for f in fields
        )
    if memo is not None:
        memo[id(node)] = ok
    return ok


def _chain(node) -> Optional[tuple[list, object]]:
    """The right-nested parallel chain at ``node`` ending in a
    replication template, as ``(slots, template)`` — or ``None`` when
    the shape does not match or fewer than two copies have unfolded."""
    slots: list = []
    cur = node
    while cur.__class__ is Parallel:
        slots.append(cur.left)
        cur = cur.right
    if cur.__class__ is Replication and len(slots) >= 2:
        return slots, cur
    return None


def _spiny(node, memo: Optional[dict]) -> bool:
    """Does the subtree contain any candidate spine (through parallels)?"""
    if node.__class__ is not Parallel:
        return False
    if memo is not None:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
    result = (
        _chain(node) is not None
        or _spiny(node.left, memo)
        or _spiny(node.right, memo)
    )
    if memo is not None:
        memo[id(node)] = result
    return result


def _role_gate(head: tuple, roles: tuple) -> bool:
    """No role location strictly inside the spine at ``head``.

    Sorting a spine that a role boundary runs through would conflate
    distinct roles (the composition tree is itself a right-leaning
    parallel chain).  A role *at* the head, or above it, is fine: then
    the whole spine belongs to one role.
    """
    n = len(head)
    return all(not (loc[:n] == head and loc != head) for loc, _label in roles)


def _blind(node, slot_pos: tuple, caching: bool) -> str:
    """The location-blind sort key of one spine slot.

    The slot is rendered with locally renumbered identities; locations
    under the slot's own position are re-based onto a placeholder so
    structurally identical copies at different slots compare equal.
    Foreign locations (names received from elsewhere) stay verbatim.
    """
    key = (id(node), slot_pos)
    if caching:
        hit = _blind_memo.get(key)
        if hit is not None:
            return hit
    n = len(slot_pos)

    def debase(match: "re.Match[str]") -> str:
        loc = _parse_loc(match.group(0))
        if loc[:n] == slot_pos:
            return "<*" + "".join(f"||{t}" for t in loc[n:]) + ">"
        return match.group(0)

    rendered = _LOC_RE.sub(debase, _render(_tokens(node, caching)))
    if caching:
        _blind_memo[key] = rendered
    return rendered


def _sym_emit(
    node,
    old_pos: tuple,
    new_pos: tuple,
    roles: tuple,
    moves: dict,
    out: list,
    caching: bool,
) -> None:
    """Emit the symmetry-reordered token stream of ``node``.

    ``old_pos`` is the node's position in the original tree (where the
    creator locations baked into its names point), ``new_pos`` its
    position in the reordered rendering; every divergence is recorded
    in ``moves`` (old absolute prefix -> new absolute prefix) for the
    final location rewrite.
    """
    global _sym_reorders
    if node.__class__ is Parallel:
        chain = _chain(node)
        if chain is not None and _role_gate(old_pos, roles):
            slots, template = chain
            k = len(slots)
            old_slots = [old_pos + (1,) * i + (0,) for i in range(k)]
            new_slots = [new_pos + (1,) * i + (0,) for i in range(k)]
            order = sorted(
                range(k), key=lambda i: _blind(slots[i], old_slots[i], caching)
            )
            if order != list(range(k)):
                _sym_reorders += 1
            for j, i in enumerate(order):
                out.append("(")
                if old_slots[i] != new_slots[j]:
                    moves[old_slots[i]] = new_slots[j]
                _sym_emit(
                    slots[i], old_slots[i], new_slots[j], roles, moves, out, caching
                )
                out.append(" | ")
            if old_pos != new_pos:
                moves[old_pos + (1,) * k] = new_pos + (1,) * k
            out.extend(_tokens(template, caching))
            out.append(")" * k)
            return
        if _spiny(node, _spiny_memo if caching else None):
            out.append("(")
            _sym_emit(
                node.left, old_pos + (0,), new_pos + (0,), roles, moves, out, caching
            )
            out.append(" | ")
            _sym_emit(
                node.right, old_pos + (1,), new_pos + (1,), roles, moves, out, caching
            )
            out.append(")")
            return
    out.extend(_tokens(node, caching))


def _sym_key(node, roles: tuple, caching: bool) -> str:
    """The symmetry-canonical key of a tree (see section comment)."""
    if not _sym_safe(node, _sym_safe_memo if caching else None) or not _spiny(
        node, _spiny_memo if caching else None
    ):
        return _render(_tokens(node, caching))
    moves: dict = {}
    out: list = []
    _sym_emit(node, (), (), roles, moves, out, caching)
    rendered = _render(out)
    if not moves:
        return rendered
    # Longest-prefix-first lookup, done with one exact dict probe per
    # distinct move length (spine slots share only a few lengths) and a
    # per-call memo so each distinct location string is resolved once.
    lengths = sorted({len(old) for old in moves}, reverse=True)
    resolved: dict[str, str] = {}

    def rebase(match: "re.Match[str]") -> str:
        text = match.group(0)
        hit = resolved.get(text)
        if hit is None:
            loc = _parse_loc(text)
            hit = text
            for n in lengths:
                new = moves.get(loc[:n])
                if new is not None:
                    hit = location_str(new + loc[n:])
                    break
            resolved[text] = hit
        return hit

    return _LOC_RE.sub(rebase, rendered)


def sym_reorder_count() -> int:
    """Monotonic count of spine reorderings performed by symmetric key
    assembly — the ``reduction.sym_merge`` metric's raw counter."""
    return _sym_reorders


# ----------------------------------------------------------------------
# State keys
# ----------------------------------------------------------------------


def state_key(root: Process, roles: tuple = ()) -> str:
    """The alpha-invariant canonical key of a state's process tree.

    With ``roles`` empty (or symmetry off) this is byte-identical to
    ``canonical_process(root)``; with the cache enabled the tree is
    interned first and the key is memoized per interned root.  When
    symmetry canonicalization is on and the caller supplies the
    system's roles, replicated sibling sessions are sorted into a
    canonical order first, merging states that differ only by a
    permutation of structurally identical copies.
    """
    global _canonical_hits, _canonical_misses
    if not _enabled:
        if _symmetry and roles:
            return _sym_key(root, roles, caching=False)
        return canonical_process(root)
    node = _table.process(root)
    if _symmetry and roles:
        memo_key = (id(node), roles)
        key = _sym_keys.get(memo_key)
        if key is not None:
            _canonical_hits += 1
            return key
        _canonical_misses += 1
        key = _sym_keys[memo_key] = _sym_key(node, roles, caching=True)
        if len(_table) > MAX_INTERNED_NODES:
            clear_caches()
        return key
    key = _keys.get(id(node))
    if key is not None:
        _canonical_hits += 1
        return key
    _canonical_misses += 1
    key = _keys[id(node)] = _assemble(node)
    if len(_table) > MAX_INTERNED_NODES:
        clear_caches()
    return key


# ----------------------------------------------------------------------
# Successor cache
# ----------------------------------------------------------------------


def successor_key(system) -> Optional[tuple]:
    """Cache handle for ``successors(system)`` (``None`` when disabled).

    ``private`` and ``roles`` are part of the key because equal process
    trees can belong to systems with different private-name sets, and
    verdicts depend on them; the unfold-sharing mode is, because a
    shared unfold's names would leak into :func:`separate_unfolds`.  Keying on the *identity* of the interned
    root means a hit hands back transitions whose uids are exactly
    those of the querying state — not merely alpha-equivalent ones.
    The handle carries the interned root alongside the key so a stored
    entry keeps it alive: a live entry's ``id`` can never be recycled
    onto a different node.
    """
    if not _enabled:
        return None
    node = _table.process(system.root)
    return ((id(node), system.private, system.roles, _share_unfolds), node)


def successor_get(handle: tuple):
    """Cached successor transitions for ``handle``, or ``None``.

    The payload is opaque to this module (the tuple of transitions
    :func:`~repro.semantics.transitions.batched_successors` built).
    """
    global _successor_hits, _successor_misses
    key, _node = handle
    entry = _successors.get(key)
    if entry is None:
        _successor_misses += 1
        return None
    _successors.move_to_end(key)
    _successor_hits += 1
    return entry[1]


def successor_put(handle: tuple, transitions: tuple) -> None:
    """Record the computed successor transitions of one state (LRU-bounded)."""
    key, node = handle
    _successors[key] = (node, transitions)
    _successors.move_to_end(key)
    while len(_successors) > SUCCESSOR_CACHE_SIZE:
        _successors.popitem(last=False)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def note_successor_memos(
    leaf_hits: int, leaf_misses: int, redex_hits: int, redex_misses: int
) -> None:
    """Count one expansion's leaf and redex memo lookups."""
    counts = _memo_counts
    counts[0] += leaf_hits
    counts[1] += leaf_misses
    counts[2] += redex_hits
    counts[3] += redex_misses


def metrics_snapshot() -> tuple[int, ...]:
    """Monotonic counters ``(canonical hit/miss, successor hit/miss,
    symmetry reorders, leaf memo hit/miss, redex memo hit/miss)`` —
    snapshot before a run, diff after, publish the delta."""
    return (_canonical_hits, _canonical_misses, _successor_hits, _successor_misses,
            _sym_reorders, *_memo_counts)


_METRIC_NAMES = ("canonical.hit", "canonical.miss", "successor.hit", "successor.miss",
                 "reduction.sym_merge", "successor.leaf_hit", "successor.leaf_miss",
                 "successor.redex_hit", "successor.redex_miss")


def publish_cache_metrics(metrics, before: tuple[int, ...]) -> None:
    """Publish counter deltas since ``before`` to a metrics registry."""
    after = metrics_snapshot()
    for name, b, a in zip(_METRIC_NAMES, before, after):
        if a > b:
            metrics.inc(name, a - b)
    metrics.set_gauge("canonical.interned", interned_size())
