"""Cached canonical state keys over a hash-consed state arena.

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
3. on a miss, assembly joins the root's **flattened token list**:
   string literals (adjacent ones pre-merged) interleaved with interned
   identity tokens (one object per ``(kind, ident, uid)``) and interned
   creator-location tokens (one per location tuple).  Identities are
   numbered globally in first-occurrence order exactly like
   ``canon_id``, from a parallel list of numbering events, and each
   location renders as its text — or, under symmetry merging, rebased
   onto its slot's new position.  Token lists are memoized per interned
   subtree, so flattening a new state splices the cached lists of
   everything below the rewritten spine with C-level copies — only
   identity numbering is ever re-done per state (it is global, so it
   cannot be cached).

Invalidation rules (see ``docs/performance.md``):

* intern-table keys embed children by ``id()``; the table holds strong
  references, so ids stay valid until :func:`clear_caches` drops the
  table and every memo **together** — partial eviction of the table
  or the fragment/key memos is never allowed;
* the whole layer is bypassed when disabled by
  :func:`set_cache_enabled` — in which case ``state_key`` falls back
  to :func:`canonical_process` verbatim and successors take the
  reference path.

Cache effectiveness is observable through the ``canonical.hit`` /
``canonical.miss`` counters, the successor path's leaf and redex memos
(:mod:`repro.semantics.transitions`) through ``successor.leaf_hit`` /
``successor.leaf_miss`` / ``successor.redex_hit`` /
``successor.redex_miss``, and symmetry merging through
``reduction.sym_merge``, all published to :mod:`repro.obs.metrics` by
the exploration loops; see :func:`metrics_snapshot` /
:func:`publish_cache_metrics`.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

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
    names_of,
)
from repro.syntax.pretty import canonical_process

#: Reduction-mode environment switch (shared with
#: :mod:`repro.semantics.reduction`, which lives above this module in
#: the import graph): ``none`` turns symmetry merging off, anything else
#: leaves the default ``full``.  Read at import time so spawn-context
#: workers inherit the parent's choice.
REDUCTION_ENV = "REPRO_REDUCTION"

#: Full-clear threshold for the intern table (node count).  Clearing is
#: all-or-nothing by design — see the module docstring.
MAX_INTERNED_NODES = 2_000_000

#: Is the state cache active?  Only :func:`set_cache_enabled` turns it
#: off: the uncached reference path is for parity tests and replay.
_enabled: bool = True

#: Is symmetry canonicalization active?  The one record of the
#: reduction mode: owned here (rather than in
#: :mod:`repro.semantics.reduction`) because key assembly must not
#: depend on modules that import this one.
_symmetry: bool = os.environ.get(REDUCTION_ENV, "").strip().lower() != "none"

_table = InternTable()
_keys: dict[int, str] = {}  # id(interned root) -> canonical key
_sym_keys: dict[tuple, str] = {}  # (id(root), roles) -> symmetric key
_knowledge_keys: dict[tuple, str] = {}  # (id(root), roles, atoms) -> knowledge key

#: Hooks run by :func:`clear_caches` so sibling modules whose memos key
#: on interned-node identity (e.g. the batched-normalize memo in
#: :mod:`repro.semantics.transitions`) are dropped with the table.
_clear_hooks: list[Callable[[], None]] = []

_canonical_hits = 0
_canonical_misses = 0
_sym_reorders = 0
#: Leaf hit, leaf miss, redex hit, redex miss of the memos in
#: :mod:`repro.semantics.transitions` (see :func:`note_successor_memos`).
_memo_counts = [0, 0, 0, 0]


# ----------------------------------------------------------------------
# Enable / disable / clear
# ----------------------------------------------------------------------


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
    the same tree differ, and memoized targets carry keys computed
    under the old setting, so nothing may be served across.
    """
    global _symmetry
    previous = _symmetry
    _symmetry = bool(enabled)
    if previous != _symmetry:
        clear_caches()
    return previous


def register_clear_hook(hook: Callable[[], None]) -> None:
    """Run ``hook`` whenever :func:`clear_caches` drops the arena.

    For memos in other modules keyed by interned-node identity; they
    must not outlive the intern table.
    """
    _clear_hooks.append(hook)


def clear_caches() -> None:
    """Drop the intern table and every memo.

    Always clears everything together: the memos key by ``id`` of
    objects the table keeps alive, so none of them may outlive it.
    Registered clear hooks run last.
    """
    _table.clear()
    _cache.clear()
    _keys.clear()
    _sym_keys.clear()
    _knowledge_keys.clear()
    for hook in _clear_hooks:
        hook()


def interned_size() -> int:
    """Number of canonical instances currently interned."""
    return len(_table)


def intern_process(root: Process) -> Process:
    """The canonical (hash-consed) instance of ``root``."""
    return _table.process(root)


def arena() -> Optional[InternTable]:
    """The intern table itself, for building interned nodes straight
    from interned children (:meth:`InternTable.parallel`,
    :meth:`InternTable.restriction`), or ``None`` with the cache off.
    Valid until the next :func:`clear_caches`."""
    return _table if _enabled else None


# ----------------------------------------------------------------------
# Fragments: per-node canonical-rendering recipes
# ----------------------------------------------------------------------
#
# A fragment is a flat tuple whose elements are
#   * ``str``      — literal output,
#   * ``_Id``      — an interned identity (one object per ``(kind,
#                    ident, uid)``), renumbered in first-occurrence order
#                    at assembly (= ``canon_id``),
#   * ``_Loc``     — an interned creator location (one object per
#                    location tuple), rendered as its text or rebased,
#   * ``_PreNumber`` — assign a number to an identity *now*, emit
#                    nothing (mirrors ``canonical_process`` evaluating
#                    binder ids before the surrounding f-string:
#                    Input/Case/IntCase number their binders first),
#   * anything else — an interned child node, expanded recursively.
#
# Fragments mention children by reference, so they are shared by every
# state containing the subtree: after a transition only the rewritten
# spine needs fragment construction, each node in O(arity).


#: Rendered identity numbers per kind (``labels[i] == f"{kind}{i}"``),
#: grown by :func:`_render` on demand.  A constant table, not a memo:
#: no entry depends on a state.
_LABELS: dict[str, list[str]] = {kind: [kind + "0"] for kind in "nvl"}


class _Id:
    __slots__ = ("labels",)

    def __init__(self, kind: str) -> None:
        self.labels = _LABELS[kind]


class _Loc:
    __slots__ = ("loc", "text")

    def __init__(self, loc: tuple) -> None:
        self.loc = loc
        self.text = location_str(loc)


class _PreNumber:
    __slots__ = ("key",)

    def __init__(self, key: _Id) -> None:
        self.key = key


class _Tables:
    """Token interning plus every per-node memo of key assembly.

    One instance (:data:`_cache`) lives with the intern table; with the
    cache off each key gets a throwaway instance, so nothing is written
    at module level.
    """

    __slots__ = ("ids", "locs", "flats", "plans", "blinds", "safe", "spiny")

    def __init__(self) -> None:
        for slot in self.__slots__:
            setattr(self, slot, {})

    def clear(self) -> None:
        for slot in self.__slots__:
            getattr(self, slot).clear()

    def ident(self, kind: str, ident: str, uid) -> _Id:
        key = (kind, ident, uid)
        return self.ids.get(key) or self.ids.setdefault(key, _Id(kind))

    def loc(self, loc: tuple) -> _Loc:
        return self.locs.get(loc) or self.locs.setdefault(loc, _Loc(loc))


_cache = _Tables()


def _name_part(base: str, uid: Optional[int], tok: _Tables):
    # canon_id("n", base, None) keeps the spelling of a free name.
    return base if uid is None else tok.ident("n", base, uid)


def _frag_name(t: Name, tok: _Tables) -> tuple:
    head = _name_part(t.base, t.uid, tok)
    return (head,) if t.creator is None else (head, tok.loc(t.creator))


def _frag_var(t: Var, tok: _Tables) -> tuple:
    return (tok.ident("v", t.ident, t.uid),)


def _frag_pair(t: Pair, tok: _Tables) -> tuple:
    return ("(", t.first, ", ", t.second, ")")


def _frag_zero(t: Zero, tok: _Tables) -> tuple:
    return ("zero",)


def _frag_succ(t: Succ, tok: _Tables) -> tuple:
    return ("suc(", t.term, ")")


def _frag_enc(t: SharedEnc, tok: _Tables) -> tuple:
    parts: list = ["{"]
    for i, part in enumerate(t.body):
        if i:
            parts.append(", ")
        parts.append(part)
    parts.append("}")
    parts.append(t.key)
    return tuple(parts)


def _frag_localized(t: Localized, tok: _Tables) -> tuple:
    return (tok.loc(t.creator), t.term)


def _frag_at(t: At, tok: _Tables) -> tuple:
    literal = f"[{t.address.render()}]"
    return (literal,) if t.term is None else (literal, t.term)


def _frag_channel(ch: Channel, tok: _Tables) -> tuple:
    index = ch.index
    if index is None:
        return (ch.subject,)
    if isinstance(index, RelativeAddress):
        return (ch.subject, "@" + index.render())
    if isinstance(index, LocVar):
        return (ch.subject, "@", tok.ident("l", index.ident, index.uid))
    return (ch.subject, "@", tok.loc(index))


def _frag_nil(p: Nil, tok: _Tables) -> tuple:
    return ("0",)


def _frag_output(p: Output, tok: _Tables) -> tuple:
    return (p.channel, "<", p.payload, ">.", p.continuation)


def _frag_input(p: Input, tok: _Tables) -> tuple:
    binder = tok.ident("v", p.binder.ident, p.binder.uid)
    return (_PreNumber(binder), p.channel, "(", binder, ").", p.continuation)


def _frag_restriction(p: Restriction, tok: _Tables) -> tuple:
    # canonical_process renders the binder via canon_id directly: the
    # creator never appears here (contrast with Name occurrences).
    return ("(nu ", _name_part(p.name.base, p.name.uid, tok), ")(", p.body, ")")


def _frag_parallel(p: Parallel, tok: _Tables) -> tuple:
    return ("(", p.left, " | ", p.right, ")")


def _frag_match(p: Match, tok: _Tables) -> tuple:
    return ("[", p.left, " = ", p.right, "] ", p.continuation)


def _frag_addrmatch(p: AddrMatch, tok: _Tables) -> tuple:
    return ("[", p.left, " =~ ", p.right, "] ", p.continuation)


def _frag_replication(p: Replication, tok: _Tables) -> tuple:
    return ("!(", p.body, ")")


def _frag_case(p: Case, tok: _Tables) -> tuple:
    binders = [tok.ident("v", b.ident, b.uid) for b in p.binders]
    parts: list = [_PreNumber(b) for b in binders]
    parts += ["case ", p.scrutinee, " of {"]
    for i, binder in enumerate(binders):
        if i:
            parts.append(", ")
        parts.append(binder)
    parts += ["}", p.key, " in ", p.continuation]
    return tuple(parts)


def _frag_intcase(p: IntCase, tok: _Tables) -> tuple:
    binder = tok.ident("v", p.binder.ident, p.binder.uid)
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


def _frag_split(p: Split, tok: _Tables) -> tuple:
    first = tok.ident("v", p.first.ident, p.first.uid)
    second = tok.ident("v", p.second.ident, p.second.uid)
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


def _flatten(node, tok: _Tables) -> tuple[list, list]:
    """The flattened token list of a subtree and its numbering events
    (memoized per node in ``tok``).

    Tokens are ``str`` literals (adjacent literals merged at build
    time), identities and locations, in the pretty printer's
    left-to-right output order.  Events are the identities and
    locations in the same order, with each ``_PreNumber`` binder in its
    position.  Child references in the one-level recipes are expanded
    recursively, so flattening a transition target splices the cached
    lists of every shared subtree with C-level copies — only the
    rewritten spine builds new lists.
    """
    flat = tok.flats.get(id(node))
    if flat is not None:
        return flat
    out: list = []
    events: list = []
    for part in _FRAGMENT_BUILDERS[node.__class__](node, tok):
        cls = part.__class__
        if cls is str:
            if out and out[-1].__class__ is str:
                out[-1] += part
            else:
                out.append(part)
        elif cls is _Id or cls is _Loc:
            out.append(part)
            events.append(part)
        elif cls is _PreNumber:
            events.append(part.key)
        else:
            child, child_events = _flatten(part, tok)
            if child and out and out[-1].__class__ is str and child[0].__class__ is str:
                out[-1] += child[0]
                out.extend(child[1:])
            else:
                out.extend(child)
            events += child_events
    flat = tok.flats[id(node)] = (out, events)
    return flat


def _render(out: list, events: list, moves: Optional[dict] = None) -> str:
    """Render a token list in one pass.

    Identities are numbered in first-occurrence order of ``events``,
    with one shared counter across kinds — byte-identical to
    ``canon_id``.  A location renders as its text unless ``moves`` maps
    one of its prefixes (longest first) to ``(cut, head)``: then
    ``head`` replaces the first ``cut`` characters, the prefix's text.
    """
    table: dict = {}
    number = 0
    lengths = sorted({len(old) for old in moves}, reverse=True) if moves else ()
    distinct = dict.fromkeys(events)
    if len(distinct) >= len(_LABELS["n"]):
        for kind, labels in _LABELS.items():
            labels.extend(f"{kind}{i}" for i in range(len(labels), 2 * len(distinct)))
    for event in distinct:
        if event.__class__ is _Loc:
            table[event] = _rebased(event, moves, lengths) if lengths else event.text
        else:
            number += 1
            table[event] = event.labels[number]
    return "".join(map(table.get, out, out))


def _rebased(loc: _Loc, moves: dict, lengths) -> str:
    """``loc``'s text rebased by :func:`_render`'s ``moves`` (prefix
    ``lengths`` longest first)."""
    for n in lengths:
        move = moves.get(loc.loc[:n])
        if move is not None:
            return move[1] + loc.text[move[0]:]
    return loc.text


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
# spine's slots sorted into a canonical order, rebasing the absolute
# creator-location tokens so the rendered string is exactly the plain
# key of the permuted state.  Key equality therefore implies the states
# are related by a within-spine permutation with consistent creator
# renaming — a sound merge.  (Completeness is heuristic: a missed merge
# costs states, never verdicts.)


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
    the renderer rebases them consistently with the permutation.
    """
    if memo is not None:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
    cls = node.__class__
    if cls is Parallel:
        ok = _sym_safe(node.left, memo) and _sym_safe(node.right, memo)
    elif cls is At or cls is AddrMatch:
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


def _spiny(node, memo: Optional[dict]):
    """Does the subtree contain any candidate spine (through parallels)?

    Truthy if so: the spine's ``(slots, template)`` when it starts at
    ``node`` itself, else ``True``.
    """
    if node.__class__ is not Parallel:
        return False
    if memo is not None:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
    result = _chain(node) or bool(_spiny(node.left, memo) or _spiny(node.right, memo))
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


def _blind(node, slot_pos: tuple, tok) -> str:
    """The location-blind sort key of one spine slot.

    The slot is rendered with locally renumbered identities; locations
    under the slot's own position are re-based onto a placeholder so
    structurally identical copies at different slots compare equal.
    Foreign locations (names received from elsewhere) stay verbatim.
    A falsy ``tok`` renders through throwaway tables (the uncached
    path).
    """
    tok = tok or _Tables()
    key = (id(node), slot_pos)
    rendered = tok.blinds.get(key)
    if rendered is None:
        cut = len(location_str(slot_pos)) - 1
        rendered = tok.blinds[key] = _render(*_flatten(node, tok), {slot_pos: (cut, "<*")})
    return rendered


def _plan(node, chain: tuple, pos: tuple, roles: tuple, tok: _Tables) -> tuple:
    """How the spine ``chain`` at ``node`` (at ``pos``) is emitted,
    memoized per node, position and roles — or ``()`` when a role
    boundary runs through it.

    A plan is ``(slots, rest, template, close, reordered)``: ``slots``
    lists ``(old, new, slot, flat)`` in canonical order, where ``old``
    and ``new`` are the slot's position below the head before and after
    sorting (the same object when it stays) and ``flat`` its token and
    event lists (``None`` when it holds a spine of its own); ``rest`` is
    the template's position below the head and ``template`` its lists.
    """
    key = (id(node), pos, roles)
    plan = tok.plans.get(key)
    if plan is None:
        plan = ()
        if _role_gate(pos, roles):
            slots, template = chain
            k = len(slots)
            below = [(1,) * i + (0,) for i in range(k)]
            blinds = [_blind(slot, pos + at, tok) for slot, at in zip(slots, below)]
            order = sorted(range(k), key=blinds.__getitem__)
            plan = (
                [
                    (below[i], below[j], slots[i],
                     None if _spiny(slots[i], tok.spiny) else _flatten(slots[i], tok))
                    for j, i in enumerate(order)
                ],
                (1,) * k,
                _flatten(template, tok),
                ")" * k,
                order != list(range(k)),
            )
        tok.plans[key] = plan
    return plan


def _sym_emit(node, old_pos: tuple, new_pos: tuple, roles: tuple, moves: dict,
              out: list, events: list, tok: _Tables) -> None:
    """Emit the symmetry-reordered tokens and events of ``node``.

    ``old_pos`` is the node's position in the original tree (where the
    creator locations baked into its names point), ``new_pos`` its
    position in the reordered rendering; every divergence is recorded
    in ``moves`` (old absolute prefix -> new absolute prefix) for the
    final location rebase.
    """
    global _sym_reorders
    spine = _spiny(node, tok.spiny)
    plan = spine.__class__ is tuple and _plan(node, spine, old_pos, roles, tok)
    if plan:
        slots, rest, template, close, reordered = plan
        if reordered:
            _sym_reorders += 1
        moved = old_pos != new_pos
        for old, new, slot, flat in slots:
            if moved or old is not new:
                moves[old_pos + old] = new_pos + new
            out.append("(")
            if flat is None:
                _sym_emit(slot, old_pos + old, new_pos + new, roles, moves, out, events, tok)
            else:
                out += flat[0]
                events += flat[1]
            out.append(" | ")
        if moved:
            moves[old_pos + rest] = new_pos + rest
        out += template[0]
        events += template[1]
        out.append(close)
        return
    if spine:
        out.append("(")
        _sym_emit(node.left, old_pos + (0,), new_pos + (0,), roles, moves, out, events, tok)
        out.append(" | ")
        _sym_emit(node.right, old_pos + (1,), new_pos + (1,), roles, moves, out, events, tok)
        out.append(")")
        return
    flat, flat_events = _flatten(node, tok)
    out += flat
    events += flat_events


def _sym_tokens(node, roles: tuple, tok: _Tables) -> Optional[tuple[list, list, dict]]:
    """The symmetry-reordered token and event lists of a tree and their
    location rebase (:func:`_render`'s arguments), or ``None`` when no
    spine can be sorted: then the plain lists stand."""
    if not _sym_safe(node, tok.safe) or not _spiny(node, tok.spiny):
        return None
    moves: dict = {}
    out: list = []
    events: list = []
    _sym_emit(node, (), (), roles, moves, out, events, tok)
    return out, events, {
        old: (len(location_str(old)) - 1, location_str(new)[:-1]) for old, new in moves.items()
    }


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
        tokens = _sym_tokens(root, roles, _Tables()) if _symmetry and roles else None
        return canonical_process(root) if tokens is None else _render(*tokens)
    node = _table.process(root)
    if _symmetry and roles:
        memo_key = (id(node), roles)
        key = _sym_keys.get(memo_key)
        if key is not None:
            _canonical_hits += 1
            return key
        _canonical_misses += 1
        key = _sym_keys[memo_key] = _render(
            *(_sym_tokens(node, roles, _cache) or _flatten(node, _cache))
        )
        if len(_table) > MAX_INTERNED_NODES:
            clear_caches()
        return key
    key = _keys.get(id(node))
    if key is not None:
        _canonical_hits += 1
        return key
    _canonical_misses += 1
    key = _keys[id(node)] = _render(*_flatten(node, _cache))
    if len(_table) > MAX_INTERNED_NODES:
        clear_caches()
    return key


def knowledge_key(root: Process, roles: tuple, atoms: frozenset) -> str:
    """The knowledge half of the key of a state that carries knowledge,
    beside ``state_key(root, roles)``: the attacker's ``atoms`` rendered
    in the process key's identity numbering and session permutation.

    Knowledge and process sit under one restriction, ``(nu n~)(K | P)``
    in applied-pi terms, so one renaming of ``n~`` acts on both.  A
    restricted name renders as its number and spelling: a process name
    keeps its number there; a name only the knowledge holds takes the
    next free one in the uid-free order of spelling and rebased creator
    (unique within a state, as a site unfolds at most once along a run;
    a tie falls back to the uid and can only cost a merge).  Memoized
    per interned root, roles and atom set with the cache on.

    Soundness: the process key is the plain key of ``s(P)``, where the
    session permutation ``s`` (the identity without symmetry) sorts
    ``P``'s spines, and this half renders ``s(K)`` in ``s(P)``'s
    numbering, extended injectively.  So equal key pairs for ``(P, K)``
    and ``(Q, L)`` mean one permutation and one spelling-preserving
    renaming of restricted names map one state onto the other.
    """
    if not _enabled:
        return _knowledge_key(root, roles, atoms, _Tables())
    node = _table.process(root)
    memo_key = (id(node), roles, atoms)
    key = _knowledge_keys.get(memo_key)
    if key is None:
        key = _knowledge_keys[memo_key] = _knowledge_key(node, roles, atoms, _cache)
    return key


def _knowledge_key(node, roles: tuple, atoms: frozenset, tok: _Tables) -> str:
    tokens = _sym_tokens(node, roles, tok) if _symmetry and roles else None
    _out, events, moves = tokens or (*_flatten(node, tok), None)
    numbers: dict = {}
    for event in dict.fromkeys(events):
        if event.__class__ is not _Loc:
            numbers[event] = len(numbers) + 1
    lengths = sorted({len(old) for old in moves}, reverse=True) if moves else ()
    flats = [_flatten(_table.term(atom) if tok is _cache else atom, tok) for atom in atoms]
    table = {
        event: _rebased(event, moves, lengths)
        for _, atom_events in flats for event in atom_events if event.__class__ is _Loc
    }
    ordered = sorted(
        (name.base, table.get(tok.locs.get(name.creator), ""), name.uid)
        for name in set().union(*map(names_of, atoms)) if name.uid is not None
    )
    free = len(numbers)
    for base, _, uid in ordered:
        ident = tok.ident("n", base, uid)
        number = numbers.get(ident)
        if number is None:
            free += 1
            number = free
        table[ident] = f"n{number}:{base}"
    return "{" + ", ".join(sorted("".join(map(table.get, out, out)) for out, _ in flats)) + "}"


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
    """Monotonic counters ``(canonical hit/miss, symmetry reorders,
    leaf memo hit/miss, redex memo hit/miss)`` — snapshot before a run,
    diff after, publish the delta."""
    return (_canonical_hits, _canonical_misses, _sym_reorders, *_memo_counts)


_METRIC_NAMES = ("canonical.hit", "canonical.miss", "reduction.sym_merge",
                 "successor.leaf_hit", "successor.leaf_miss",
                 "successor.redex_hit", "successor.redex_miss")


def publish_cache_metrics(metrics, before: tuple[int, ...]) -> None:
    """Publish counter deltas since ``before`` to a metrics registry."""
    after = metrics_snapshot()
    for name, b, a in zip(_METRIC_NAMES, before, after):
        if a > b:
            metrics.inc(name, a - b)
    metrics.set_gauge("canonical.interned", interned_size())
