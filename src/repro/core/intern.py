"""Hash-consed (interned) construction of terms and processes.

Every transition rebuilds large parts of a state's process tree —
``normalize`` and substitution reconstruct even the nodes they do not
change — so structurally equal subtrees exist as many distinct Python
objects, and every operation that compares, hashes or renders them pays
the full structural cost again and again.  Hash consing is the classic
answer (ProVerif's term representation, the hash-consed state stores of
explicit-state model checkers): route construction through an *intern
table* so that structural equality becomes **object identity**.

:class:`InternTable` maps a cheap per-node key — the constructor plus
the ``id()``s of the already-interned children and the primitive
fields — to the one canonical instance of that node.  Because children
are interned before their parents, key construction is O(arity), never
O(subtree): the table never hashes a tree recursively.

Two invariants make ``id()``-based keys sound:

* the table holds a **strong reference** to every canonical instance,
  so no interned object is ever garbage collected while the table
  lives, and no ``id()`` in a key can be recycled;
* consequently the table only ever grows; it is cleared **atomically**
  (:meth:`InternTable.clear`) — partial eviction could leave a key
  whose child ``id()`` now names a different object.

A second map makes interning *incremental*: every raw object ever
interned is memoized by its ``id()`` (with a strong reference keeping
the id stable).  Substitution, ``normalize`` and ``replace_leaves``
share the subtrees they do not touch by reference, so interning a
transition's target re-walks only the rewritten spine — the walk stops
at the first node the parent state already routed through the table.
A caller that assembles nodes from interned children needs no walk at
all: :meth:`InternTable.parallel` and :meth:`InternTable.restriction`
return the canonical instance directly.

The interned instances are the ordinary frozen dataclasses from
:mod:`repro.core.terms` / :mod:`repro.core.processes` — interning adds
no wrapper type, so interned and plain nodes mix freely (``==`` between
them stays structural).  Pickling an interned tree is safe: pickle
walks the object graph and re-creates plain nodes; re-interning happens
lazily on first use in the loading process.
"""

from __future__ import annotations

from typing import Optional

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
    Term,
    Var,
    Zero,
)


class InternTable:
    """A table of canonical instances, keyed structurally in O(arity).

    ``term`` / ``process`` / ``channel`` return the canonical instance
    for their argument, interning all sub-structure on the way; the
    argument itself becomes the canonical instance when its node class
    is seen for the first time (no needless copy).
    """

    __slots__ = ("_nodes", "_nil", "_memo")

    def __init__(self) -> None:
        self._nodes: dict[tuple, object] = {}
        self._nil: Optional[Nil] = None
        # id(raw object) -> (raw object, canonical instance).  The raw
        # reference pins the id; the self-entry for canonical instances
        # lets walks stop at already-interned boundaries.
        self._memo: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._nodes) + (1 if self._nil is not None else 0)

    def clear(self) -> None:
        """Drop every canonical instance (atomic: all or nothing)."""
        self._nodes.clear()
        self._memo.clear()
        self._nil = None

    # -- internals ------------------------------------------------------

    def _node(self, key: tuple, candidate):
        """The canonical instance for ``key`` (``candidate`` if new).

        ``candidate`` must already have interned children — callers
        rebuild it from interned parts when any child changed identity.
        """
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = candidate
        return node

    def _memoize(self, raw, node):
        self._memo[id(raw)] = (raw, node)
        if raw is not node and id(node) not in self._memo:
            self._memo[id(node)] = (node, node)
        return node

    # -- terms ----------------------------------------------------------

    def term(self, t: Term) -> Term:
        """The canonical instance of ``t`` (recursively interned)."""
        hit = self._memo.get(id(t))
        if hit is not None:
            return hit[1]
        return self._memoize(t, self._term(t))

    def _term(self, t: Term) -> Term:
        cls = type(t)
        if cls is Name:
            return self._node((Name, t.base, t.uid, t.creator), t)
        if cls is Var:
            return self._node((Var, t.ident, t.uid), t)
        if cls is Zero:
            return self._node((Zero,), t)
        if cls is Pair:
            first = self.term(t.first)
            second = self.term(t.second)
            if first is not t.first or second is not t.second:
                t = Pair(first, second)
            return self._node((Pair, id(first), id(second)), t)
        if cls is Succ:
            inner = self.term(t.term)
            if inner is not t.term:
                t = Succ(inner)
            return self._node((Succ, id(inner)), t)
        if cls is SharedEnc:
            body = tuple(self.term(part) for part in t.body)
            key = self.term(t.key)
            if key is not t.key or any(a is not b for a, b in zip(body, t.body)):
                t = SharedEnc(body, key)
            return self._node(
                (SharedEnc, tuple(id(part) for part in body), id(key)), t
            )
        if cls is Localized:
            inner = self.term(t.term)
            if inner is not t.term:
                t = Localized(t.creator, inner)
            return self._node((Localized, t.creator, id(inner)), t)
        if cls is At:
            inner = None if t.term is None else self.term(t.term)
            if inner is not t.term:
                t = At(t.address, inner)
            return self._node(
                (At, t.address, None if inner is None else id(inner)), t
            )
        raise TypeError(f"cannot intern term {t!r}")

    # -- channels -------------------------------------------------------

    def channel(self, ch: Channel) -> Channel:
        hit = self._memo.get(id(ch))
        if hit is not None:
            return hit[1]
        return self._memoize(ch, self._channel(ch))

    def _channel(self, ch: Channel) -> Channel:
        subject = self.term(ch.subject)
        index = ch.index
        if type(index) is LocVar:
            index = self._node((LocVar, index.ident, index.uid), index)
        if subject is not ch.subject or index is not ch.index:
            ch = Channel(subject, index)
        # RelativeAddress / Location / None index values are small flat
        # data; they key directly.
        idx_key = id(index) if type(index) is LocVar else index
        return self._node((Channel, id(subject), idx_key), ch)

    def _var(self, v: Var) -> Var:
        return self._node((Var, v.ident, v.uid), v)

    # -- arena construction ---------------------------------------------

    # Nodes built straight from interned children: the node object is
    # only allocated when the table lacks it, and a new node gets its
    # self-entry in the raw-object memo, so a later :meth:`process`
    # stops at it without a walk.

    def parallel(self, left: Process, right: Process) -> Parallel:
        """The canonical ``left | right`` of two *interned* processes."""
        key = (Parallel, id(left), id(right))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = Parallel(left, right)
            self._memo[id(node)] = (node, node)
        return node

    def restriction(self, name: Name, body: Process) -> Restriction:
        """The canonical ``(nu name) body`` of an *interned* name and body."""
        key = (Restriction, id(name), id(body))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = Restriction(name, body)
            self._memo[id(node)] = (node, node)
        return node

    # -- processes ------------------------------------------------------

    def process(self, p: Process) -> Process:
        """The canonical instance of ``p`` (recursively interned)."""
        hit = self._memo.get(id(p))
        if hit is not None:
            return hit[1]
        return self._memoize(p, self._process(p))

    def _process(self, p: Process) -> Process:
        cls = type(p)
        if cls is Nil:
            if self._nil is None:
                self._nil = p
            return self._nil
        if cls is Output:
            channel = self.channel(p.channel)
            value = self.term(p.payload)
            cont = self.process(p.continuation)
            if (
                channel is not p.channel
                or value is not p.payload
                or cont is not p.continuation
            ):
                p = Output(channel, value, cont)
            return self._node((Output, id(channel), id(value), id(cont)), p)
        if cls is Input:
            channel = self.channel(p.channel)
            binder = self._var(p.binder)
            cont = self.process(p.continuation)
            if (
                channel is not p.channel
                or binder is not p.binder
                or cont is not p.continuation
            ):
                p = Input(channel, binder, cont)
            return self._node((Input, id(channel), id(binder), id(cont)), p)
        if cls is Parallel:
            left = self.process(p.left)
            right = self.process(p.right)
            if left is not p.left or right is not p.right:
                p = Parallel(left, right)
            return self._node((Parallel, id(left), id(right)), p)
        if cls is Replication:
            body = self.process(p.body)
            if body is not p.body:
                p = Replication(body)
            return self._node((Replication, id(body)), p)
        if cls is Restriction:
            name = self.term(p.name)
            body = self.process(p.body)
            if name is not p.name or body is not p.body:
                p = Restriction(name, body)
            return self._node((Restriction, id(name), id(body)), p)
        if cls is Match:
            left = self.term(p.left)
            right = self.term(p.right)
            cont = self.process(p.continuation)
            if (
                left is not p.left
                or right is not p.right
                or cont is not p.continuation
            ):
                p = Match(left, right, cont)
            return self._node((Match, id(left), id(right), id(cont)), p)
        if cls is AddrMatch:
            left = self.term(p.left)
            right = self.term(p.right)
            cont = self.process(p.continuation)
            if (
                left is not p.left
                or right is not p.right
                or cont is not p.continuation
            ):
                p = AddrMatch(left, right, cont)
            return self._node((AddrMatch, id(left), id(right), id(cont)), p)
        if cls is Case:
            scrutinee = self.term(p.scrutinee)
            binders = tuple(self._var(b) for b in p.binders)
            key = self.term(p.key)
            cont = self.process(p.continuation)
            if (
                scrutinee is not p.scrutinee
                or key is not p.key
                or cont is not p.continuation
                or any(a is not b for a, b in zip(binders, p.binders))
            ):
                p = Case(scrutinee, binders, key, cont)
            return self._node(
                (
                    Case,
                    id(scrutinee),
                    tuple(id(b) for b in binders),
                    id(key),
                    id(cont),
                ),
                p,
            )
        if cls is IntCase:
            scrutinee = self.term(p.scrutinee)
            zero_branch = self.process(p.zero_branch)
            binder = self._var(p.binder)
            succ_branch = self.process(p.succ_branch)
            if (
                scrutinee is not p.scrutinee
                or zero_branch is not p.zero_branch
                or binder is not p.binder
                or succ_branch is not p.succ_branch
            ):
                p = IntCase(scrutinee, zero_branch, binder, succ_branch)
            return self._node(
                (IntCase, id(scrutinee), id(zero_branch), id(binder), id(succ_branch)),
                p,
            )
        if cls is Split:
            scrutinee = self.term(p.scrutinee)
            first = self._var(p.first)
            second = self._var(p.second)
            cont = self.process(p.continuation)
            if (
                scrutinee is not p.scrutinee
                or first is not p.first
                or second is not p.second
                or cont is not p.continuation
            ):
                p = Split(scrutinee, first, second, cont)
            return self._node(
                (Split, id(scrutinee), id(first), id(second), id(cont)), p
            )
        raise TypeError(f"cannot intern process {p!r}")
