"""Substitution and renaming for terms and processes.

Three kinds of replacement are needed by the abstract machine:

* **variable substitution** ``P{M/x}`` — performed by communication and
  decryption; capture-avoiding with respect to input/case binders (bound
  variables are alpha-renamed when they would capture);
* **name renaming** — used to *freshen* the copy spawned by a
  replication, giving every bound name (and bound variable) of the copy
  a new unique identity;
* **location-variable instantiation** — binds a channel-index variable
  ``lam`` to a concrete partner location during the first communication.

Restriction binders never capture during variable substitution because
instantiated names carry unique ids; on raw (pre-instantiation) syntax we
still alpha-rename defensively.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.addresses import Location
from repro.core.errors import SubstitutionError
from repro.core.processes import (
    AddrMatch,
    Case,
    Channel,
    ChannelIndex,
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
    fresh_uid,
    names_of,
    variables_of,
)

# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------


def subst_term(term: Term, mapping: Mapping[Var, Term]) -> Term:
    """Apply a variable-to-term substitution inside a term.

    Subterms the substitution leaves unchanged are returned as the same
    object, so interned subterms keep their identity.
    """
    if not mapping:
        return term
    if isinstance(term, Var):
        return mapping.get(term, term)
    if isinstance(term, (Name, Zero)):
        return term
    if isinstance(term, Pair):
        first = subst_term(term.first, mapping)
        second = subst_term(term.second, mapping)
        if first is term.first and second is term.second:
            return term
        return Pair(first, second)
    if isinstance(term, Succ):
        inner = subst_term(term.term, mapping)
        return term if inner is term.term else Succ(inner)
    if isinstance(term, SharedEnc):
        body = tuple(subst_term(part, mapping) for part in term.body)
        key = subst_term(term.key, mapping)
        if key is term.key and all(a is b for a, b in zip(body, term.body)):
            return term
        return SharedEnc(body, key)
    if isinstance(term, Localized):
        inner = subst_term(term.term, mapping)
        return term if inner is term.term else Localized(term.creator, inner)
    if isinstance(term, At):
        if term.term is None:
            return term
        inner = subst_term(term.term, mapping)
        return term if inner is term.term else At(term.address, inner)
    raise SubstitutionError(f"unknown term {term!r}")


def rename_names_term(term: Term, mapping: Mapping[Name, Name]) -> Term:
    """Apply a name-to-name renaming inside a term."""
    if not mapping:
        return term
    if isinstance(term, Name):
        return mapping.get(term, term)
    if isinstance(term, Var):
        return term
    if isinstance(term, Pair):
        return Pair(
            rename_names_term(term.first, mapping), rename_names_term(term.second, mapping)
        )
    if isinstance(term, Zero):
        return term
    if isinstance(term, Succ):
        return Succ(rename_names_term(term.term, mapping))
    if isinstance(term, SharedEnc):
        return SharedEnc(
            tuple(rename_names_term(part, mapping) for part in term.body),
            rename_names_term(term.key, mapping),
        )
    if isinstance(term, Localized):
        return Localized(term.creator, rename_names_term(term.term, mapping))
    if isinstance(term, At):
        inner = None if term.term is None else rename_names_term(term.term, mapping)
        return At(term.address, inner)
    raise SubstitutionError(f"unknown term {term!r}")


def rename_vars_term(term: Term, mapping: Mapping[Var, Var]) -> Term:
    """Apply a variable-to-variable renaming inside a term."""
    return subst_term(term, mapping)


# ----------------------------------------------------------------------
# Processes: variable substitution
# ----------------------------------------------------------------------


def _subst_channel(ch: Channel, mapping: Mapping[Var, Term]) -> Channel:
    subject = subst_term(ch.subject, mapping)
    return ch if subject is ch.subject else Channel(subject, ch.index)


def _fresh_var(var: Var) -> Var:
    return Var(var.ident, fresh_uid())


def subst(proc: Process, mapping: Mapping[Var, Term]) -> Process:
    """Capture-avoiding substitution ``proc{mapping}``.

    Binders (input, case, split) occurring in ``proc`` are alpha-renamed
    when they clash with the domain of the substitution or with variables
    free in its range.  Subtrees the substitution does not change are
    returned as the same object (``subst(P, m) is P`` when ``P``
    mentions no variable of the domain or range of ``m``), so interned
    subtrees keep their identity and re-interning a result stops at
    them.
    """
    mapping = {k: v for k, v in mapping.items() if k != v}
    if not mapping:
        return proc
    range_vars: set[Var] = set()
    for value in mapping.values():
        range_vars |= variables_of(value)
    return _subst(proc, mapping, range_vars)


def _under(
    binders: tuple[Var, ...], body: Process, mapping: dict[Var, Term], range_vars: set[Var]
) -> tuple[tuple[Var, ...], Process]:
    """Substitute below ``binders``, renaming them first on a clash."""
    if any(b in mapping or b in range_vars for b in binders):
        fresh = tuple(_fresh_var(b) for b in binders)
        body = subst(body, dict(zip(binders, fresh)))
        binders = fresh
    return binders, _subst(body, mapping, range_vars)


def _subst(proc: Process, mapping: dict[Var, Term], range_vars: set[Var]) -> Process:
    """:func:`subst` below the top level.

    ``range_vars`` is computed once per top-level call.  A binder is
    renamed whenever it lies in the domain or clashes with the range, so
    below every binder the mapping is unchanged and both are passed down
    as they are.
    """
    if isinstance(proc, Nil):
        return proc
    if isinstance(proc, Output):
        channel = _subst_channel(proc.channel, mapping)
        value = subst_term(proc.payload, mapping)
        cont = _subst(proc.continuation, mapping, range_vars)
        if (
            channel is proc.channel
            and value is proc.payload
            and cont is proc.continuation
        ):
            return proc
        return Output(channel, value, cont)
    if isinstance(proc, Input):
        channel = _subst_channel(proc.channel, mapping)
        (binder,), cont = _under((proc.binder,), proc.continuation, mapping, range_vars)
        if (
            channel is proc.channel
            and binder is proc.binder
            and cont is proc.continuation
        ):
            return proc
        return Input(channel, binder, cont)
    if isinstance(proc, Restriction):
        body = _subst(proc.body, mapping, range_vars)
        return proc if body is proc.body else Restriction(proc.name, body)
    if isinstance(proc, Parallel):
        left = _subst(proc.left, mapping, range_vars)
        right = _subst(proc.right, mapping, range_vars)
        if left is proc.left and right is proc.right:
            return proc
        return Parallel(left, right)
    if isinstance(proc, (Match, AddrMatch)):
        left = subst_term(proc.left, mapping)
        right = subst_term(proc.right, mapping)
        cont = _subst(proc.continuation, mapping, range_vars)
        if left is proc.left and right is proc.right and cont is proc.continuation:
            return proc
        return type(proc)(left, right, cont)
    if isinstance(proc, Replication):
        body = _subst(proc.body, mapping, range_vars)
        return proc if body is proc.body else Replication(body)
    if isinstance(proc, Case):
        scrutinee = subst_term(proc.scrutinee, mapping)
        key = subst_term(proc.key, mapping)
        binders, cont = _under(proc.binders, proc.continuation, mapping, range_vars)
        if (
            scrutinee is proc.scrutinee
            and key is proc.key
            and binders is proc.binders
            and cont is proc.continuation
        ):
            return proc
        return Case(scrutinee, binders, key, cont)
    if isinstance(proc, IntCase):
        scrutinee = subst_term(proc.scrutinee, mapping)
        zero_branch = _subst(proc.zero_branch, mapping, range_vars)
        (binder,), succ_branch = _under((proc.binder,), proc.succ_branch, mapping, range_vars)
        if (
            scrutinee is proc.scrutinee
            and zero_branch is proc.zero_branch
            and binder is proc.binder
            and succ_branch is proc.succ_branch
        ):
            return proc
        return IntCase(scrutinee, zero_branch, binder, succ_branch)
    if isinstance(proc, Split):
        scrutinee = subst_term(proc.scrutinee, mapping)
        (first, second), cont = _under(
            (proc.first, proc.second), proc.continuation, mapping, range_vars
        )
        if (
            scrutinee is proc.scrutinee
            and first is proc.first
            and second is proc.second
            and cont is proc.continuation
        ):
            return proc
        return Split(scrutinee, first, second, cont)
    raise SubstitutionError(f"unknown process {proc!r}")


def subst1(proc: Process, var: Var, value: Term) -> Process:
    """Single-variable convenience wrapper around :func:`subst`."""
    return subst(proc, {var: value})


# ----------------------------------------------------------------------
# Processes: name renaming (used by replication freshening)
# ----------------------------------------------------------------------


def rename_names(proc: Process, mapping: Mapping[Name, Name]) -> Process:
    """Apply a name renaming everywhere, *including* restriction binders.

    This is a raw renaming: the caller (the freshening pass) is
    responsible for the mapping being injective and fresh, so no capture
    can occur.
    """
    if not mapping:
        return proc
    if isinstance(proc, Nil):
        return proc
    if isinstance(proc, Output):
        return Output(
            Channel(rename_names_term(proc.channel.subject, mapping), proc.channel.index),
            rename_names_term(proc.payload, mapping),
            rename_names(proc.continuation, mapping),
        )
    if isinstance(proc, Input):
        return Input(
            Channel(rename_names_term(proc.channel.subject, mapping), proc.channel.index),
            proc.binder,
            rename_names(proc.continuation, mapping),
        )
    if isinstance(proc, Restriction):
        return Restriction(
            mapping.get(proc.name, proc.name), rename_names(proc.body, mapping)
        )
    if isinstance(proc, Parallel):
        return Parallel(rename_names(proc.left, mapping), rename_names(proc.right, mapping))
    if isinstance(proc, Match):
        return Match(
            rename_names_term(proc.left, mapping),
            rename_names_term(proc.right, mapping),
            rename_names(proc.continuation, mapping),
        )
    if isinstance(proc, AddrMatch):
        return AddrMatch(
            rename_names_term(proc.left, mapping),
            rename_names_term(proc.right, mapping),
            rename_names(proc.continuation, mapping),
        )
    if isinstance(proc, Replication):
        return Replication(rename_names(proc.body, mapping))
    if isinstance(proc, Case):
        return Case(
            rename_names_term(proc.scrutinee, mapping),
            proc.binders,
            rename_names_term(proc.key, mapping),
            rename_names(proc.continuation, mapping),
        )
    if isinstance(proc, IntCase):
        return IntCase(
            rename_names_term(proc.scrutinee, mapping),
            rename_names(proc.zero_branch, mapping),
            proc.binder,
            rename_names(proc.succ_branch, mapping),
        )
    if isinstance(proc, Split):
        return Split(
            rename_names_term(proc.scrutinee, mapping),
            proc.first,
            proc.second,
            rename_names(proc.continuation, mapping),
        )
    raise SubstitutionError(f"unknown process {proc!r}")


def rename_vars(proc: Process, mapping: Mapping[Var, Var]) -> Process:
    """Apply a variable renaming everywhere, *including* binders.

    Like :func:`rename_names`, intended for injective fresh renamings.
    """
    if not mapping:
        return proc
    if isinstance(proc, Input):
        return Input(
            Channel(rename_vars_term(proc.channel.subject, mapping), proc.channel.index),
            mapping.get(proc.binder, proc.binder),
            rename_vars(proc.continuation, mapping),
        )
    if isinstance(proc, Case):
        return Case(
            rename_vars_term(proc.scrutinee, mapping),
            tuple(mapping.get(b, b) for b in proc.binders),
            rename_vars_term(proc.key, mapping),
            rename_vars(proc.continuation, mapping),
        )
    if isinstance(proc, Split):
        return Split(
            rename_vars_term(proc.scrutinee, mapping),
            mapping.get(proc.first, proc.first),
            mapping.get(proc.second, proc.second),
            rename_vars(proc.continuation, mapping),
        )
    if isinstance(proc, Output):
        return Output(
            Channel(rename_vars_term(proc.channel.subject, mapping), proc.channel.index),
            rename_vars_term(proc.payload, mapping),
            rename_vars(proc.continuation, mapping),
        )
    if isinstance(proc, Nil):
        return proc
    if isinstance(proc, Restriction):
        return Restriction(proc.name, rename_vars(proc.body, mapping))
    if isinstance(proc, Parallel):
        return Parallel(rename_vars(proc.left, mapping), rename_vars(proc.right, mapping))
    if isinstance(proc, Match):
        return Match(
            rename_vars_term(proc.left, mapping),
            rename_vars_term(proc.right, mapping),
            rename_vars(proc.continuation, mapping),
        )
    if isinstance(proc, AddrMatch):
        return AddrMatch(
            rename_vars_term(proc.left, mapping),
            rename_vars_term(proc.right, mapping),
            rename_vars(proc.continuation, mapping),
        )
    if isinstance(proc, Replication):
        return Replication(rename_vars(proc.body, mapping))
    if isinstance(proc, IntCase):
        return IntCase(
            rename_vars_term(proc.scrutinee, mapping),
            rename_vars(proc.zero_branch, mapping),
            mapping.get(proc.binder, proc.binder),
            rename_vars(proc.succ_branch, mapping),
        )
    raise SubstitutionError(f"unknown process {proc!r}")


# ----------------------------------------------------------------------
# Location-variable instantiation
# ----------------------------------------------------------------------


def instantiate_locvar(proc: Process, locvar: LocVar, location: Location) -> Process:
    """Bind a location variable to a concrete partner location.

    Every channel index equal to ``locvar`` in ``proc`` becomes the
    absolute ``location``.  Performed by the communication rule the first
    time a thread uses a ``c@lam`` channel; afterwards the whole session
    is pinned to that partner.
    """

    def fix_index(index: ChannelIndex) -> ChannelIndex:
        return location if index == locvar else index

    if isinstance(proc, Output):
        return Output(
            Channel(proc.channel.subject, fix_index(proc.channel.index)),
            proc.payload,
            instantiate_locvar(proc.continuation, locvar, location),
        )
    if isinstance(proc, Input):
        return Input(
            Channel(proc.channel.subject, fix_index(proc.channel.index)),
            proc.binder,
            instantiate_locvar(proc.continuation, locvar, location),
        )
    if isinstance(proc, Nil):
        return proc
    if isinstance(proc, Restriction):
        return Restriction(proc.name, instantiate_locvar(proc.body, locvar, location))
    if isinstance(proc, Parallel):
        return Parallel(
            instantiate_locvar(proc.left, locvar, location),
            instantiate_locvar(proc.right, locvar, location),
        )
    if isinstance(proc, Match):
        return Match(
            proc.left, proc.right, instantiate_locvar(proc.continuation, locvar, location)
        )
    if isinstance(proc, AddrMatch):
        return AddrMatch(
            proc.left, proc.right, instantiate_locvar(proc.continuation, locvar, location)
        )
    if isinstance(proc, Replication):
        return Replication(instantiate_locvar(proc.body, locvar, location))
    if isinstance(proc, Case):
        return Case(
            proc.scrutinee,
            proc.binders,
            proc.key,
            instantiate_locvar(proc.continuation, locvar, location),
        )
    if isinstance(proc, IntCase):
        return IntCase(
            proc.scrutinee,
            instantiate_locvar(proc.zero_branch, locvar, location),
            proc.binder,
            instantiate_locvar(proc.succ_branch, locvar, location),
        )
    if isinstance(proc, Split):
        return Split(
            proc.scrutinee,
            proc.first,
            proc.second,
            instantiate_locvar(proc.continuation, locvar, location),
        )
    raise SubstitutionError(f"unknown process {proc!r}")


# ----------------------------------------------------------------------
# Freshening (per-copy identity for replication and instantiation)
# ----------------------------------------------------------------------


def freshen_bound(proc: Process) -> Process:
    """Give every bound name and bound variable of ``proc`` a fresh uid.

    Used when a replication spawns a copy, so that restricted names of
    different copies are different names (the source of the paper's
    freshness guarantees) and binders never collide across copies.
    Location variables are freshened too: each copy binds its partner
    independently (Proposition 3).
    """
    from repro.core.processes import bound_names, free_locvars

    name_map = {n: Name(n.base, fresh_uid(), n.creator) for n in bound_names(proc)}
    proc = rename_names(proc, name_map)

    bound_vars: set[Var] = set()
    for sub in _walk(proc):
        if isinstance(sub, Input):
            bound_vars.add(sub.binder)
        elif isinstance(sub, Case):
            bound_vars.update(sub.binders)
        elif isinstance(sub, Split):
            bound_vars.update((sub.first, sub.second))
        elif isinstance(sub, IntCase):
            bound_vars.add(sub.binder)
    var_map = {v: Var(v.ident, fresh_uid()) for v in bound_vars}
    proc = rename_vars(proc, var_map)

    locvar_map = {lv: LocVar(lv.ident, fresh_uid()) for lv in free_locvars(proc)}
    for old, new in locvar_map.items():
        proc = _rename_locvar(proc, old, new)
    return proc


def _walk(proc: Process):
    from repro.core.processes import walk

    return walk(proc)


def _rename_locvar(proc: Process, old: LocVar, new: LocVar) -> Process:
    def fix(p: Process) -> Process:
        if isinstance(p, (Output, Input)) and p.channel.index == old:
            ch = Channel(p.channel.subject, new)
            if isinstance(p, Output):
                return Output(ch, p.payload, fix(p.continuation))
            return Input(ch, p.binder, fix(p.continuation))
        if isinstance(p, Output):
            return Output(p.channel, p.payload, fix(p.continuation))
        if isinstance(p, Input):
            return Input(p.channel, p.binder, fix(p.continuation))
        if isinstance(p, Nil):
            return p
        if isinstance(p, Restriction):
            return Restriction(p.name, fix(p.body))
        if isinstance(p, Parallel):
            return Parallel(fix(p.left), fix(p.right))
        if isinstance(p, Match):
            return Match(p.left, p.right, fix(p.continuation))
        if isinstance(p, AddrMatch):
            return AddrMatch(p.left, p.right, fix(p.continuation))
        if isinstance(p, Replication):
            return Replication(fix(p.body))
        if isinstance(p, Case):
            return Case(p.scrutinee, p.binders, p.key, fix(p.continuation))
        if isinstance(p, IntCase):
            return IntCase(p.scrutinee, fix(p.zero_branch), p.binder, fix(p.succ_branch))
        if isinstance(p, Split):
            return Split(p.scrutinee, p.first, p.second, fix(p.continuation))
        raise SubstitutionError(f"unknown process {p!r}")

    return fix(proc)
