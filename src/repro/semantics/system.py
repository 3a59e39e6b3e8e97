"""Runnable systems: instantiated processes with located, private names.

The paper's abstract machine gives every restricted name an identity tied
to the *location of its creator* ("Names of the pi-calculus agents
handled locally") and keeps relative addresses out of user reach.  This
module performs the corresponding *instantiation* pass:

* every restriction that is not under a replication is removed and its
  name replaced, throughout its scope, by a fresh :class:`Name` carrying
  a unique id and the absolute location at which the restriction would
  become active (predicted statically, which is sound because the tree
  of sequential processes only ever grows downward at leaves);
* restrictions under a replication stay in the template and are
  instantiated per copy when the replication unfolds (see
  :mod:`repro.semantics.transitions`);
* the set of private names is tracked on the side: actions on private
  channels are internal and never barbs.

A :class:`System` is the unit the semantics, the equivalence checkers
and the analyses all operate on.  Systems are immutable; transitions
produce new systems.

Composition (protocol ``|`` attacker ``|`` tester) must happen on *raw*
processes before instantiation, because locations — and therefore name
identities and address literals — depend on the final shape of the tree.
Use :func:`build_system` for that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.core.addresses import Location, RelativeAddress, is_prefix
from repro.core.errors import InstantiationError
from repro.core.processes import (
    AddrMatch,
    Case,
    Channel,
    Input,
    IntCase,
    Match,
    Nil,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
    Split,
    free_variables,
    parallel,
    restrict,
    walk_leaves,
)
from repro.core.substitution import rename_names
from repro.core.terms import Name, fresh_uid
from repro.runtime.faults import CANONICAL, fault_hook
from repro.semantics.canonical import state_key
from repro.syntax.pretty import render_process


@dataclass(frozen=True, slots=True)
class System:
    """An instantiated, runnable system.

    Attributes:
        root: the instantiated process (no live restrictions outside
            replication templates).
        private: names that are restricted — actions on them are never
            observable.
        roles: ``(location-prefix, label)`` pairs naming the principals,
            used for diagnostics and attack narrations.
    """

    root: Process
    private: frozenset[Name] = frozenset()
    roles: tuple[tuple[Location, str], ...] = ()
    _key_cache: Optional[str] = field(
        default=None, compare=False, repr=False, hash=False
    )

    # -- naming ---------------------------------------------------------

    def role_at(self, loc: Location) -> str:
        """Human label for the principal owning ``loc``.

        The deepest registered prefix wins; replication instances get an
        ``[...]`` suffix showing the copy path.  Unregistered locations
        render as the bare location.
        """
        best: Optional[tuple[Location, str]] = None
        for prefix, label in self.roles:
            if is_prefix(prefix, loc) and (best is None or len(prefix) > len(best[0])):
                best = (prefix, label)
        if best is None:
            from repro.core.addresses import location_str

            return location_str(loc)
        prefix, label = best
        rest = loc[len(prefix):]
        return label if not rest else f"{label}[{''.join(map(str, rest))}]"

    def location_of(self, label: str) -> Location:
        """The registered location prefix of a role label."""
        for prefix, role in self.roles:
            if role == label:
                return prefix
        raise KeyError(f"no role named {label!r}")

    def address(self, target: str, observer: str) -> RelativeAddress:
        """Relative address of role ``target`` as seen by ``observer``."""
        return RelativeAddress.between(
            observer=self.location_of(observer), target=self.location_of(target)
        )

    # -- structure ------------------------------------------------------

    def leaves(self) -> Iterator[tuple[Location, Process]]:
        """The tree of sequential processes of the current state."""
        return walk_leaves(self.root)

    def with_root(self, root: Process, new_private: frozenset[Name] = frozenset()) -> "System":
        # Keeping the private set itself when nothing is added saves a
        # copy per successor.
        private = self.private | new_private if new_private else self.private
        return System(root, private, self.roles)

    # -- rendering ------------------------------------------------------

    def pretty(self, unicode: bool = False) -> str:
        return render_process(self.root, unicode=unicode)

    def canonical_key(self) -> str:
        """Alpha-invariant state key used for deduplication (cached).

        Computed through :func:`repro.semantics.canonical.state_key`:
        hash-consed and memoized when the state cache is enabled,
        rendered from scratch otherwise — byte-identical either way.
        The roles are passed along so symmetry canonicalization (when
        active) can merge states that differ only by a permutation of
        replicated sibling sessions within one role.
        """
        if self._key_cache is None:
            fault_hook(CANONICAL)
            object.__setattr__(self, "_key_cache", state_key(self.root, self.roles))
        return self._key_cache

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.pretty()


# ----------------------------------------------------------------------
# Instantiation
# ----------------------------------------------------------------------


def instantiate_names(proc: Process, at: Location) -> tuple[Process, frozenset[Name]]:
    """Activate every restriction of ``proc`` not guarded by ``!``.

    Each such restriction is erased; its name is replaced throughout the
    scope by a fresh name whose ``creator`` is the location the
    restriction governs.  The location is tracked through *all* process
    structure (including continuations of prefixes), mirroring where the
    tree of sequential processes will place the scope once active.

    Returns the rewritten process and the set of activated names.
    """
    created: set[Name] = set()

    def go(p: Process, loc: Location) -> Process:
        if isinstance(p, Restriction):
            fresh = Name(p.name.base, fresh_uid(), creator=loc)
            created.add(fresh)
            return go(rename_names(p.body, {p.name: fresh}), loc)
        if isinstance(p, Parallel):
            return Parallel(go(p.left, loc + (0,)), go(p.right, loc + (1,)))
        if isinstance(p, Replication):
            return p  # template: per-copy instantiation happens at unfold
        if isinstance(p, Output):
            return Output(p.channel, p.payload, go(p.continuation, loc))
        if isinstance(p, Input):
            return Input(p.channel, p.binder, go(p.continuation, loc))
        if isinstance(p, Match):
            return Match(p.left, p.right, go(p.continuation, loc))
        if isinstance(p, AddrMatch):
            return AddrMatch(p.left, p.right, go(p.continuation, loc))
        if isinstance(p, Case):
            return Case(p.scrutinee, p.binders, p.key, go(p.continuation, loc))
        if isinstance(p, Split):
            return Split(p.scrutinee, p.first, p.second, go(p.continuation, loc))
        if isinstance(p, IntCase):
            return IntCase(
                p.scrutinee, go(p.zero_branch, loc), p.binder, go(p.succ_branch, loc)
            )
        if isinstance(p, Nil):
            return p
        raise InstantiationError(f"unknown process {p!r}")

    return go(proc, at), frozenset(created)


def instantiate(
    proc: Process,
    roles: Sequence[tuple[Location, str]] = (),
    extra_private: Sequence[Name] = (),
) -> System:
    """Turn a raw (source) process into a runnable :class:`System`.

    ``extra_private`` marks additional names as unobservable without
    restricting them syntactically (occasionally useful in tests).
    Raises :class:`InstantiationError` when the process has free
    variables — only closed systems can run.
    """
    fv = free_variables(proc)
    if fv:
        pretty = ", ".join(sorted(v.render() for v in fv))
        raise InstantiationError(f"cannot instantiate open process (free: {pretty})")
    root, created = instantiate_names(proc, at=())
    from repro.semantics.normalize import normalize

    return System(
        root=normalize(root),
        private=created | frozenset(extra_private),
        roles=tuple(roles),
    )


def build_system(
    parts: Sequence[tuple[str, Process]],
    private_channels: Sequence[Name] = (),
) -> System:
    """Compose labelled principals and instantiate the result.

    ``parts`` is a sequence of ``(label, raw_process)`` pairs.  They are
    combined with a left-associated parallel composition — the same shape
    the paper uses, e.g. ``((P | E) | T)`` — and the whole composition is
    wrapped in restrictions for ``private_channels`` (the ``(nu c1) ...
    (nu cn)`` of Definition 4, which hides the protocol channels from
    observation).

    Role labels are registered at the principals' locations so that
    diagnostics and narrations can speak of ``A``, ``B``, ``E``...
    """
    if not parts:
        raise InstantiationError("cannot build an empty system")
    labels = [label for label, _ in parts]
    if len(set(labels)) != len(labels):
        raise InstantiationError(f"duplicate role labels in {labels}")

    locations = left_associated_locations(len(parts))
    roles = [(loc, label) for loc, (label, _) in zip(locations, parts)]
    composed = parallel(*(p for _, p in parts))
    composed = restrict(tuple(private_channels), composed)
    return instantiate(composed, roles=roles)


def left_associated_locations(count: int) -> list[Location]:
    """Locations of the leaves of a left-associated ``count``-ary parallel.

    For ``count=3`` — the shape ``(P0 | P1) | P2`` — this returns
    ``[(0, 0), (0, 1), (1,)]``.
    """
    if count < 1:
        raise InstantiationError("need at least one leaf")
    if count == 1:
        return [()]
    locations: list[Location] = []
    # The first two leaves sit under count-2 further left-nestings.
    depth = count - 1
    locations.append((0,) * depth)
    locations.append((0,) * (depth - 1) + (1,))
    for i in range(2, count):
        locations.append((0,) * (count - 1 - i) + (1,))
    return locations
