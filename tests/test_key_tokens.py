"""Symmetric state keys assembled from interned tokens.

Key assembly numbers interned identity tokens and rebases interned
location tokens instead of rewriting a rendered string.  These tests
hold it to two things the parity suites do not check directly:

* the symmetric key of a state **is** the plain key of the physically
  permuted state, with :func:`repro.syntax.pretty.canonical_process` and
  :func:`repro.semantics.reduction.permute_sessions` as a reference
  that shares no token code with the assembly;
* the token tables and per-node memos live and die with the intern
  table: the cache-off path writes none of them, and every clear (by
  :func:`clear_caches` or by the ``MAX_INTERNED_NODES`` bound) drops
  them all.
"""

from __future__ import annotations

import pytest

from repro.core.processes import Parallel
from repro.equivalence.testing import compose
from repro.obs.metrics import Metrics, collecting
from repro.protocols.library import narration_configuration
from repro.protocols.zoo import ZOO
from repro.semantics import canonical, reduction
from repro.semantics.lts import Budget, explore
from repro.semantics.reduction import permute_sessions
from repro.syntax.pretty import canonical_process

#: The replicated zoo at the depths of the ``explore-cold`` benchmark.
HORIZONS = (
    ("needham-schroeder-sk", 5),
    ("otway-rees", 4),
    ("woo-lam", 5),
    ("yahalom", 4),
)


@pytest.fixture(autouse=True)
def _full_mode_fresh_cache():
    previous = reduction.set_reduction_mode("full")
    canonical.set_cache_enabled(True)
    canonical.clear_caches()
    yield
    reduction.set_reduction_mode(previous)
    canonical.set_cache_enabled(True)
    canonical.clear_caches()


def replicated(name: str):
    spec = ZOO[name](replicate=True)
    return compose(
        narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")
    )


def sorted_spines(system) -> list[tuple[tuple, tuple]]:
    """``(head, order)`` of every spine the symmetric key sorts, with
    ``order`` the location-blind sort order of its slots.

    Mirrors the walk of key assembly: a role-gated spine is sorted and
    its slots searched at their original positions; any other parallel
    is searched on both sides.
    """
    found = []

    def walk(node, at):
        if node.__class__ is not Parallel:
            return
        chain = canonical._chain(node)
        if chain is not None and canonical._role_gate(at, system.roles):
            slots, _template = chain
            below = [at + (1,) * i + (0,) for i in range(len(slots))]
            blinds = [canonical._blind(s, pos, False) for s, pos in zip(slots, below)]
            found.append((at, tuple(sorted(range(len(slots)), key=blinds.__getitem__))))
            for slot, pos in zip(slots, below):
                walk(slot, pos)
            return
        walk(node.left, at + (0,))
        walk(node.right, at + (1,))

    if canonical._sym_safe(system.root, None):
        walk(system.root, ())
    return found


def reordered(spines) -> list[tuple[tuple, tuple]]:
    return [(head, order) for head, order in spines if order != tuple(sorted(order))]


def all_memos() -> dict[str, int]:
    """Sizes of every module-level table key assembly writes."""
    sizes = {slot: len(getattr(canonical._cache, slot)) for slot in canonical._Tables.__slots__}
    sizes.update(
        interned=canonical.interned_size(),
        keys=len(canonical._keys),
        sym_keys=len(canonical._sym_keys),
        successors=len(canonical._successors),
    )
    return sizes


class TestPermutationOracle:
    @pytest.mark.parametrize("name,depth", HORIZONS)
    def test_symmetric_key_is_the_plain_key_of_the_permuted_state(self, name, depth):
        graph = explore(replicated(name), Budget(50_000, depth))
        checked = 0
        for system in graph.states.values():
            moves = reordered(sorted_spines(system))
            if len(moves) > 1:
                continue
            key = canonical.state_key(system.root, system.roles)
            if not moves:
                assert key == canonical_process(system.root)
                continue
            head, order = moves[0]
            permuted = permute_sessions(system, head, order)
            assert key == canonical_process(permuted.root)
            checked += 1
        assert checked, f"no state of {name} reorders exactly one spine"

    def test_assembly_counts_the_same_reorders_as_the_walk(self):
        # The oracle above selects states by its own walk; the engine's
        # reorder counter must agree with it on every state.
        graph = explore(replicated("woo-lam"), Budget(50_000, 5))
        for system in graph.states.values():
            canonical.clear_caches()
            before = canonical.sym_reorder_count()
            canonical.state_key(system.root, system.roles)
            assert canonical.sym_reorder_count() - before == len(
                reordered(sorted_spines(system))
            )


class TestMemoLifetime:
    def test_cache_off_writes_no_module_level_memo(self):
        canonical.set_cache_enabled(False)
        with collecting(Metrics()) as metrics:
            graph = explore(replicated("otway-rees"), Budget(50_000, 4))
        assert metrics.to_json()["counters"].get("reduction.sym_merge", 0) > 0
        assert graph.state_count() > 0
        assert set(all_memos().values()) == {0}, all_memos()

    def test_clear_caches_empties_every_table(self):
        explore(replicated("otway-rees"), Budget(50_000, 4))
        filled = all_memos()
        for name in ("ids", "locs", "flats", "plans", "blinds", "safe", "spiny", "sym_keys"):
            assert filled[name] > 0, name
        canonical.clear_caches()
        assert set(all_memos().values()) == {0}, all_memos()

    def test_interned_bound_drops_every_table(self, monkeypatch):
        states = list(explore(replicated("otway-rees"), Budget(50_000, 4)).states.values())
        expected = [canonical.state_key(s.root, s.roles) for s in states]
        canonical.clear_caches()
        # With the bound at one node every key assembly ends in a clear.
        monkeypatch.setattr(canonical, "MAX_INTERNED_NODES", 1)
        for state, key in zip(states, expected):
            assert canonical.state_key(state.root, state.roles) == key
            assert set(all_memos().values()) == {0}, all_memos()
