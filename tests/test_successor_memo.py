"""The leaf and redex memos of the cached successor path.

A communication rewrites only the two leaves it synchronizes, so with
the state cache on :func:`repro.semantics.transitions.batched_successors`
reuses every other leaf's enabled prefixes (the leaf memo) and every
other output/input pair's outcome (the redex memo).  These tests check
that a child state recomputes only what its step rewrote, that the
memos stay untouched with the cache off, that they are
dropped with the intern table, and that on the replicated zoo the memo
path yields exactly the transitions of a computation from empty memos.
"""

from __future__ import annotations

import pytest

from repro.core.addresses import is_prefix
from repro.core.processes import Parallel, Restriction, walk_leaves
from repro.equivalence.testing import compose
from repro.obs.metrics import Metrics, collecting
from repro.protocols.library import narration_configuration
from repro.protocols.zoo import ZOO
from repro.semantics import canonical, transitions
from repro.semantics.lts import Budget, explore
from repro.semantics.system import instantiate
from repro.semantics.transitions import batched_successors
from repro.syntax.parser import parse_process

#: The replicated zoo at the depths of the ``explore-cold`` benchmark.
HORIZONS = (
    ("needham-schroeder-sk", 5),
    ("otway-rees", 4),
    ("woo-lam", 5),
    ("yahalom", 4),
)

#: Five leaves; the ``a`` communication touches the first two only.
FIVE_LEAVES = "a<m>.b<n>.0 | a(x).0 | b(y).0 | c<k>.0 | c(z).0"


@pytest.fixture(autouse=True)
def _fresh_cache():
    canonical.set_cache_enabled(True)
    canonical.clear_caches()
    yield
    canonical.set_cache_enabled(True)
    canonical.clear_caches()


def replicated(name: str):
    spec = ZOO[name](replicate=True)
    return compose(
        narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")
    )


def memo_counts() -> tuple[int, ...]:
    """``(leaf hit, leaf miss, redex hit, redex miss)`` so far."""
    return canonical.metrics_snapshot()[3:]


def delta(before: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(memo_counts(), before))


def projection(steps) -> list[tuple]:
    return [(step.action, step.target.canonical_key()) for step in steps]


class _Untouchable(dict):
    """A memo stand-in that fails on any read or write."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("memo touched")

    get = __getitem__ = __setitem__ = __contains__ = setdefault = _fail


class TestIncrementality:
    def test_child_recomputes_only_the_two_rewritten_leaves(self):
        system = instantiate(parse_process(FIVE_LEAVES))
        before = memo_counts()
        steps = batched_successors(system)
        assert delta(before)[:2] == (0, 5)
        (a_step,) = [s for s in steps if s.action.channel.base == "a"]

        before = memo_counts()
        batched_successors(a_step.target)
        leaf_hits, leaf_misses, _, _ = delta(before)
        assert (leaf_hits, leaf_misses) == (3, 2)

    @pytest.mark.parametrize("name", ["needham-schroeder-sk", "otway-rees"])
    def test_missed_leaves_lie_under_the_rewritten_ones(self, name):
        system = replicated(name)
        frontier = [system]
        for _ in range(2):
            children = []
            for parent in frontier:
                leaves = [loc for loc, _ in walk_leaves(parent.root)]
                for step in batched_successors(parent):
                    # The leaves whose prefixes acted: each acting
                    # location extends exactly one leaf location.
                    rewritten = [
                        leaf
                        for leaf in leaves
                        for act in (step.action.sender, step.action.receiver)
                        if is_prefix(leaf, act)
                    ]
                    assert len(rewritten) == 2
                    known = set(transitions._leaf_memo)
                    before = memo_counts()
                    batched_successors(step.target)
                    added = set(transitions._leaf_memo) - known
                    assert delta(before)[1] == len(added)
                    for _id, loc in added:
                        assert any(is_prefix(leaf, loc) for leaf in rewritten), (
                            loc,
                            rewritten,
                        )
                    children.append(step.target)
            frontier = children[:8]

    def test_redexes_between_untouched_leaves_hit(self):
        system = instantiate(parse_process(FIVE_LEAVES))
        steps = batched_successors(system)
        (a_step,) = [s for s in steps if s.action.channel.base == "a"]
        before = memo_counts()
        child_steps = batched_successors(a_step.target)
        _, _, redex_hits, redex_misses = delta(before)
        # The c pair is untouched: served from the memo.  The new b
        # output meets the b and c inputs for the first time.
        assert redex_hits >= 1
        assert redex_misses >= 1
        assert {s.action.channel.base for s in child_steps} == {"b", "c"}


class TestBypass:
    def test_cache_off_never_touches_the_memos(self, monkeypatch):
        canonical.set_cache_enabled(False)
        monkeypatch.setattr(transitions, "_leaf_memo", _Untouchable())
        monkeypatch.setattr(transitions, "_redex_memo", _Untouchable())
        before = memo_counts()
        graph = explore(replicated("otway-rees"), Budget(2_000, 3))
        assert graph.transition_count() > 0
        assert delta(before) == (0, 0, 0, 0)

    def test_clear_caches_drops_both_memos(self):
        explore(replicated("yahalom"), Budget(2_000, 3))
        assert transitions._leaf_memo and transitions._redex_memo
        canonical.clear_caches()
        assert not transitions._leaf_memo
        assert not transitions._redex_memo


class TestArena:
    def test_built_nodes_are_the_tables_canonical_instances(self):
        table = canonical.arena()
        raw = parse_process("(nu k)(a<k>.0 | a(x).0)")
        restriction = table.process(raw)
        assert isinstance(restriction, Restriction)
        body = restriction.body
        assert table.parallel(body.left, body.right) is body
        assert table.restriction(restriction.name, body) is restriction
        swapped = table.parallel(body.right, body.left)
        assert swapped == Parallel(body.right, body.left)
        assert table.process(Parallel(body.right, body.left)) is swapped
        assert table.process(swapped) is swapped

    def test_targets_come_out_interned(self):
        steps = batched_successors(replicated("otway-rees"))
        size = canonical.interned_size()
        for step in steps:
            root = step.target.root
            assert canonical.intern_process(root) is root
        assert canonical.interned_size() == size


class TestMemoParity:
    @pytest.mark.parametrize("name,depth", HORIZONS)
    def test_memo_path_matches_a_computation_from_empty_memos(self, name, depth):
        graph = explore(replicated(name), Budget(50_000, depth))
        expanded = [graph.states[key] for key in graph.edges]
        warm = [projection(batched_successors(s)) for s in expanded]
        for system, memoized in zip(expanded, warm):
            transitions._leaf_memo.clear()
            transitions._redex_memo.clear()
            assert projection(batched_successors(system)) == memoized

    def test_counters_are_published_with_the_run(self):
        with collecting(Metrics()) as metrics:
            explore(replicated("otway-rees"), Budget(2_000, 4))
        counters = metrics.to_json()["counters"]
        for name in ("leaf_hit", "leaf_miss", "redex_hit", "redex_miss"):
            assert counters[f"successor.{name}"] > 0, name
