"""Soundness of reusing one replication unfold per site.

With the state cache on, :func:`repro.semantics.transitions.commitments`
unfolds a replication template at a given acting location once and
reuses the copy (and its fresh names) on every later expansion.  That
is sound because a restricted name is identified by where it was
created: the tree only grows at its leaves, so a site unfolds at most
once along any run.  These tests check the consequence on the explored
spaces — one creator per fresh identity — and the memo's contract
directly.

Analyses that relate names across states share the memo too: the
environment semantics keys its states on the process and the
attacker's knowledge together
(:func:`repro.semantics.canonical.knowledge_key`), and secrecy's union
knowledge only filters before a single-run search confirms a leak.
``tests/test_canonical_parity.py`` checks that their verdicts match the
uncached path, where every unfold freshens anew.
"""

from __future__ import annotations

import pytest

from repro.core.processes import (
    Channel,
    Input,
    Nil,
    Output,
    Parallel,
    Replication,
    Restriction,
    term_parts,
    walk,
)
from repro.core.terms import Name, Var, subterms
from repro.equivalence.testing import compose
from repro.protocols.library import narration_configuration
from repro.protocols.zoo import ZOO
from repro.semantics import canonical
from repro.semantics.lts import Budget, explore
from repro.semantics.system import instantiate
from repro.semantics.transitions import commitments, successors

#: The replicated zoo at the depths of the ``explore-cold`` benchmark.
HORIZONS = (
    ("needham-schroeder-sk", 5),
    ("otway-rees", 4),
    ("woo-lam", 5),
    ("yahalom", 4),
)

a = Name("a")


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


def names_in(system) -> list[Name]:
    found = list(system.private)
    for node in walk(system.root):
        if isinstance(node, Restriction):
            found.append(node.name)
        for term in term_parts(node):
            found.extend(t for t in subterms(term) if isinstance(t, Name))
    return found


def fresh_template() -> Replication:
    n = Name("n")
    return Replication(Restriction(n, Output(Channel(a), n, Nil())))


class TestOneCreatorPerIdentity:
    @pytest.mark.parametrize("name,depth", HORIZONS)
    def test_fresh_names_keep_one_creator_across_the_space(self, name, depth):
        graph = explore(replicated(name), Budget(50_000, depth))
        creators: dict[tuple[str, int], object] = {}
        for system in graph.states.values():
            for n in names_in(system):
                if n.uid is None:
                    continue
                seen = creators.setdefault((n.base, n.uid), n.creator)
                assert seen == n.creator, (n, seen)
        for out in graph.edges.values():
            for step, _target in out:
                for n in (t for t in subterms(step.action.value) if isinstance(t, Name)):
                    if n.uid is not None:
                        assert creators.setdefault((n.base, n.uid), n.creator) == n.creator
        assert creators  # the space does create names


class TestUnfoldContract:
    def test_same_site_reuses_the_identical_copy(self):
        template = canonical.intern_process(fresh_template())
        first = list(commitments(template, (0,), (0,)))
        second = list(commitments(template, (0,), (0,)))
        assert len(first) == len(second) == 1
        assert first[0].continuation is second[0].continuation
        assert first[0].payload is second[0].payload
        assert first[0].new_private == second[0].new_private

    def test_two_sites_get_disjoint_names(self):
        template = canonical.intern_process(fresh_template())
        (left,) = commitments(template, (0,), (0,))
        (right,) = commitments(template, (1,), (1,))
        assert left.new_private and right.new_private
        assert not left.new_private & right.new_private
        assert left.payload.creator == (0, 0)
        assert right.payload.creator == (1, 0)

    def test_equal_templates_share_one_site(self):
        # Two structurally equal raw templates intern to one node, so
        # they unfold to the same copy at the same location.
        (one,) = commitments(fresh_template(), (0,), (0,))
        (two,) = commitments(fresh_template(), (0,), (0,))
        assert one.payload is two.payload

    def test_uncached_path_freshens_every_time(self):
        canonical.set_cache_enabled(False)
        template = fresh_template()
        (first,) = commitments(template, (0,), (0,))
        (second,) = commitments(template, (0,), (0,))
        assert first.payload.uid != second.payload.uid
        assert first.payload.creator == second.payload.creator == (0, 0)

    def test_memo_is_dropped_with_the_intern_table(self):
        (before,) = commitments(fresh_template(), (0,), (0,))
        canonical.clear_caches()
        (after,) = commitments(fresh_template(), (0,), (0,))
        assert before.payload.uid != after.payload.uid

    def test_successive_unfolds_along_a_run_stay_distinct(self):
        # The template moves right after each unfold, so the next unfold
        # is a different site with different names.
        x = Var("x")
        system = instantiate(
            Parallel(fresh_template(), Replication(Input(Channel(a), x, Nil())))
        )
        values = []
        for _ in range(3):
            step = successors(system)[0]
            values.append(step.action.value)
            system = step.target
        assert len({(v.base, v.uid) for v in values}) == 3
        assert [v.creator for v in values] == [(0, 0), (0, 1, 0), (0, 1, 1, 0)]
