"""Tests for substitution, renaming, freshening and locvar instantiation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.processes import (
    Case,
    Channel,
    Input,
    LocVar,
    Match,
    Nil,
    Output,
    Parallel,
    Replication,
    Restriction,
    Split,
    bound_names,
    free_locvars,
    free_variables,
)
from repro.core.substitution import (
    freshen_bound,
    instantiate_locvar,
    rename_names,
    rename_names_term,
    rename_vars,
    subst,
    subst1,
    subst_term,
)
from repro.core.terms import At, Localized, Name, Pair, SharedEnc, Var
from repro.core.addresses import RelativeAddress

from tests.test_parser_fuzz import processes

a, b, k, m, n = Name("a"), Name("b"), Name("k"), Name("m"), Name("n")
x, y, z = Var("x"), Var("y"), Var("z")


class TestTermSubstitution:
    def test_variable_replaced(self):
        assert subst_term(x, {x: m}) == m

    def test_other_variables_untouched(self):
        assert subst_term(y, {x: m}) == y

    def test_structural_recursion(self):
        term = Pair(SharedEnc((x,), k), x)
        result = subst_term(term, {x: m})
        assert result == Pair(SharedEnc((m,), k), m)

    def test_key_position_substituted(self):
        assert subst_term(SharedEnc((m,), x), {x: k}) == SharedEnc((m,), k)

    def test_through_localized(self):
        term = Localized((0,), Pair(x, m))
        assert subst_term(term, {x: n}) == Localized((0,), Pair(n, m))

    def test_through_at_literal(self):
        addr = RelativeAddress((0,), (1,))
        assert subst_term(At(addr, x), {x: m}) == At(addr, m)

    def test_empty_substitution_is_identity(self):
        term = Pair(x, m)
        assert subst_term(term, {}) is term


class TestProcessSubstitution:
    def test_output_payload_and_subject(self):
        p = Output(Channel(x), y, Nil())
        q = subst(p, {x: a, y: m})
        assert q == Output(Channel(a), m, Nil())

    def test_input_binder_shadows(self):
        p = Input(Channel(a), x, Output(Channel(b), x, Nil()))
        q = subst(p, {x: m})
        # the bound x must not be replaced
        assert isinstance(q, Input)
        assert q.continuation == Output(Channel(b), q.binder, Nil())

    def test_capture_avoidance_on_input(self):
        # substituting x := y under a binder for y must rename the binder
        p = Input(Channel(a), y, Output(Channel(b), Pair(x, y), Nil()))
        q = subst(p, {x: y})
        assert isinstance(q, Input)
        assert q.binder != y  # alpha-renamed
        payload = q.continuation.payload
        assert payload.first == y       # the substituted free y
        assert payload.second == q.binder  # the bound one

    def test_capture_avoidance_on_case(self):
        p = Case(x, (y,), k, Output(Channel(a), Pair(x, y), Nil()))
        q = subst(p, {x: y})
        assert q.binders[0] != y
        assert q.scrutinee == y

    def test_capture_avoidance_on_split(self):
        p = Split(x, y, z, Output(Channel(a), Pair(y, z), Nil()))
        q = subst(p, {x: Pair(y, z)})
        assert q.first != y and q.second != z
        assert q.scrutinee == Pair(y, z)

    def test_match_sides_substituted(self):
        p = Match(x, y, Nil())
        assert subst(p, {x: m, y: n}) == Match(m, n, Nil())

    def test_replication_body_substituted(self):
        p = Replication(Output(Channel(a), x, Nil()))
        assert subst(p, {x: m}) == Replication(Output(Channel(a), m, Nil()))

    def test_subst1_wrapper(self):
        p = Output(Channel(a), x, Nil())
        assert subst1(p, x, m) == Output(Channel(a), m, Nil())

    def test_closedness_after_substitution(self):
        p = Parallel(Output(Channel(a), x, Nil()), Input(Channel(a), y, Output(Channel(b), y, Nil())))
        q = subst(p, {x: m})
        assert free_variables(q) == frozenset()


class TestSubstitutionSharing:
    """Substitution returns what it does not change as the same object,
    so interned subtrees keep their identity."""

    def test_untouched_process_is_returned_itself(self):
        p = Input(
            Channel(a),
            y,
            Case(y, (z,), k, Parallel(Output(Channel(b), Pair(y, z), Nil()), Nil())),
        )
        assert subst(p, {x: m}) is p

    def test_untouched_term_is_returned_itself(self):
        term = Localized((0,), Pair(SharedEnc((y, m), k), y))
        assert subst_term(term, {x: m}) is term

    def test_parallel_keeps_the_branch_it_does_not_touch(self):
        touched = Output(Channel(a), x, Nil())
        untouched = Input(Channel(b), y, Output(Channel(a), y, Nil()))
        q = subst(Parallel(touched, untouched), {x: m})
        assert q.left == Output(Channel(a), m, Nil())
        assert q.right is untouched

    def test_continuation_below_the_change_is_shared(self):
        rest = Input(Channel(b), y, Output(Channel(a), Pair(y, n), Nil()))
        q = subst(Output(Channel(a), x, rest), {x: m})
        assert q.payload == m
        assert q.continuation is rest

    def test_renamed_binder_rebuilds_only_its_scope(self):
        sibling = Output(Channel(b), n, Nil())
        p = Parallel(Input(Channel(a), y, Output(Channel(b), Pair(x, y), Nil())), sibling)
        q = subst(p, {x: y})
        assert q.left.binder != y  # capture avoided as before
        assert q.right is sibling

    @given(processes())
    def test_closed_process_is_shared_whole(self, p):
        # Generated binders are v0, v1, ...; x occurs nowhere in p.
        assert subst(p, {x: m}) is p


class TestRenaming:
    def test_rename_names_hits_binders(self):
        fresh = Name("m", 42)
        p = Restriction(m, Output(Channel(a), m, Nil()))
        q = rename_names(p, {m: fresh})
        assert q.name == fresh
        assert q.body.payload == fresh

    def test_rename_names_term(self):
        term = SharedEnc((m,), k)
        assert rename_names_term(term, {m: n}) == SharedEnc((n,), k)

    def test_rename_vars_hits_binders(self):
        fresh = Var("x", 42)
        p = Input(Channel(a), x, Output(Channel(b), x, Nil()))
        q = rename_vars(p, {x: fresh})
        assert q.binder == fresh
        assert q.continuation.payload == fresh


class TestFreshening:
    def test_bound_names_get_uids(self):
        p = Restriction(m, Output(Channel(a), m, Nil()))
        q = freshen_bound(p)
        (bound,) = bound_names(q)
        assert bound.base == "m" and bound.uid is not None

    def test_two_freshenings_differ(self):
        p = Restriction(m, Output(Channel(a), m, Nil()))
        n1 = next(iter(bound_names(freshen_bound(p))))
        n2 = next(iter(bound_names(freshen_bound(p))))
        assert n1 != n2

    def test_bound_vars_freshened(self):
        p = Input(Channel(a), x, Output(Channel(b), x, Nil()))
        q = freshen_bound(p)
        assert q.binder != x
        assert q.continuation.payload == q.binder

    def test_locvars_freshened_per_copy(self):
        lam = LocVar("lam")
        p = Input(Channel(a, lam), x, Nil())
        q1, q2 = freshen_bound(p), freshen_bound(p)
        (l1,) = free_locvars(q1)
        (l2,) = free_locvars(q2)
        assert l1 != l2 != lam

    def test_free_names_untouched(self):
        p = Restriction(m, Output(Channel(a), Pair(m, k), Nil()))
        q = freshen_bound(p)
        assert q.body.payload.second == k


class TestLocVarInstantiation:
    def test_indexes_replaced_everywhere(self):
        lam = LocVar("lam")
        p = Input(Channel(a, lam), x, Output(Channel(b, lam), x, Nil()))
        q = instantiate_locvar(p, lam, (1, 0))
        assert q.channel.index == (1, 0)
        assert q.continuation.channel.index == (1, 0)

    def test_other_locvars_untouched(self):
        lam, mu = LocVar("lam"), LocVar("mu")
        p = Output(Channel(a, mu), m, Nil())
        q = instantiate_locvar(p, lam, (0,))
        assert q.channel.index == mu

    def test_through_all_constructors(self):
        lam = LocVar("lam")
        p = Replication(
            Match(m, m, Case(x, (y,), k, Split(y, Var("p"), Var("q"),
                Output(Channel(a, lam), m, Nil()))))
        )
        q = instantiate_locvar(p, lam, (1,))
        assert free_locvars(q) == frozenset()


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

simple_terms = st.sampled_from([m, n, k, Pair(m, n), SharedEnc((m,), k)])


class TestProperties:
    @given(simple_terms)
    def test_substitution_removes_target_variable(self, value):
        p = Parallel(
            Output(Channel(a), Pair(x, x), Nil()),
            Input(Channel(a), y, Output(Channel(b), Pair(x, y), Nil())),
        )
        q = subst(p, {x: value})
        assert x not in free_variables(q)

    @given(simple_terms, simple_terms)
    def test_sequential_substitution_composes(self, v1, v2):
        p = Output(Channel(a), Pair(x, y), Nil())
        both = subst(p, {x: v1, y: v2})
        seq = subst(subst(p, {x: v1}), {y: v2})
        assert both == seq

    @given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
    def test_freshening_preserves_structure(self, i, j):
        p = Restriction(m, Input(Channel(a), x, Output(Channel(b, LocVar("lam")), Pair(x, m), Nil())))
        q = freshen_bound(p)
        # same shape: restriction over input over output
        assert isinstance(q, Restriction)
        assert isinstance(q.body, Input)
        assert isinstance(q.body.continuation, Output)
