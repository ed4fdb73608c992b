"""Tests for call sites, conditions, and the calling-context abstraction
and its order structure (specified in ``bruteforce``)."""

from __future__ import annotations

from itertools import chain, combinations, permutations

import pytest
from bruteforce import (
    abstract_ctx,
    abstract_ctx_set,
    concretize,
    ctx_leq,
    family_leq,
    set_leq,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from stackpol.contexts import (
    ANY_FAMILY,
    CallSite,
    format_ctx,
    format_family,
    holds,
    normalize_family,
)
from stackpol.errors import EnumerationLimitError

Z = [CallSite("m", i) for i in range(1, 9)]


def sites(*idx):
    return frozenset(Z[i - 1] for i in idx)


# ---------------------------------------------------------------------------
# call sites


def test_call_site_fields_order_and_rendering():
    z = CallSite("main", 3)
    assert (z.method, z.line) == ("main", 3)
    assert str(z) == "main:3"
    assert repr(z) == "CallSite(method='main', line=3)"
    assert sorted([CallSite("b", 1), CallSite("a", 9), CallSite("a", 2)]) == [
        CallSite("a", 2),
        CallSite("a", 9),
        CallSite("b", 1),
    ]


def test_call_site_is_a_value_that_equals_its_plain_pair():
    z = CallSite("main", 3)
    assert {z: "x"}[CallSite("main", 3)] == "x"
    assert z != CallSite("main", 4)
    # a named tuple: equal to, and hashed like, the pair (method, line)
    assert z == ("main", 3)
    assert hash(z) == hash(("main", 3))


def test_call_site_is_exported_at_the_top_level():
    from stackpol import CallSite as exported

    assert exported is CallSite


# ---------------------------------------------------------------------------
# abstraction


def test_abstraction_drops_order_and_multiplicity():
    string = (Z[0], Z[2], Z[0], Z[2], Z[4])
    assert abstract_ctx(string) == sites(1, 3, 5)
    for perm in permutations(string):
        assert abstract_ctx(perm) == abstract_ctx(string)


def test_abstraction_of_empty_string_is_empty_set():
    assert abstract_ctx(()) == frozenset()


def test_set_abstraction_is_elementwise_and_keeps_comparable_members():
    # both a set and its superset stay; nothing is pruned
    strings = [(Z[0], Z[1]), (Z[0], Z[1], Z[2], Z[3]), (Z[1], Z[0])]
    fam = abstract_ctx_set(strings)
    assert fam == frozenset({sites(1, 2), sites(1, 2, 3, 4)})


# ---------------------------------------------------------------------------
# concretization


def test_concretize_emits_permutations_of_subsets():
    out = concretize([sites(1, 2)])
    assert out == frozenset(
        {(), (Z[0],), (Z[1],), (Z[0], Z[1]), (Z[1], Z[0])}
    )


def test_concretize_unions_over_members():
    out = concretize([sites(1), sites(2)])
    assert out == frozenset({(), (Z[0],), (Z[1],)})


def test_concretize_refuses_oversized_members():
    with pytest.raises(EnumerationLimitError):
        concretize([frozenset(Z)], max_sites=4)


# ---------------------------------------------------------------------------
# the order structure


def test_string_order_is_site_set_inclusion():
    assert ctx_leq((Z[0],), (Z[1], Z[0]))
    assert not ctx_leq((Z[2],), (Z[1], Z[0]))
    assert ctx_leq((), (Z[0],))


def test_set_order_quantifies_existentially_over_the_bigger_side():
    small = [(Z[0],), (Z[1],)]
    big = [(Z[1], Z[0])]
    assert set_leq(small, big)
    assert not set_leq(big, [(Z[0],)])


def test_family_order_is_not_plain_inclusion():
    # {z1} is covered by {z1,z2} in the Hoare order but is not a member
    fam1 = frozenset({sites(1)})
    fam2 = frozenset({sites(1, 2)})
    assert family_leq(fam1, fam2)
    assert not fam1 <= fam2


def _universe_strings(universe, max_len):
    """All repetition-free strings over the universe up to a length."""
    out = [()]
    for k in range(1, max_len + 1):
        out.extend(permutations(universe, k))
    return out


def _families(universe):
    members = [
        frozenset(c)
        for r in range(len(universe) + 1)
        for c in combinations(universe, r)
    ]
    return [
        frozenset(f)
        for r in range(len(members) + 1)
        for f in combinations(members, r)
    ]


def test_adjunction_exhaustive_on_a_two_site_universe():
    universe = Z[:2]
    strings = _universe_strings(universe, 2)
    string_sets = [
        list(c) for r in range(3) for c in combinations(strings, r)
    ]
    for fam in _families(universe):
        gamma = set(chain.from_iterable(concretize([m]) for m in fam))
        for ss in string_sets:
            lhs = family_leq(abstract_ctx_set(ss), fam)
            rhs = set_leq(ss, gamma)
            assert lhs == rhs, (ss, fam)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_adjunction_randomized_at_five_sites(data):
    universe = Z[:5]
    string = st.lists(st.sampled_from(universe), max_size=4).map(tuple)
    ss = data.draw(st.lists(string, max_size=4))
    member = st.frozensets(st.sampled_from(universe), max_size=5)
    fam = data.draw(st.frozensets(member, max_size=4))
    gamma = set(chain.from_iterable(concretize([m]) for m in fam))
    assert family_leq(abstract_ctx_set(ss), fam) == set_leq(ss, gamma)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(Z[:4]), max_size=3).map(tuple), max_size=3
    )
)
def test_abstraction_then_concretization_covers_the_input(ss):
    fam = abstract_ctx_set(ss)
    gamma = set(chain.from_iterable(concretize([m]) for m in fam))
    assert set_leq(ss, gamma)


# ---------------------------------------------------------------------------
# families and conditions


def test_empty_member_collapses_the_family():
    fam = normalize_family([sites(1, 2), frozenset()])
    assert fam == ANY_FAMILY


def test_condition_asks_for_one_member_below():
    fam = frozenset({sites(1, 2), sites(3)})
    assert holds(fam, sites(1, 2, 5))
    assert holds(fam, sites(3))
    assert not holds(fam, sites(1, 5))
    assert not holds(fam, frozenset())


def test_any_condition_holds_everywhere():
    assert holds(ANY_FAMILY, frozenset())
    assert holds(ANY_FAMILY, sites(1, 2, 3))
    # an empty member swallows the rest of the family
    fam = frozenset({sites(1), frozenset()})
    assert holds(fam, frozenset())
    assert normalize_family(fam) == ANY_FAMILY
    assert format_family(fam) == "any"


def test_formatting_is_sorted_and_stable():
    assert format_ctx(sites(2, 1)) == "m:1,m:2"
    fam = frozenset({sites(2), sites(1, 3)})
    assert format_family(fam) == "{m:2;m:1,m:3}"
    assert format_family(ANY_FAMILY) == "any"
