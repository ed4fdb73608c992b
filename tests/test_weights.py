"""Tests for the path-digest weight domain and its semiring laws."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackpol.contexts import CallSite
from stackpol.errors import CapacityError
from stackpol.weights import (
    ONE,
    ZERO,
    Packing,
    PackedWeight,
    Weight,
    WeightTuple,
    absorb,
    check_width,
    extend_merged,
)

from bruteforce import merged

_METHODS = ["f", "g", "h", "p"]
_SITES = [CallSite("m", i) for i in (1, 2, 3, 4)]


def _meth_sets():
    return st.frozensets(st.sampled_from(_METHODS), max_size=3)


def _tuples():
    return st.builds(
        WeightTuple,
        kill=st.booleans(),
        gen=_meth_sets(),
        finished=_meth_sets(),
        history=st.frozensets(st.sampled_from(_SITES), max_size=3),
    )


def _weights():
    return st.frozensets(_tuples(), max_size=3).map(Weight)


def _any_weights():
    return st.one_of(st.just(ZERO), st.just(ONE), _weights())


# ---------------------------------------------------------------------------
# single-digest composition


def test_sequencing_filters_earlier_gens_only():
    first = WeightTuple(gen=frozenset({"f", "g"}))
    plain = WeightTuple(gen=frozenset({"h"}))
    assert first.seq(plain) == WeightTuple(gen=frozenset({"f", "g", "h"}))
    killing = WeightTuple(kill=True, gen=frozenset({"h"}))
    assert first.seq(killing) == killing
    # an earlier kill stays set when a later step does not kill
    assert killing.seq(first) == WeightTuple(kill=True, gen=frozenset({"f", "g", "h"}))


def test_privilege_wipe_drops_everything_before_it():
    site = lambda m, l: CallSite(m, l)
    steps = [
        WeightTuple(gen=frozenset({"main"}), history=frozenset({site("main", 2)})),
        WeightTuple(
            gen=frozenset({"connectStudent"}),
            history=frozenset({site("connectStudent", 36)}),
        ),
        WeightTuple(
            gen=frozenset({"checkConnect"}),
            history=frozenset({site("checkConnect", 8)}),
        ),
        WeightTuple(
            kill=True,
            gen=frozenset({"doPrivileged"}),
            history=frozenset({site("doPrivileged", 1)}),
        ),
        WeightTuple(
            gen=frozenset({"Priv.run"}), history=frozenset({site("Priv.run", 20)})
        ),
        WeightTuple(
            gen=frozenset({"checkAccess"}),
            history=frozenset({site("checkAccess", 24)}),
        ),
    ]
    acc = WeightTuple()
    for step in steps:
        acc = acc.seq(step)
    assert acc.gen == frozenset({"doPrivileged", "Priv.run", "checkAccess"})
    assert acc.kill is True
    assert acc.finished == frozenset()
    assert len(acc.history) == 6


def test_finished_and_history_always_accumulate():
    a = WeightTuple(finished=frozenset({"f"}), history=frozenset({_SITES[0]}))
    b = WeightTuple(
        kill=True,
        finished=frozenset({"g"}),
        history=frozenset({_SITES[1]}),
    )
    out = a.seq(b)
    assert out.finished == frozenset({"f", "g"})
    assert out.history == frozenset(_SITES[:2])


# ---------------------------------------------------------------------------
# the historical one-sided product is the reason seq looks the way it does


def _onesided_seq(a: WeightTuple, b: WeightTuple) -> WeightTuple:
    # filter the union by the later kill, keep only the earlier kill
    gen = frozenset() if b.kill else a.gen | b.gen
    return WeightTuple(
        kill=a.kill,
        gen=gen,
        finished=a.finished | b.finished,
        history=a.history | b.history,
    )


def test_onesided_product_is_not_associative():
    a = WeightTuple(gen=frozenset({"f"}))
    b = WeightTuple(kill=True, gen=frozenset({"p"}))
    c = WeightTuple(gen=frozenset({"g"}))
    left = _onesided_seq(_onesided_seq(a, b), c)
    right = _onesided_seq(a, _onesided_seq(b, c))
    assert left != right


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["f", "g", "h", None]), max_size=6))
def test_onesided_fold_agrees_up_to_the_privilege_marker(names):
    # None stands for the privilege-assertion step
    steps = [
        WeightTuple(kill=True, gen=frozenset({"p"}))
        if n is None
        else WeightTuple(gen=frozenset({n}))
        for n in names
    ]
    mine = WeightTuple()
    ref = WeightTuple()
    for s in steps:
        mine = mine.seq(s)
        ref = _onesided_seq(ref, s)
    assert ref.gen == mine.gen - {"p"}


# ---------------------------------------------------------------------------
# semiring laws


@settings(max_examples=400, deadline=None)
@given(_weights(), _weights(), _weights())
def test_extend_is_associative(a, b, c):
    assert a.extend(b).extend(c) == a.extend(b.extend(c))


@settings(max_examples=200, deadline=None)
@given(_weights(), _weights(), _weights())
def test_combine_is_associative_commutative_idempotent(a, b, c):
    assert a.combine(b) == b.combine(a)
    assert a.combine(b.combine(c)) == a.combine(b).combine(c)
    assert a.combine(a) == a


@settings(max_examples=200, deadline=None)
@given(_weights(), _weights(), _weights())
def test_extend_distributes_over_combine(a, b, c):
    assert a.extend(b.combine(c)) == a.extend(b).combine(a.extend(c))
    assert b.combine(c).extend(a) == b.extend(a).combine(c.extend(a))


@settings(max_examples=200, deadline=None)
@given(_weights())
def test_identities_and_absorption(w):
    assert ONE.extend(w) == w
    assert w.extend(ONE) == w
    assert ZERO.extend(w) == ZERO
    assert w.extend(ZERO) == ZERO
    assert ZERO.combine(w) == w
    assert w.combine(ZERO) == w


@settings(max_examples=200, deadline=None)
@given(_weights(), _weights())
def test_natural_order_matches_combine(a, b):
    # a is below b in the natural order when a's digests include b's
    assert (b.tuples <= a.tuples) == (a.combine(b) == a)


@settings(max_examples=200, deadline=None)
@given(_weights(), _weights(), _weights())
def test_extend_is_monotone(a, b, c):
    lower = a.combine(b)
    assert a.extend(c).tuples <= lower.extend(c).tuples
    assert c.extend(a).tuples <= c.extend(lower).tuples


def test_descending_chains_stabilize():
    # closing a weight under a fixed step must reach a fixpoint because
    # digests are drawn from a finite universe
    step = Weight(
        frozenset(
            {
                WeightTuple(gen=frozenset({"f"}), history=frozenset({_SITES[0]})),
                WeightTuple(kill=True, gen=frozenset({"g"})),
            }
        )
    )
    w = ONE
    for rounds in range(1, 200):
        nxt = w.combine(w.extend(step))
        if nxt == w:
            break
        w = nxt
    else:
        pytest.fail("no fixpoint reached")
    assert rounds < 30


# ---------------------------------------------------------------------------
# packed digests


def _pack(packing, w):
    # a weight packs digest by digest, as the solver packs each rule's one
    # digest, into one merged weight
    out = {}
    for t in w.tuples:
        absorb(out, packing.pack(t))
    return out


def _first_seen(weights):
    # names in the order pack meets them: weight by weight, digest by
    # digest, and gen, then finished, then history
    names = {}
    for w in weights:
        for t in w.tuples:
            names.update(dict.fromkeys((*t.gen, *t.finished, *t.history)))
    return list(names)


def _bits(names):
    # as a list: decoding reads the names back in insertion order
    return [(name, 1 << i) for i, name in enumerate(names)]


@settings(max_examples=200, deadline=None)
@given(_any_weights())
def test_packing_round_trips(w):
    packing = Packing()
    packed = _pack(packing, w)
    assert list(packing.bit.items()) == _bits(_first_seen([w]))
    # packing merges: the merged weight packs the same, names nothing
    # new, and decodes back exactly
    names = list(packing.bit.items())
    assert _pack(packing, merged(w)) == packed
    assert list(packing.bit.items()) == names
    assert PackedWeight(packing, packed).decode() == merged(w)


_WIPE = Weight(frozenset({WeightTuple(kill=True, gen=frozenset({"p"}))}))
_LIVE = Weight(frozenset({WeightTuple(gen=frozenset({"f", "h"}))}))
_DONE = Weight(
    frozenset({WeightTuple(finished=frozenset({"f"}), history=frozenset({_SITES[0]}))})
)


# two digests that differ in gen alone, so merging makes them one
_TWINS = Weight(
    frozenset({WeightTuple(gen=frozenset({"f"})), WeightTuple(gen=frozenset({"g"}))})
)


@settings(max_examples=300, deadline=None)
@given(_any_weights(), _any_weights())
@example(_TWINS, _LIVE)
@example(_LIVE, _TWINS)
@example(_TWINS, _WIPE)
@example(_WIPE, _TWINS)
def test_merging_commutes_with_extend_and_combine(a, b):
    # the quotient map is a semiring homomorphism: merging either operand
    # first changes neither product nor union once the result is merged
    product = merged(a.extend(b))
    assert merged(merged(a).extend(b)) == product
    assert merged(a.extend(merged(b))) == product
    assert merged(merged(a).combine(merged(b))) == merged(a.combine(b))


@settings(max_examples=300, deadline=None)
@given(_any_weights(), _any_weights())
@example(ZERO, ONE)
@example(ONE, ONE)
@example(_LIVE, _WIPE)
@example(_WIPE, _LIVE)
@example(_WIPE, _DONE)
@example(_WIPE, _WIPE)
@example(_TWINS, _LIVE)
@example(_TWINS, _WIPE)
def test_merged_extend_and_absorb_are_extend_and_combine_merged(a, b):
    # compared packed as well as decoded, so a digest that decodes right
    # but packs another way is caught too
    packing = Packing()
    pa, pb = _pack(packing, a), _pack(packing, b)
    names = list(packing.bit.items())
    assert names == _bits(_first_seen([a, b]))
    product = extend_merged(pa, pb)
    assert product == _pack(packing, merged(a.extend(b)))
    # the product names nothing its factors did not
    assert list(packing.bit.items()) == names
    assert PackedWeight(packing, product).decode() == merged(a.extend(b))
    union = dict(pa)
    grew = absorb(union, pb)
    assert grew == (union != pa)
    assert union == _pack(packing, merged(a.combine(b)))
    assert list(packing.bit.items()) == names
    assert PackedWeight(packing, union).decode() == merged(a.combine(b))


@settings(max_examples=200, deadline=None)
@given(st.lists(_any_weights(), min_size=2, max_size=4))
@example([_LIVE, _WIPE, _DONE])
@example([_DONE, _LIVE, _DONE])
def test_one_packing_interns_each_name_once_in_first_seen_order(weights):
    packing = Packing()
    packed = [_pack(packing, w) for w in weights]
    names = list(packing.bit.items())
    assert names == _bits(_first_seen(weights))
    assert packing.sites == sum(b for n, b in names if isinstance(n, CallSite))
    for w, p in zip(weights, packed):
        # names met in a later pack move no bit of an earlier one
        assert _pack(packing, w) == p
        assert PackedWeight(packing, p).decode() == merged(w)
    assert list(packing.bit.items()) == names


# ---------------------------------------------------------------------------
# plumbing


def test_width_guard_passes_small_and_rejects_large():
    w = Weight(frozenset({WeightTuple(gen=frozenset({m})) for m in _METHODS}))
    assert check_width(w, cap=4) is w
    with pytest.raises(CapacityError):
        check_width(w, cap=3)


def test_rendering_is_deterministic():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    w = Weight(
        frozenset(
            {
                WeightTuple(kill=True, gen=frozenset({"b", "a"})),
                WeightTuple(gen=frozenset({"a"})),
            }
        )
    )
    assert str(w) == "({}|{a}|{}|{}) + ({*}|{a,b}|{}|{})"
