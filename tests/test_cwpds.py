"""Tests for the conditional pushdown system and the meet-over-all-paths
solver, cross-checked against explicit configuration stepping."""

from __future__ import annotations

import random

import pytest

from bruteforce import (
    GlobalAnnotatedWPDS,
    alphabet,
    annotate_stack,
    fold_weights,
    movp_by_stepping,
    movp_by_weights,
    named_sites,
    reduced_successors,
    relevant_sites,
    stack_sites,
    successors,
)
from randmodels import random_model
from test_oracle import _layered as layered_model
from test_policy import _diamond_ladder as guarded_diamond_ladder
from stackpol.contexts import ANY_FAMILY, CallSite, normalize_family
from stackpol.errors import CapacityError
from stackpol.policy import encode
from stackpol import pushdown
from stackpol.pushdown import AnnotatedWPDS, ConditionalWPDS, Rule, movp
from stackpol.weights import ONE, ZERO, Weight, WeightTuple


def site(m, l):
    return CallSite(m, l)


def w(gen=(), kill=False, fin=(), hist=()):
    return Weight(
        frozenset(
            {
                WeightTuple(
                    kill=kill,
                    gen=frozenset(gen),
                    finished=frozenset(fin),
                    history=frozenset(hist),
                )
            }
        )
    )


def cond(*members):
    return frozenset(frozenset(m) for m in members)


# ---------------------------------------------------------------------------
# rules and direct stepping


def test_rule_kinds_follow_arity():
    za = site("A", 1)
    assert Rule("A", ("B", za)).kind == "push"
    assert Rule(za, ("A",)).kind == "swap"
    assert Rule("A", ()).kind == "pop"


def test_rule_arity_is_capped():
    za = site("A", 1)
    with pytest.raises(ValueError):
        Rule("A", ("B", za, za))


def test_rule_rendering():
    za = site("A", 1)
    assert str(Rule("A", ("B", za))) == "A --[any]--> B A:1 ; 1"
    assert str(Rule("A", (), weight=w(fin=["A"]))) == "A --[any]--> eps ; ({}|{}|{A}|{})"


def test_stack_sites_ignores_method_symbols():
    za, zb = site("A", 1), site("B", 2)
    assert stack_sites(("A", za, "B", zb)) == frozenset({za, zb})


def test_conditions_see_the_stack_strictly_below_the_top():
    za = site("A", 1)
    rules = [
        Rule("A", ("B", za)),
        # fires only once za sits below the top
        Rule("B", ("C", site("B", 2)), cond=cond([za])),
    ]
    system = ConditionalWPDS(rules, "A")
    first = successors(system, ("A",))
    assert [r.kind for r, _ in first] == ["push"]
    (rule, stack) = first[0]
    assert stack == ("B", za)
    second = successors(system, stack)
    assert len(second) == 1
    # but with the site removed from below, the conditional rule is dead
    assert successors(system, ("B",)) == []


def test_condition_on_top_symbol_itself_does_not_count():
    za = site("A", 1)
    rules = [Rule(za, ("X",), cond=cond([za]))]
    system = ConditionalWPDS(rules, za)
    # za is the top, not below it
    assert successors(system, (za,)) == []
    assert len(successors(system, (za, za))) == 1


def test_alphabet_and_dump_are_deterministic():
    za = site("A", 1)
    rules = [
        Rule("B", ()),
        Rule("A", ("B", za)),
        Rule(za, ("A",)),
    ]
    system = ConditionalWPDS(rules, "A")
    assert alphabet(system) == frozenset({"A", "B", za})
    dump = system.dump()
    assert dump.splitlines() == [
        "A --[any]--> B A:1 ; 1",
        "A:1 --[any]--> A ; 1",
        "B --[any]--> eps ; 1",
    ]
    assert dump == system.dump()


# ---------------------------------------------------------------------------
# the unconditional view over (symbol, sites_below) pairs


def test_annotation_math_push_swap_pop():
    # B's swap reads za and zb, and the return site za's swap reads zb, so
    # both are relevant at A and B, zb alone at za, and nothing at X or
    # zc; C's condition names zc, but C is not reachable from A or B
    za, zb, zc = site("A", 1), site("B", 2), site("A", 3)
    rules = [
        Rule("A", ("B", za)),
        Rule("A", ("B", zc)),
        Rule("B", ("X",), cond=cond([za], [zb])),
        Rule("X", ()),
        Rule(za, ("X",), cond=cond([zb])),
        Rule("C", ("X",), cond=cond([zc])),
    ]
    ann = AnnotatedWPDS(ConditionalWPDS(rules, "A"))
    below, none = frozenset({zb}), frozenset()
    assert ann.instances("A", below) == [
        (0, (("B", below | {za}), (za, below))),
        (1, (("B", below), (zc, none))),
    ]
    assert ann.instances("B", below | {za}) == [(2, (("X", none),))]
    assert ann.instances(za, below) == [(4, (("X", none),))]
    assert ann.instances("X", none) == [(3, ())]


def test_annotated_instances_respect_conditions():
    za = site("A", 1)
    rules = [Rule("B", ("C", site("B", 2)), cond=cond([za]))]
    ann = AnnotatedWPDS(ConditionalWPDS(rules, "B"))
    assert ann.instances("B", frozenset()) == []
    assert len(ann.instances("B", frozenset({za}))) == 1


def _random_system(rng: random.Random) -> ConditionalWPDS:
    methods = ["A", "B", "C", "D"]
    sites = [site(m, l) for m in methods for l in (1, 2)]
    symbols = methods + sites
    rules = []
    for _ in range(rng.randint(3, 9)):
        lhs = rng.choice(symbols)
        kind = rng.choice(["push", "push", "swap", "pop"])
        if kind == "push":
            rhs = (rng.choice(symbols), rng.choice(sites))
        elif kind == "swap":
            rhs = (rng.choice(symbols),)
        else:
            rhs = ()
        if rng.random() < 0.5:
            members = [
                frozenset(rng.sample(sites, rng.randint(0, 2)))
                for _ in range(rng.randint(1, 2))
            ]
            c = normalize_family(members)
        else:
            c = ANY_FAMILY
        rules.append(
            Rule(lhs, rhs, cond=c, weight=w(gen=[str(rng.randint(0, 3))]))
        )
    return ConditionalWPDS(rules, "A")


def _strip(pair_stack):
    return tuple(sym for sym, _below in pair_stack)


def test_conditional_and_reduced_stepping_agree_on_random_walks():
    rng = random.Random(7)
    sequences = 0
    while sequences < 250:
        system = _random_system(rng)
        ann = AnnotatedWPDS(system)
        relevant = relevant_sites(system)
        stack = (system.start,)
        for _step in range(6):
            direct = successors(system, stack)
            reduced = reduced_successors(ann, annotate_stack(stack, relevant))
            # same rules fire, producing the same concrete stacks
            direct_view = {(id(r), s) for r, s in direct}
            reduced_view = {(id(system.rules[idx]), _strip(s)) for idx, s in reduced}
            assert direct_view == reduced_view
            # and each symbol is paired with the sites below it relevant to it
            for _idx, s in reduced:
                assert s == annotate_stack(_strip(s), relevant)
            if not direct:
                break
            stack = rng.choice(direct)[1]
            sequences += 1


# ---------------------------------------------------------------------------
# meet over all paths


def test_single_push_weight_reaches_the_new_top():
    za = site("A", 1)
    push_w = w(gen=["A"], hist=[za])
    system = ConditionalWPDS([Rule("A", ("B", za), weight=push_w)], "A")
    assert movp(system, {"B"}).decode() == push_w
    assert movp(system, {"A"}).decode() == ONE
    assert movp(system, {"C"}).decode() == ZERO


def test_movp_combines_over_both_branches():
    za, zb = site("A", 1), site("A", 2)
    system = ConditionalWPDS(
        [
            Rule("A", ("B", za), weight=w(hist=[za])),
            Rule("A", ("B", zb), weight=w(hist=[zb])),
        ],
        "A",
    )
    got = movp(system, {"B"}).decode()
    assert got == w(hist=[za]).combine(w(hist=[zb]))


def test_pop_then_swap_merges_the_excursion():
    # A calls B at za; B finishes; za swaps back to A'
    za = site("A", 1)
    system = ConditionalWPDS(
        [
            Rule("A", ("B", za), weight=w(gen=["A"], hist=[za])),
            Rule("B", (), weight=w(fin=["B"])),
            Rule(za, ("A'",)),
        ],
        "A",
    )
    got = movp(system, {"A'"}).decode()
    assert got == w(gen=["A"], fin=["B"], hist=[za])


def test_a_method_pushed_from_many_sites_is_explored_once(monkeypatch):
    # main calls f from five sites; every push of the pair (f, {}) opens
    # the one state that pair names, so f's rules are instantiated once
    # and each caller keeps its own weight on its continuation out of f
    callers = [site("main", i) for i in range(1, 6)]
    zf = site("f", 1)
    rules = [Rule("main", ("f", s), weight=w(gen=["main"], hist=[s])) for s in callers]
    rules += [
        Rule("f", ("check", zf), weight=w(gen=["f"], hist=[zf])),
        Rule("check", (), weight=w(fin=["check"])),
        Rule(zf, (), weight=w(fin=["f"])),
    ]
    rules += [Rule(s, ("after",)) for s in callers]
    system = ConditionalWPDS(rules, "main")
    bases = []
    instances = pushdown.AnnotatedWPDS.instances

    def counted(self, base, below):
        bases.append(base)
        return instances(self, base, below)

    monkeypatch.setattr(pushdown.AnnotatedWPDS, "instances", counted)
    for target in ("check", "after"):
        bases.clear()
        got = movp(system, {target}).decode()
        assert bases.count("f") == 1
        assert got == movp_by_stepping(system, {target}, depth=8)
        assert got.width() == len(callers)


def test_condition_gates_the_solver_too():
    za, zb = site("A", 1), site("B", 2)
    system = ConditionalWPDS(
        [
            Rule("A", ("B", za), weight=w(hist=[za])),
            Rule("B", ("C", zb), cond=cond([za]), weight=w(hist=[zb])),
            Rule("B", ("D", zb), cond=cond([site("X", 9)]), weight=w()),
        ],
        "A",
    )
    assert movp(system, {"C"}).decode() == w(hist=[za, zb])
    assert movp(system, {"D"}).decode() == ZERO


def test_movp_matches_stepping_on_random_acyclic_systems():
    # forward-only rule shapes guarantee every run drains quickly
    rng = random.Random(11)
    order = ["A", "B", "C", "D", "E"]
    for _trial in range(60):
        rules = []
        sites = [site(m, 1) for m in order]
        for i, m in enumerate(order[:-1]):
            for callee in order[i + 1 :]:
                if rng.random() < 0.5:
                    callee_site = site(m, ord(callee))
                    if rng.random() < 0.3:
                        c = cond([site("A", ord(callee))])  # may be dead
                    else:
                        c = ANY_FAMILY
                    rules.append(
                        Rule(
                            m,
                            (callee, callee_site),
                            cond=c,
                            weight=w(gen=[m], hist=[callee_site]),
                        )
                    )
            if rng.random() < 0.4:
                rules.append(Rule(m, (), weight=w(fin=[m])))
        system = ConditionalWPDS(rules, "A")
        for target in order[1:]:
            assert movp(system, {target}).decode() == movp_by_stepping(
                system, {target}, depth=30
            ), f"target {target}"


def test_movp_matches_stepping_on_a_cyclic_system():
    # B and C call each other; repetition saturates because digests only
    # accumulate sets that are drawn from a finite universe
    zb, zc = site("B", 1), site("C", 1)
    system = ConditionalWPDS(
        [
            Rule("A", ("B", site("A", 1)), weight=w(gen=["A"], hist=[site("A", 1)])),
            Rule("B", ("C", zb), weight=w(gen=["B"], hist=[zb])),
            Rule("C", ("B", zc), weight=w(gen=["C"], hist=[zc])),
            Rule("B", (), weight=w(fin=["B"])),
            Rule("C", (), weight=w(fin=["C"])),
        ],
        "A",
    )
    engine = {t: movp(system, {t}).decode() for t in "ABC"}
    stepped = {
        t: movp_by_stepping(system, {t}, depth=16, require_drained=False)
        for t in "ABC"
    }
    deeper = {
        t: movp_by_stepping(system, {t}, depth=19, require_drained=False)
        for t in "ABC"
    }
    assert stepped == deeper, "stepping had not saturated at depth 16"
    assert engine == stepped


def _random_draining_system(rng: random.Random) -> ConditionalWPDS:
    # calls only go forward and a return resumes a continuation symbol
    # that can only pop, so every run drains; conditions name a random
    # few of the sites pushed so far, or now and then one never pushed
    order = ["A", "B", "C", "D", "E"]
    rules = []
    pushed = []

    def maybe_cond():
        if not pushed or rng.random() < 0.3:
            return ANY_FAMILY
        pool = pushed + [site("Z", 1)]
        return frozenset(
            frozenset(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
            for _ in range(rng.randint(1, 2))
        )

    for i, m in enumerate(order):
        for callee in order[i + 1 :]:
            if rng.random() < 0.6:
                s = site(m, rng.randint(1, 2))
                rules.append(
                    Rule(m, (callee, s), cond=maybe_cond(), weight=w(gen=[m], hist=[s]))
                )
                pushed.append(s)
        for m_ in (m, m + "'"):
            if rng.random() < 0.5:
                rules.append(Rule(m_, (), cond=maybe_cond(), weight=w(fin=[m_])))
        for l in (1, 2):
            if rng.random() < 0.5:
                rules.append(Rule(site(m, l), (m + "'",), weight=w(gen=[m + "'"])))
    return ConditionalWPDS(rules, "A")


def test_movp_matches_stepping_on_random_partly_named_systems():
    # the stepping reference tests conditions against every site below
    # the top, so it catches a projection that drops a site a condition
    # reads, which the weight-level reference, sharing AnnotatedWPDS,
    # cannot
    rng = random.Random(23)
    partly_named = 0
    for _trial in range(80):
        system = _random_draining_system(rng)
        pushed = {r.rhs[1] for r in system.rules if r.kind == "push"}
        named = named_sites(system)
        if pushed & named and pushed - named:
            partly_named += 1
        for target in sorted(alphabet(system), key=str):
            assert movp(system, {target}).decode() == movp_by_stepping(
                system, {target}, depth=30
            ), f"target {target}"
    assert partly_named >= 20


def test_movp_matches_stepping_on_a_ladder_whose_conditions_name_some_sites():
    model, _names = guarded_diamond_ladder(4)
    system = encode(model)
    pushed = {r.rhs[1] for r in system.rules if r.kind == "push"}
    assert named_sites(system) < pushed
    check = {model.check_method}
    assert movp(system, check).decode() == movp_by_stepping(system, check, depth=12)


def _reachable_pairs(view, start) -> set:
    # every (symbol, sites_below) pair that some rule instance leaves on
    # the stack, from the start symbol with nothing below it
    seen = {(start, frozenset())}
    todo = list(seen)
    while todo:
        for _idx, rhs in view.instances(*todo.pop()):
            for pair in rhs:
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return seen


@pytest.mark.parametrize("levels", [4, 8, 12])
def test_a_guarded_ladder_reaches_linearly_many_annotated_symbols(levels):
    # each level's calls are guarded by both sites of the level above, so
    # a level keeps one of those two sites and forgets the rest; projected
    # onto every named site, as GlobalAnnotatedWPDS does, level k would
    # keep any of 2^k site sets
    model, _names = guarded_diamond_ladder(levels)
    system = encode(model)
    pairs = _reachable_pairs(AnnotatedWPDS(system), system.start)
    assert len(pairs) == 4 * levels + 2


def test_per_symbol_and_global_projections_give_the_same_weights():
    # movp_by_weights runs over GlobalAnnotatedWPDS, the projection onto
    # every condition-named site
    model, _names = guarded_diamond_ladder(6)
    system = encode(model)
    assert len(_reachable_pairs(AnnotatedWPDS(system), system.start)) < len(
        _reachable_pairs(GlobalAnnotatedWPDS(system), system.start)
    )
    for m in [model] + [random_model(seed) for seed in range(300)]:
        system, check = encode(m), {m.check_method}
        assert str(movp(system, check).decode()) == str(movp_by_weights(system, check))


def test_a_system_without_conditions_reaches_only_empty_annotations():
    system = encode(layered_model(3, 3))
    assert all(r.cond == ANY_FAMILY for r in system.rules)
    ann = AnnotatedWPDS(system)
    frontier = {((system.start, frozenset()),)}
    seen = set(frontier)
    for _depth in range(12):
        frontier = {s for stack in frontier for _idx, s in reduced_successors(ann, stack)}
        frontier -= seen
        seen |= frontier
    assert len(seen) > 20
    assert {below for stack in seen for _sym, below in stack} == {frozenset()}


def test_weight_fold_along_one_run_matches_rule_order():
    za, zb = site("A", 1), site("B", 1)
    r1 = Rule("A", ("B", za), weight=w(gen=["A"], hist=[za]))
    r2 = Rule("B", ("C", zb), weight=w(kill=True, gen=["B"], hist=[zb]))
    system = ConditionalWPDS([r1, r2], "A")
    assert movp(system, {"C"}).decode() == fold_weights([r1.weight, r2.weight])


def _diamond_ladder(levels: int) -> ConditionalWPDS:
    # level i pushes level i+1 at two sites, doubling the digests each time
    rules = []
    for i in range(levels):
        top, nxt = f"L{i}", f"L{i + 1}"
        for branch in (1, 2):
            s = site(top, branch)
            rules.append(Rule(top, (nxt, s), weight=w(hist=[s])))
    return ConditionalWPDS(rules, "L0")


def test_tuple_cap_aborts_wide_solves():
    system = _diamond_ladder(14)
    with pytest.raises(CapacityError):
        movp(system, {"L14"}, tuple_cap=1000)
    assert movp(system, {"L14"}, tuple_cap=1 << 15).width() == 1 << 14


def test_step_budget_guards_against_runaway_saturation(monkeypatch):
    za = site("A", 1)
    system = ConditionalWPDS(
        [
            Rule("A", ("B", za), weight=w(hist=[za])),
            Rule("B", ("A",)),
        ],
        "A",
    )
    monkeypatch.setattr(pushdown, "MAX_STEPS", 2)
    with pytest.raises(CapacityError, match="within 2 steps"):
        movp(system, {"B"})


def test_movp_on_the_bundled_model_matches_stepping(example_model):
    # the make-then-return excursion can repeat, so runs never drain;
    # compare at two depths to show the stepped total has saturated
    system = encode(example_model)
    engine = movp(system, {example_model.check_method}).decode()
    stepped = movp_by_stepping(
        system, {example_model.check_method}, depth=18, require_drained=False
    )
    deeper = movp_by_stepping(
        system, {example_model.check_method}, depth=22, require_drained=False
    )
    assert stepped == deeper, "stepping had not saturated at depth 18"
    assert engine == stepped
    assert engine.width() == 8


# ---------------------------------------------------------------------------
# the packed solver against the reference that saturates on Weight values


def _solvers_agree(system: ConditionalWPDS, targets) -> Weight:
    decoded = movp(system, targets).decode()
    assert decoded == movp_by_weights(system, targets)
    return decoded


def _model_solvers_agree(model) -> Weight:
    return _solvers_agree(encode(model), {model.check_method})


def test_packed_solver_matches_the_reference_on_the_bundled_model(example_model):
    assert _model_solvers_agree(example_model).width() == 8


def test_packed_solver_matches_the_reference_on_random_models():
    for seed in range(60):
        _model_solvers_agree(random_model(seed))


def test_packed_solver_matches_the_reference_on_a_layered_model():
    # the factory's return flow adds a pop and a swap, so digests also
    # come through the solver's epsilon folding
    model = layered_model(3, 3)
    kinds = {r.kind for r in encode(model).rules}
    assert kinds == {"push", "swap", "pop"}
    weight = _model_solvers_agree(model)
    assert any("fac" in t.finished for t in weight.tuples)


def test_packed_solver_matches_the_reference_on_a_guarded_diamond_ladder():
    model, _names = guarded_diamond_ladder(6)
    assert _model_solvers_agree(model).width() == 2**6


def test_packed_solver_matches_the_reference_when_a_privileged_caller_kills_all():
    zm, zw, zp, zr = site("main", 1), site("main", 2), site("priv", 1), site("work", 1)
    system = ConditionalWPDS(
        [
            Rule("main", ("priv", zm), weight=w(gen=["main"], hist=[zm])),
            Rule("main", ("work", zw), weight=w(gen=["main"], hist=[zw])),
            Rule("priv", ("work", zp), weight=w(kill=True, gen=["priv"], hist=[zp])),
            Rule("work", ("check", zr), weight=w(gen=["work"], hist=[zr])),
        ],
        "main",
    )
    weight = _solvers_agree(system, {"check"})
    assert {(t.kill, t.gen) for t in weight.tuples} == {
        (True, frozenset({"priv", "work"})),
        (False, frozenset({"main", "work"})),
    }


def test_packed_and_reference_solvers_reach_the_same_caps():
    system = _diamond_ladder(14)
    for cap in (1000, 1 << 13):
        with pytest.raises(CapacityError) as packed:
            movp(system, {"L14"}, tuple_cap=cap)
        with pytest.raises(CapacityError) as reference:
            movp_by_weights(system, {"L14"}, tuple_cap=cap)
        assert str(packed.value) == str(reference.value)


def test_packed_and_reference_solvers_reach_the_same_final_cap(monkeypatch):
    # the conditions keep the two sites of each upper level apart in the
    # annotations, so every transition stays narrow and only the final
    # result exceeds the cap
    model, _names = guarded_diamond_ladder(8)
    system = encode(model)
    check = {model.check_method}
    cap = 2**8 - 1
    final_widths = []
    check_width = pushdown.check_width

    def recorded(weight, tuple_cap):
        final_widths.append(weight.width())
        return check_width(weight, tuple_cap)

    monkeypatch.setattr(pushdown, "check_width", recorded)
    with pytest.raises(CapacityError) as packed:
        movp(system, check, tuple_cap=cap)
    with pytest.raises(CapacityError) as reference:
        movp_by_weights(system, check, tuple_cap=cap)
    assert final_widths == [2**8]
    assert str(packed.value) == str(reference.value)
    assert str(packed.value).startswith("weight grew to 256 digests (cap 255)")
