"""System encoding, policy extraction, rendering, checking, simulation."""

import pytest
from bruteforce import (
    checkpoint_reads,
    grants_by_scan,
    movp_by_weights,
    projected,
    read_sites,
    route_universe,
)
from randmodels import random_model

from stackpol import (
    CapacityError,
    Frame,
    Permission,
    Policy,
    PolicyError,
    Weight,
    check_policy,
    concrete_stack,
    emit_policy,
    enum_vpaths,
    generate_permissions,
    generate_policy,
    oracle_policy,
    parse_model,
    parse_permission,
    parse_policy_table,
    simulate_inspection,
)
from stackpol.contexts import ANY_FAMILY, CallSite
from stackpol.oracle import _shapes_and_allowed, relates
from stackpol.policy import encode
from stackpol.pushdown import movp
from stackpol.weights import PackedWeight, WeightTuple

S = CallSite

PERM_F = Permission("SocketPermission", "jaist.ac.jp/faculty:8080", "connect")
PERM_S = Permission("SocketPermission", "jaist.ac.jp/student:8080", "connect")
PERM_A = Permission("FilePermission", "C:/log.txt", "write")

MINIMAL = """\
method main entry
method doPriv priv
method check check
"""


def build(*lines: str):
    return parse_model(MINIMAL + "\n".join(lines) + "\n")


# ------------------------------------------------------------------ encoding


def test_bundled_encoding_rule_inventory(example_model):
    system = encode(example_model)
    pushes = [r for r in system.rules if r.kind == "push"]
    pops = [r for r in system.rules if r.kind == "pop"]
    swaps = [r for r in system.rules if r.kind == "swap"]
    assert (len(pushes), len(pops), len(swaps)) == (10, 1, 1)
    assert system.start == "main"

    # the flow returns out of mkSocketPerm and resumes after checkConnect:5;
    # the intra-method dep edges contribute no rules
    (pop,) = pops
    assert pop.lhs == "mkSocketPerm" and pop.rhs == ()
    digest = pop.weight
    assert digest.finished == frozenset({"mkSocketPerm"})
    assert digest.gen == frozenset()
    assert digest.kill is False

    (swap,) = swaps
    assert swap.lhs == S("checkConnect", 5)
    assert swap.rhs == ("checkConnect",)
    assert swap.weight == WeightTuple()


def test_push_weights_record_caller_and_site(example_model):
    system = encode(example_model)
    by_site = {
        r.rhs[1]: r for r in system.rules if r.kind == "push"
    }
    plain = by_site[S("connectFaculty", 30)]
    digest = plain.weight
    assert digest.gen == frozenset({"connectFaculty"})
    assert digest.history == frozenset({S("connectFaculty", 30)})
    assert digest.kill is False

    # a call made by the privilege primitive wipes everything beneath it
    privileged = by_site[S("doPrivileged", 1)]
    digest = privileged.weight
    assert digest.kill is True
    assert digest.gen == frozenset({"doPrivileged"})
    assert privileged.cond != ANY_FAMILY

    # every rule's one digest has its kind's shape, and every push
    # records its own site, whether or not a grant reads it; the solver
    # cuts the histories (see test_cwpds.py)
    unread = 0
    for seed in range(200):
        model = random_model(seed)
        read = read_sites(generate_permissions(model))
        for r in encode(model).rules:
            if r.kind == "push":
                unread += r.rhs[1] not in read
                assert r.weight == WeightTuple(
                    kill=r.lhs == model.priv_method,
                    gen=frozenset({r.lhs}),
                    history=frozenset({r.rhs[1]}),
                )
            elif r.kind == "pop":
                assert r.weight == WeightTuple(finished=frozenset({r.lhs}))
            else:
                assert r.weight == WeightTuple()
    assert unread


def test_push_conditions_mirror_edge_contexts(example_model):
    system = encode(example_model)
    conditional = [r for r in system.rules if r.kind == "push" and r.cond != ANY_FAMILY]
    assert {r.rhs[1] for r in conditional} == {
        S("doPrivileged", 1),
        S("Priv.run", 20),
    }


def test_model_without_dep_returns_encodes_only_pushes():
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "depnode a mk 7 kind=alloc form=3 type=AllPermission",
        "depnode c main 2 kind=callsite",
        "checkarg main:2 var=p",
        "pta p@main = {(AllPermission, a, {})}",
    )
    system = encode(m)
    assert [r.kind for r in system.rules] == ["push", "push"]


def test_parallel_return_flows_encode_one_pop_and_one_swap_each():
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "depnode a mk 7 kind=alloc form=3 type=AllPermission",
        "depnode r1 mk 8 kind=return",
        "depnode r2 mk 9 kind=return",
        "depnode c main 1 kind=callsite",
        "depedge a r1",
        "depedge a r2",
        "depedge r1 c inter=return",
        "depedge r2 c inter=return",
        "checkarg main:2 var=p",
        "pta p@main = {(AllPermission, a, {})}",
    )
    system = encode(m)
    # both return edges collapse to the same pop and the same swap
    assert len([r for r in system.rules if r.kind == "pop"]) == 1
    assert len([r for r in system.rules if r.kind == "swap"]) == 1


# ----------------------------------------------------------------- extraction


def test_bundled_policy_grants(example_policy):
    assert example_policy.grants == {
        "main": frozenset({PERM_F, PERM_S}),
        "checkConnect": frozenset({PERM_F, PERM_S}),
        "connectFaculty": frozenset({PERM_F}),
        "connectStudent": frozenset({PERM_S}),
        "Priv.run": frozenset({PERM_A}),
        "checkAccess": frozenset({PERM_A}),
    }
    assert example_policy.system_methods == frozenset(
        {"checkPermission", "doPrivileged"}
    )


def test_bundled_solution_width(example_result):
    # two user routes, each read at the socket check and again (extended
    # through the privileged excursion) at the file check, before and
    # after the make-socket call returns
    assert len(example_result.weight.tuples) == 8


def test_unreachable_checkpoint_grants_nothing():
    m = build(
        "method island",
        "calledge 1 island 1 check ctx=any",
        "depnode a island 5 kind=alloc form=3 type=AllPermission",
        "checkarg island:1 var=p",
        "pta p@island = {(AllPermission, a, {island:1})}",
    )
    result = generate_policy(m, generate_permissions(m))
    assert result.policy.grants == {}
    assert not result.weight.tuples


def _grants_match_scan(model):
    """Generate a policy and check it against the digest-by-digest scan."""
    universe = generate_permissions(model)
    result = generate_policy(model, universe)
    assert result.policy.grants == grants_by_scan(model, universe, result.weight)
    return universe, result.policy.grants


def _diamond_ladder(depth: int):
    # level i calls level i+1 at two sites, guarded below level 0 by both
    # sites of the level above; the bottom checks a form-3 permission
    names = [f"L{i}" for i in range(depth + 1)]
    lines = [f"method {names[0]} entry"] + [f"method {n}" for n in names[1:]]
    lines += ["method doPriv priv", "method check check"]
    ident = 0
    for i in range(depth):
        ctx = "any" if i == 0 else f"{{{names[i - 1]}:1;{names[i - 1]}:2}}"
        for branch in (1, 2):
            ident += 1
            lines.append(f"calledge {ident} {names[i]} {branch} {names[i + 1]} ctx={ctx}")
    bottom = names[-1]
    route = ",".join(f"{n}:1" for n in names[:-1])
    lines += [
        f"calledge {ident + 1} {bottom} 1 check ctx=any",
        f"depnode a {bottom} 90 kind=alloc form=3 type=P",
        f"checkarg {bottom}:1 var=p",
        f"pta p@{bottom} = {{(P, a, {{{route}}})}}",
    ]
    return parse_model("\n".join(lines) + "\n"), names


def _branch_ladder(depth: int, name_branches: bool = False):
    # level i enters level i+1 through one of two distinct methods, so
    # every route to the bottom leaves a different set of live methods;
    # the bottom checks a form-3 permission, or with ``name_branches`` a
    # form-2 one whose string facts name each branch site in a context of
    # its own, so every route also leaves a different cut history
    lines = ["method J0 entry", "method doPriv priv", "method check check"]
    for i in range(1, depth + 1):
        lines += [f"method A{i}", f"method B{i}", f"method J{i}"]
        lines += [
            f"calledge a{i} J{i - 1} 1 A{i} ctx=any",
            f"calledge b{i} J{i - 1} 2 B{i} ctx=any",
            f"calledge ja{i} A{i} 1 J{i} ctx=any",
            f"calledge jb{i} B{i} 1 J{i} ctx=any",
        ]
    if name_branches:
        facts = "; ".join(
            f'("/{branch}{i}", {{J{i - 1}:{line}}})'
            for i in range(1, depth + 1)
            for line, branch in ((1, "a"), (2, "b"))
        )
        lines += [
            f"depnode a J{depth} 90 kind=alloc form=2 type=P target=t",
            f"sa t@J{depth} = {{{facts}}}",
        ]
    else:
        lines.append(f"depnode a J{depth} 90 kind=alloc form=3 type=P")
    lines += [
        f"calledge z J{depth} 9 check ctx=any",
        f"checkarg J{depth}:9 var=p",
        f"pta p@J{depth} = {{(P, a, {{}})}}",
    ]
    return parse_model("\n".join(lines) + "\n")


def test_extraction_matches_scan_on_the_bundled_model(example_model):
    _, grants = _grants_match_scan(example_model)
    assert len(grants) == 6


def test_extraction_matches_scan_on_random_models():
    for seed in range(60):
        _grants_match_scan(random_model(seed))


def test_extraction_matches_scan_on_a_form3_diamond_ladder():
    model, names = _diamond_ladder(6)
    universe, grants = _grants_match_scan(model)
    (perm,) = universe.perms
    # one singleton per call site into the allocating method, where the
    # route contexts would be all 2^6 routes
    above = names[-2]
    assert universe.contexts[perm] == frozenset(
        {frozenset({S(above, 1)}), frozenset({S(above, 2)})}
    )
    assert grants == {n: frozenset({perm}) for n in names}


def test_extraction_matches_scan_on_an_any_family_demand():
    # allocated in the entry method, whose only route context is the empty one
    m = build(
        "method worker",
        "calledge 1 main 1 worker ctx=any",
        "calledge 2 worker 1 check ctx=any",
        "depnode a main 5 kind=alloc form=3 type=P",
        "checkarg worker:1 var=p",
        "pta p@worker = {(P, a, {main:1})}",
    )
    universe, grants = _grants_match_scan(m)
    (perm,) = universe.perms
    assert universe.contexts[perm] == ANY_FAMILY
    assert grants == {"main": frozenset({perm}), "worker": frozenset({perm})}


def test_extraction_matches_scan_when_a_checkpoint_is_never_traversed():
    m = build(
        "method worker",
        "method island",
        "calledge 1 main 1 worker ctx=any",
        "calledge 2 worker 1 check ctx=any",
        "calledge 3 island 1 check ctx=any",
        "depnode a worker 5 kind=alloc form=3 type=P",
        "depnode b island 5 kind=alloc form=3 type=Q",
        "checkarg worker:1 var=p",
        "checkarg island:1 var=q",
        "pta p@worker = {(P, a, {main:1})}",
        "pta q@island = {(Q, b, {island:1})}",
    )
    universe, grants = _grants_match_scan(m)
    assert len(universe.perms) == 2
    assert grants == {
        "main": frozenset({Permission("P")}),
        "worker": frozenset({Permission("P")}),
    }


def test_extraction_matches_scan_below_a_privilege_assertion():
    # doPriv's call kills main's frame, so only inner needs the permission
    m = build(
        "method inner",
        "calledge 1 main 1 doPriv ctx=any",
        "calledge 2 doPriv 1 inner ctx=any",
        "calledge 3 inner 1 check ctx=any",
        "depnode a inner 5 kind=alloc form=3 type=P",
        "checkarg inner:1 var=p",
        "pta p@inner = {(P, a, {main:1,doPriv:1})}",
    )
    _, grants = _grants_match_scan(m)
    assert grants == {"inner": frozenset({Permission("P")})}


def _full_bipartite(layers: int, width: int):
    # every method of a layer calls every method of the next at the
    # callee's index; bottom method j checks a form-1 permission whose
    # facts hold on two routes to it, and m{layers}_2 asserts a privilege
    # whose tail checks a form-2 permission that a factory returns to it
    def layer(i):
        return [f"m{i}_{j}" for j in range(1, width + 1)]

    def route(picks):
        callers = ["main"] + [f"m{i}_{p}" for i, p in enumerate(picks[:-1], start=1)]
        return ",".join(f"{c}:{p}" for c, p in zip(callers, picks))

    lines = [f"method {m}" for i in range(1, layers + 1) for m in layer(i)]
    lines += ["method ptail", "method pfactory"]
    callers = ["main"]
    for i in range(1, layers + 1):
        lines += [
            f"calledge {c}-{m} {c} {k} {m} ctx=any"
            for c in callers
            for k, m in enumerate(layer(i), start=1)
        ]
        callers = layer(i)
    for j, m in enumerate(callers, start=1):
        straight = route([j] * layers)
        other = route([j % width + 1] * (layers - 1) + [j])
        lines += [
            f"calledge {m}-check {m} 9 check ctx=any",
            f"depnode a{j} {m} 90 kind=alloc form=1 type=F target=t action=a",
            f"depnode c{j} {m} 9 kind=callsite",
            f"depedge a{j} c{j}",
            f"checkarg {m}:9 var=p",
            f"pta p@{m} = {{(F, a{j}, {{{straight}}})}}",
            f'sa t@{m} = {{("/{j}a", {{{straight}}}); ("/{j}b", {{{other}}})}}',
            f'sa a@{m} = {{("read", {{{straight}}}); ("write", {{{other}}})}}',
        ]
    host = f"m{layers}_2"
    tail = route([1] + [2] * (layers - 1) + [8]) + ",doPriv:1"
    lines += [
        f"calledge priv {host} 8 doPriv ctx=any",
        "calledge tail doPriv 1 ptail ctx=any",
        "calledge tail-check ptail 1 check ctx=any",
        "calledge tail-fac ptail 2 pfactory ctx=any",
        "depnode ta pfactory 90 kind=alloc form=2 type=R target=t",
        "depnode tr pfactory 91 kind=return",
        "depnode tb ptail 2 kind=callsite",
        "depnode tc ptail 1 kind=callsite",
        "depedge ta tr",
        "depedge tr tb inter=return",
        "depedge tb tc",
        "checkarg ptail:1 var=p",
        f"pta p@ptail = {{(R, ta, {{{tail}}})}}",
        f'sa t@pfactory = {{("exit", {{{tail},ptail:2}})}}',
    ]
    return build(*lines)


def test_extraction_matches_scan_on_a_full_bipartite_layered_model():
    # many digests share one live set and few grant: the 9 routes into
    # the asserting m3_2, each with and without the factory's return,
    # leave only ptail live, and only the one route the tail's demand
    # names grants there.  The tail's checkpoint reads 3 sites of those
    # routes, main:1, m1_1:2 and m2_2:2, which split the 9 routes into 4
    # classes, so 8 of the 18 digests are left
    model = _full_bipartite(3, 3)
    universe, grants = _grants_match_scan(model)
    weight = generate_policy(model, universe).weight
    reference = movp_by_weights(encode(model), {model.check_method})
    assert weight == projected(reference, checkpoint_reads(universe))
    hidden = {model.check_method, model.priv_method}
    lives = [(d.gen - d.finished) - hidden for d in weight.tuples]
    granting = [
        d
        for d in weight.tuples
        if grants_by_scan(model, universe, Weight(frozenset({d})))
    ]
    counts = (reference.width(), len(lives), len(set(lives)), len(granting))
    assert counts == (45, 35, 28, 7)
    assert lives.count(frozenset({"ptail"})) == 8
    assert grants["ptail"] == frozenset({Permission("R", "exit")})
    assert grants["m3_2"] == frozenset(
        {Permission("F", "/2a", "read"), Permission("F", "/2b", "write")}
    )
    assert len(grants["main"]) == 6


SHARED_CHECKPOINT_MODEL = """\
method main entry
method Z
method doPriv priv
method check check
calledge 1 main 1 check ctx=any
calledge 2 main 1 Z ctx=any
calledge 3 Z 1 check ctx=any
depnode a1 main 50 kind=alloc form=3 type=P1
depnode c1 main 1 kind=callsite
depedge a1 c1
checkarg main:1 var=p
pta p@main = {(P1, a1, {})}
depnode a2 Z 50 kind=alloc form=2 type=P2 target=t
depnode c2 Z 1 kind=callsite
depedge a2 c2
checkarg Z:1 var=q
pta q@Z = {(P2, a2, {})}
sa t@Z = {("x", {})}
"""


def test_a_checkpoint_site_that_also_calls_a_method_keeps_every_read_site():
    # main:1 calls both check and Z, so the stack that Z:1 checks holds
    # main:1 in its history, and extraction reads it as P1's checkpoint
    # there; a cut to what Z:1 reads would drop it, so the solve keeps
    # every site that some checkpoint reads, and the grants stay the
    # unprojected solve's.  The oracle, which tells the two calls at
    # main:1 apart, gives Z no P1
    model = parse_model(SHARED_CHECKPOINT_MODEL)
    universe = generate_permissions(model)
    result = generate_policy(model, universe)
    reference = movp_by_weights(encode(model), {model.check_method})
    reads = checkpoint_reads(universe)
    union = projected(reference, dict.fromkeys(reads, read_sites(universe)))
    assert result.weight == union == projected(reference, reads)
    p1, p2 = Permission("P1"), Permission("P2", "x")
    assert result.policy.grants == {"main": {p1, p2}, "Z": {p1, p2}}
    assert oracle_policy(model, universe).grants == {"main": {p1, p2}, "Z": {p2}}


def test_a_demand_context_naming_a_site_no_rule_pushes_matches_no_digest(
    example_model, example_universe
):
    # no parsed model names such a site; a hand-built universe can
    ghost = frozenset({S("nowhere", 1)})
    universe = example_universe._replace(
        contexts={
            p: ctxs | {ghost} if p == PERM_F else frozenset({ghost})
            for p, ctxs in example_universe.contexts.items()
        },
    )
    grants = generate_policy(example_model, universe).policy.grants
    assert grants == {
        m: frozenset({PERM_F})
        for m in ("main", "checkConnect", "connectFaculty")
    }
    result = generate_policy(example_model, universe)
    assert grants == grants_by_scan(example_model, universe, result.weight)


def test_generate_policy_decodes_no_digest(example_model, monkeypatch):
    models = [example_model] + [random_model(seed) for seed in range(60)]
    universes = [generate_permissions(m) for m in models]
    expected = [
        grants_by_scan(m, u, generate_policy(m, u).weight)
        for m, u in zip(models, universes)
    ]

    def refuse(self):
        raise AssertionError("a digest was decoded")

    monkeypatch.setattr(PackedWeight, "decode", refuse)
    got = [generate_policy(m, u).policy.grants for m, u in zip(models, universes)]
    assert got == expected


def test_result_weight_decodes_to_the_reference_solve(example_model):
    universe = generate_permissions(example_model)
    result = generate_policy(example_model, universe)
    reference = movp_by_weights(encode(example_model), {example_model.check_method})
    assert result.weight == projected(reference, checkpoint_reads(universe))
    assert result.digests.width() == reference.width() == 8


def test_tuple_cap_counts_packed_digests_through_generate_policy():
    # each branch site is named, so the cut keeps a distinct history for
    # each of the 2^8 routes, and no two digests merge
    model = _branch_ladder(8, name_branches=True)
    universe = generate_permissions(model)
    with pytest.raises(CapacityError) as capped:
        generate_policy(model, universe, tuple_cap=255)
    assert str(capped.value).startswith("weight grew to 256 digests (cap 255)")
    result = generate_policy(model, universe, tuple_cap=256)
    assert result.digests.width() == 256
    # a permission named at a branch site goes to every method of the
    # routes through that site, which is every method but the other branch
    ladder = set(model.methods) - {"doPriv", "check"}
    expected = {m: set() for m in ladder}
    for i in range(1, 9):
        for branch, other in (("a", "B"), ("b", "A")):
            for m in ladder - {f"{other}{i}"}:
                expected[m].add(Permission("P", f"/{branch}{i}"))
    assert result.policy.grants == {m: frozenset(ps) for m, ps in expected.items()}


def test_digests_that_differ_only_in_gen_merge_into_one():
    # the form-3 demand names only the two sites into the bottom, so the
    # 2^8 live sets leave two cut histories; each is one merged digest
    # whose gen is the union of its routes', and the grants are theirs
    model = _branch_ladder(8)
    universe = generate_permissions(model)
    result = generate_policy(model, universe, tuple_cap=2)
    assert result.digests.width() == 2
    reference = movp_by_weights(encode(model), {model.check_method})
    assert reference.width() == 256
    assert result.weight == projected(reference, checkpoint_reads(universe))
    assert result.policy.grants == grants_by_scan(model, universe, reference)


def _grants_match_route_demand(model):
    # the exact solve scanned under route-context demand for form 3 gives
    # the grants of the pipeline's singleton demand on cut histories
    universe = generate_permissions(model)
    exact = movp(encode(model), {model.check_method}).decode()
    expected = grants_by_scan(model, route_universe(model, universe), exact)
    assert generate_policy(model, universe).policy.grants == expected
    return universe, expected


def test_route_demand_on_the_exact_solve_grants_alike_on_the_bundled_model(
    example_model, example_policy
):
    _, grants = _grants_match_route_demand(example_model)
    assert grants == example_policy.grants


def test_route_demand_on_the_exact_solve_grants_alike_on_ladders():
    diamond, names = _diamond_ladder(6)
    _, grants = _grants_match_route_demand(diamond)
    assert grants == {n: frozenset({Permission("P")}) for n in names}
    branch = _branch_ladder(5)
    _, grants = _grants_match_route_demand(branch)
    assert set(grants) == set(branch.methods) - {"doPriv", "check"}


def test_route_demand_on_the_exact_solve_grants_alike_on_random_models():
    for seed in range(300):
        _grants_match_route_demand(random_model(seed))


def test_a_shared_call_site_into_the_allocator_demands_alike():
    # c:2 calls both x, which allocates, and y, which does not; a run
    # through y holds c:2 in its history, and so does every route to x
    m = build(
        "method c",
        "method x",
        "method y",
        "calledge 1 main 1 c ctx=any",
        "calledge 2 c 2 x ctx=any",
        "calledge 3 c 2 y ctx=any",
        "calledge 4 c 4 check ctx=any",
        "calledge 5 y 3 check ctx=any",
        "depnode a x 7 kind=alloc form=3 type=P",
        "depnode r c 2 kind=callsite",
        "depnode k c 4 kind=callsite",
        "depedge a r inter=return",
        "depedge r k",
        "checkarg c:4 var=p",
        "checkarg y:3 var=q",
        "pta p@c = {(P, a, {main:1,c:2})}",
        "pta q@y = {(P, a, {main:1,c:2})}",
    )
    universe, grants = _grants_match_route_demand(m)
    perm = Permission("P")
    assert universe.contexts[perm] == frozenset({frozenset({S("c", 2)})})
    assert route_universe(m, universe).contexts[perm] == frozenset(
        {frozenset({S("main", 1), S("c", 2)})}
    )
    assert grants == {m_: frozenset({perm}) for m_ in ("main", "c", "y")}


def test_grants_never_name_the_privilege_or_check_primitives(example_policy):
    assert "doPrivileged" not in example_policy.grants
    assert "checkPermission" not in example_policy.grants
    assert "mkSocketPerm" not in example_policy.grants


# ------------------------------------------------------------------ rendering


def test_emit_table_is_sorted_and_exact(example_policy):
    assert emit_policy(example_policy, "table") == (
        'method Priv.run: FilePermission("C:/log.txt","write")\n'
        'method checkAccess: FilePermission("C:/log.txt","write")\n'
        'method checkConnect: SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
        'method checkConnect: SocketPermission("jaist.ac.jp/student:8080","connect")\n'
        'method connectFaculty: SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
        'method connectStudent: SocketPermission("jaist.ac.jp/student:8080","connect")\n'
        'method main: SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
        'method main: SocketPermission("jaist.ac.jp/student:8080","connect")\n'
    )


def test_emit_java_unions_methods_sharing_a_domain():
    policy = Policy(
        grants={
            "a": frozenset({Permission("T", "x", "y")}),
            "b": frozenset({Permission("U")}),
            "c": frozenset({Permission("V", "t")}),
        },
        method_domains={"a": "file:/app", "b": "file:/app"},
    )
    assert emit_policy(policy, "java") == (
        'grant codeBase "c" {\n'
        '  permission V "t";\n'
        "};\n"
        'grant codeBase "file:/app" {\n'
        '  permission T "x", "y";\n'
        "  permission U;\n"
        "};\n"
    )


def test_emit_java_escapes_backslashes_and_quotes():
    # Java's policy parser reads "C:\tmp" as C:<TAB>mp, so a backslash
    # and a quote are escaped in the codeBase, the target and the action;
    # the table form stays raw, since parse_policy_table reads it raw
    perm = Permission("FilePermission", "C:\\tmp\\x", 'say "hi"')
    policy = Policy(
        grants={"a": frozenset({perm}), "b": frozenset({Permission("T", "\\")})},
        method_domains={"a": 'file:/C:\\app "1"'},
    )
    assert emit_policy(policy, "java") == (
        'grant codeBase "b" {\n'
        '  permission T "\\\\";\n'
        "};\n"
        'grant codeBase "file:/C:\\\\app \\"1\\"" {\n'
        '  permission FilePermission "C:\\\\tmp\\\\x", "say \\"hi\\"";\n'
        "};\n"
    )
    table = Policy(grants={"a": frozenset({Permission("FilePermission", "C:\\tmp")})})
    assert emit_policy(table, "table") == 'method a: FilePermission("C:\\tmp")\n'
    assert parse_policy_table(emit_policy(table, "table")).grants == table.grants


def test_emit_java_writes_url_domains_and_qualified_types_verbatim():
    # the JDK's policy file loads a grant only when its codeBase is a URL
    # and resolves a permission only by its fully qualified class name; a
    # model that names both gets a file the JDK applies as it stands
    model = parse_model(
        "method main entry domain=file:/opt/app/main.jar\n"
        "method worker domain=file:/opt/app/lib.jar\n"
        "method checkPermission check\n"
        "method doPrivileged priv\n"
        "calledge 1 main 1 worker ctx=any\n"
        "calledge 2 worker 4 checkPermission ctx={main:1}\n"
        "depnode n1 worker 3 kind=alloc form=1 type=java.io.FilePermission "
        "target=t action=a\n"
        "depnode n2 worker 4 kind=callsite\n"
        "depedge n1 n2\n"
        "checkarg worker:4 var=p\n"
        "pta p@worker = {(java.io.FilePermission, n1, {main:1})}\n"
        'sa t@worker = {("/tmp/log", {main:1})}\n'
        'sa a@worker = {("read", {main:1})}\n'
    )
    policy = generate_policy(model, generate_permissions(model)).policy
    assert emit_policy(policy, "java") == (
        'grant codeBase "file:/opt/app/lib.jar" {\n'
        '  permission java.io.FilePermission "/tmp/log", "read";\n'
        "};\n"
        'grant codeBase "file:/opt/app/main.jar" {\n'
        '  permission java.io.FilePermission "/tmp/log", "read";\n'
        "};\n"
    )
    table = emit_policy(policy, "table")
    assert table == (
        'method main: java.io.FilePermission("/tmp/log","read")\n'
        'method worker: java.io.FilePermission("/tmp/log","read")\n'
    )
    assert parse_policy_table(table).grants == policy.grants


def test_emit_empty_policy_is_empty_text():
    assert emit_policy(Policy(grants={}), "table") == ""
    assert emit_policy(Policy(grants={}), "java") == ""


def test_emit_rejects_unknown_format(example_policy):
    with pytest.raises(PolicyError, match="unknown policy format"):
        emit_policy(example_policy, "xml")


def test_table_round_trip(example_policy):
    parsed = parse_policy_table(emit_policy(example_policy, "table"))
    assert parsed.grants == example_policy.grants


def test_a_read_back_table_replays_once_system_methods_are_restored(
    example_model, example_universe, example_policy
):
    # a table carries grants only, so the read-back policy checks against
    # the generated one but does not know doPrivileged is a system method
    given = parse_policy_table(emit_policy(example_policy, "table"))
    assert check_policy(given, example_policy).passed
    _shapes, allowed = _shapes_and_allowed(example_model, example_universe)
    related = [
        (concrete_stack(example_model, sigma), perm)
        for sigma in enum_vpaths(example_model, example_model.check_method)
        for perm in example_universe.sorted_perms()
        if relates(example_model, (sigma.edges[-1].site, sigma.methods()), perm, allowed)
    ]
    assert related
    assert all(simulate_inspection(s, p, example_policy).passed for s, p in related)
    failed = [simulate_inspection(s, p, given).failed_at for s, p in related]
    # one failure per privileged stack, faculty's and student's
    assert sorted(filter(None, failed)) == ["doPrivileged"] * 2
    fixed = given._replace(system_methods=example_policy.system_methods)
    assert all(simulate_inspection(s, p, fixed).passed for s, p in related)


def test_parse_permission_forms():
    assert parse_permission("AllPermission") == Permission("AllPermission")
    assert parse_permission('FilePermission("/tmp/x")') == Permission(
        "FilePermission", "/tmp/x"
    )
    assert parse_permission(
        ' SocketPermission("h:1", "connect") '
    ) == Permission("SocketPermission", "h:1", "connect")
    with pytest.raises(PolicyError, match="malformed permission"):
        parse_permission("not a permission(")


def test_parse_table_reports_line_numbers():
    with pytest.raises(PolicyError, match="line 3: expected"):
        parse_policy_table("method a: T\n\nnonsense\n")
    with pytest.raises(PolicyError, match="line 1: malformed permission"):
        parse_policy_table('method a: T("x\n')


def test_parse_table_strips_comments_outside_quotes():
    policy = parse_policy_table(
        "# header\n"
        'method a: FilePermission("/tmp/#x","r") # trailing\n'
    )
    assert policy.grants == {
        "a": frozenset({Permission("FilePermission", "/tmp/#x", "r")})
    }


# ------------------------------------------------------------------- checking


def test_check_generated_against_itself_passes(example_policy):
    report = check_policy(example_policy, example_policy)
    assert report.passed
    assert report.deficits == {} and report.overgrants == {}
    assert report.lines() == []


def test_check_names_exactly_the_missing_grant(example_policy):
    pruned = Policy(
        grants={
            m: (ps - {PERM_F} if m == "main" else ps)
            for m, ps in example_policy.grants.items()
        }
    )
    report = check_policy(pruned, example_policy)
    assert not report.passed
    assert report.deficits == {"main": frozenset({PERM_F})}
    assert report.lines() == [
        "missing grant: method main: "
        'SocketPermission("jaist.ac.jp/faculty:8080","connect")'
    ]


def test_overgrants_are_reported_but_do_not_fail(example_policy):
    padded = Policy(
        grants={**example_policy.grants, "connectFaculty": frozenset({PERM_F, PERM_A})}
    )
    report = check_policy(padded, example_policy)
    assert report.passed
    assert report.overgrants == {"connectFaculty": frozenset({PERM_A})}


# ----------------------------------------------------------------- simulation


def test_privileged_frame_ends_the_walk_successfully(example_policy):
    # the student route took the faculty checkpoint's permission path up to
    # the privilege assertion; nothing beneath the asserting frame matters
    stack = [
        Frame("checkAccess"),
        Frame("Priv.run"),
        Frame("doPrivileged"),
        Frame("checkConnect", privileged=True),
        Frame("connectStudent"),
        Frame("main"),
    ]
    result = simulate_inspection(stack, PERM_A, example_policy)
    assert result.passed and result.failed_at is None


def test_walk_fails_at_the_first_unentitled_frame(example_policy):
    stack = [Frame("checkConnect"), Frame("connectStudent"), Frame("main")]
    result = simulate_inspection(stack, PERM_F, example_policy)
    assert not result.passed
    assert result.failed_at == "connectStudent"


def test_empty_policy_fails_immediately():
    result = simulate_inspection([Frame("connectFaculty")], PERM_F, Policy(grants={}))
    assert not result.passed
    assert result.failed_at == "connectFaculty"


def test_empty_stack_passes_vacuously(example_policy):
    assert simulate_inspection([], PERM_A, example_policy).passed


def test_system_frames_are_skipped_without_grants(example_policy):
    stack = [Frame("checkPermission"), Frame("doPrivileged"), Frame("checkAccess")]
    assert simulate_inspection(stack, PERM_A, example_policy).passed


def test_frames_can_be_given_as_tuples(example_policy):
    stack = [("checkAccess", False), ("checkConnect", True), ("main", False)]
    assert simulate_inspection(stack, PERM_A, example_policy).passed


def test_privilege_beneath_the_failing_frame_does_not_help(example_policy):
    stack = [Frame("connectFaculty"), Frame("checkConnect", privileged=True)]
    result = simulate_inspection(stack, PERM_A, example_policy)
    assert not result.passed
    assert result.failed_at == "connectFaculty"


# ---------------------------------------------------------------- determinism


def test_generation_is_deterministic_across_fresh_parses():
    import stackpol

    texts = set()
    for _ in range(3):
        m = parse_model(stackpol.running_example_text())
        r = generate_policy(m, generate_permissions(m))
        texts.add(emit_policy(r.policy, "table"))
    assert len(texts) == 1


def test_an_empty_read_map_keeps_no_history_site():
    # the check at a:1 sources no permission, since the target and action
    # facts of its one allocation hold under different contexts, so no
    # grant reads a site: ``reads={}`` cuts every history to nothing,
    # where ``None`` would keep them all, and the digests of the routes
    # through main:1 and main:2 merge into one
    model = build(
        "method a",
        "calledge 1 main 1 a ctx=any",
        "calledge 2 main 2 a ctx=any",
        "calledge 3 a 1 check ctx=any",
        "depnode n1 a 90 kind=alloc form=1 type=P target=t action=x",
        "depnode c1 a 1 kind=callsite",
        "depedge n1 c1",
        "checkarg a:1 var=p",
        "pta p@a = {(P, n1, {})}",
        'sa t@a = {("beta", {main:1})}',
        'sa x@a = {("write", {})}',
    )
    universe = generate_permissions(model)
    assert not universe.sources and universe.diagnostics
    system, check = encode(model), {model.check_method}
    exact = movp(system, check).decode()
    assert exact.width() == 2 and all(d.history for d in exact.tuples)
    cut = movp(system, check, reads={}).decode()
    assert cut == projected(exact, {})
    assert [d.history for d in cut.tuples] == [frozenset()]
    result = generate_policy(model, universe)
    assert result.weight == cut
    assert result.policy.grants == {}
