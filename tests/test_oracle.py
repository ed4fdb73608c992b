"""Reference enumeration: valid paths, flow paths, crossing words."""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from bruteforce import (
    match_paths,
    phi_route_along,
    relates_by_scan,
    route_valid_by_family,
    vpaths_by_join,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackpol import (
    CallPath,
    EnumerationLimitError,
    Frame,
    Permission,
    concrete_stacks,
    enum_vpaths,
    generate_permissions,
    generate_policy,
    oracle_policy,
    parse_model,
    running_example,
)
from stackpol import oracle
from stackpol.contexts import ANY_FAMILY, CallSite
from stackpol.model import INTER_CALL, INTER_RETURN, CallEdge
from stackpol.oracle import (
    DepPath,
    dep_paths,
    extract,
    relates,
    well_matched,
)

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


def idents(path: CallPath) -> tuple[str, ...]:
    return tuple(e.ident for e in path.edges)


def ext_idents(path: CallPath) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(e.ident for e in ext) for ext in path.extensions)


# ------------------------------------------------------------ path enumeration


def test_bundled_paths_to_the_check_method(example_model):
    paths = enum_vpaths(example_model, "checkPermission")
    assert [idents(p) for p in paths] == [
        ("1", "3", "6"),
        ("2", "4", "6"),
        ("8", "9", "10"),
    ]
    full_f, full_s, trunc = paths
    assert not full_f.truncated and not full_s.truncated
    assert full_f.full_variants() == (full_f.edges,)

    # the privileged segment stands for two entry-rooted stacks
    assert trunc.truncated and trunc.start == "doPrivileged"
    assert ext_idents(trunc) == (
        ("1", "3", "7", "8", "9", "10"),
        ("2", "4", "7", "8", "9", "10"),
    )


def test_paths_to_the_entry_method_are_none(example_model):
    # the one-frame stack of the entry method is not an edge sequence
    assert enum_vpaths(example_model, "main") == []


def test_path_accessors(example_model):
    full = enum_vpaths(example_model, "checkPermission")[0]
    assert full.methods() == frozenset(
        {"main", "connectFaculty", "checkConnect", "checkPermission"}
    )
    assert frozenset(e.site for e in full.edges) == frozenset(
        {S("main", 1), S("connectFaculty", 30), S("checkConnect", 6)}
    )


def test_linear_chain_has_a_single_path():
    m = build(
        "method a",
        "calledge 1 main 1 a ctx=any",
        "calledge 2 a 2 check ctx=any",
    )
    (path,) = enum_vpaths(m, "check")
    assert idents(path) == ("1", "2")


def test_route_support_prunes_unreachable_contexts():
    # edge 2 only fires under a route through main:9, and no path
    # provides that site
    m = build(
        "method a",
        "calledge 1 main 1 a ctx=any",
        "calledge 2 a 2 check ctx={main:9}",
        "calledge 9 main 9 a ctx=any",
    )
    keys = {idents(p) for p in enum_vpaths(m, "check")}
    assert keys == {("9", "2")}


def test_bound_lets_paths_wind_through_cycles():
    m = build(
        "method a",
        "method b",
        "calledge 1 main 1 a ctx=any",
        "calledge 2 a 2 b ctx=any",
        "calledge 3 b 3 a ctx=any",
        "calledge 4 a 4 check ctx=any",
    )
    at1 = {idents(p) for p in enum_vpaths(m, "check", bound=1)}
    at2 = {idents(p) for p in enum_vpaths(m, "check", bound=2)}
    assert at1 == {("1", "4"), ("1", "2", "3", "4")}
    assert at1 < at2
    assert ("1", "2", "3", "2", "3", "4") in at2


def test_bound_below_one_is_rejected(example_model, example_universe):
    with pytest.raises(ValueError):
        enum_vpaths(example_model, "checkPermission", bound=0)
    with pytest.raises(ValueError):
        oracle_policy(example_model, example_universe, bound=0)


def test_enumeration_blowup_is_capped():
    lines = []
    for i in range(18):
        src = "main" if i == 0 else f"m{i}"
        lines.append(f"method m{i + 1}")
        lines.append(f"calledge a{i} {src} {2 * i} m{i + 1} ctx=any")
        lines.append(f"calledge b{i} {src} {2 * i + 1} m{i + 1} ctx=any")
    lines.append("calledge z m18 99 check ctx=any")
    m = build(*lines)
    with pytest.raises(EnumerationLimitError):
        enum_vpaths(m, "check", bound=1)


def test_enumeration_carries_no_state_across_models():
    chain = build(
        "method a",
        "calledge 1 main 1 a ctx=any",
        "calledge 2 a 2 check ctx=any",
    )
    fork = build(
        "method a",
        "method b",
        "calledge 1 main 1 a ctx=any",
        "calledge 2 main 2 b ctx=any",
        "calledge 3 a 3 check ctx=any",
        "calledge 4 b 4 check ctx=any",
    )
    for model, want in ((chain, 1), (fork, 2), (chain, 1)):
        assert len(enum_vpaths(model, "check")) == want


# the asserter is entered twice on one stack: main -> doPriv -> a -> doPriv
REENTRY = (
    "method a",
    "calledge 1 main 1 doPriv ctx=any",
    "calledge 2 doPriv 2 a ctx=any",
    "calledge 3 a 3 doPriv ctx=any",
    "calledge 4 a 4 check ctx=any",
)


def test_a_truncated_path_starts_at_the_last_asserter_call():
    m = build(*REENTRY)
    at2 = enum_vpaths(m, "check", bound=2)
    assert [(idents(p), p.truncated) for p in at2] == [(("2", "4"), True)]
    assert ext_idents(at2[0]) == (("1", "2", "3", "2", "4"), ("1", "2", "4"))
    (at3,) = enum_vpaths(m, "check", bound=3)
    assert idents(at3) == ("2", "4")
    assert ext_idents(at3) == (
        ("1", "2", "3", "2", "3", "2", "4"),
        ("1", "2", "3", "2", "4"),
        ("1", "2", "4"),
    )


_JOIN_MODELS = {
    "bundled": running_example,
    "layered": lambda: _layered(3, 3),
    "ladder": lambda: _guarded_ladder(4),
    "reentry": lambda: build(*REENTRY),
}


def _agrees_with_the_join(model):
    for target in sorted(model.methods):
        for bound in (1, 2, 3):
            want = vpaths_by_join(model, target, bound)
            assert enum_vpaths(model, target, bound) == want, (target, bound)


@pytest.mark.parametrize("name", sorted(_JOIN_MODELS))
def test_one_walk_equals_the_prefix_segment_join(name):
    _agrees_with_the_join(_JOIN_MODELS[name]())


def test_one_walk_equals_the_prefix_segment_join_on_random_models():
    from randmodels import random_model

    for seed in range(300):
        _agrees_with_the_join(random_model(seed))


def test_the_cap_counts_only_the_walk_to_the_target(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ENUMERATED_PATHS", 3)
    # four routes to the asserter, which cannot reach the check
    m = build(
        *(f"calledge {i} main {i} doPriv ctx=any" for i in range(1, 5)),
        "calledge 5 main 5 check ctx=any",
    )
    assert [list(idents(p)) for p in enum_vpaths(m, "check", bound=1)] == [["5"]]

    m = build(*(f"calledge {i} main {i} check ctx=any" for i in range(1, 5)))
    with pytest.raises(
        EnumerationLimitError, match=r"^more than 3 paths from main to check at bound 1$"
    ):
        enum_vpaths(m, "check", bound=1)


# ------------------------------------------------------------ crossing words


def test_well_matched_words():
    a, b = S("m", 1), S("m", 2)
    call, ret = INTER_CALL, INTER_RETURN
    assert well_matched([], [])
    assert well_matched([], [(call, a)])
    assert well_matched([], [(call, a), (ret, a)])
    assert well_matched([], [(call, a), (call, b), (ret, b), (ret, a)])
    assert not well_matched([], [(ret, a)])
    assert not well_matched([], [(call, a), (ret, b)])
    assert not well_matched([], [(call, a), (call, b), (ret, a)])
    # the opened sites are popped last-opened-first, and may stay open
    assert well_matched([a], [])
    assert well_matched([a, b], [(ret, b), (ret, a)])
    assert well_matched([a, b], [(ret, b)])
    assert not well_matched([a, b], [(ret, a)])
    # a return to a site that was never opened
    assert not well_matched([a], [(ret, b)])
    # a call crossing is popped by its own return, above the opened sites
    assert well_matched([a], [(call, b), (ret, b), (ret, a)])
    assert not well_matched([a], [(call, b), (ret, a)])


def test_bundled_flow_paths_and_their_words(example_model):
    flows = dep_paths(example_model)
    assert [(p.start, p.end) for p in flows] == [("n12", "n6"), ("n23", "n24")]
    socket_flow, file_flow = flows

    # the socket permission value returns out of mkSocketPerm into the
    # frame that called it at checkConnect:5; the file flow never crosses
    assert extract(example_model, socket_flow) == ((INTER_RETURN, S("checkConnect", 5)),)
    assert extract(example_model, file_flow) == ()

    assert socket_flow.methods(example_model) == frozenset(
        {"mkSocketPerm", "checkConnect"}
    )
    assert file_flow.methods(example_model) == frozenset({"checkAccess"})


def test_call_crossings_open_the_source_site():
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "depnode a main 5 kind=alloc form=3 type=P",
        "depnode arg main 1 kind=callsite",
        "depnode inside mk 3 kind=plain",
        "depedge a arg",
        "depedge arg inside inter=call",
        "checkarg main:2 var=p",
        "pta p@main = {(P, a, {})}",
    )

    flow = DepPath(tuple(m.dep_edges))
    assert extract(m, flow) == ((INTER_CALL, S("main", 1)),)


def test_a_dependency_chain_deeper_than_the_recursion_limit_has_its_one_flow():
    n = 1200
    m = build(
        "calledge 1 main 2 check ctx=any",
        "depnode a main 5 kind=alloc form=3 type=P",
        *(f"depnode v{i} main {10 + i} kind=plain" for i in range(n)),
        "depnode arg main 2 kind=callsite",
        "depedge a v0",
        *(f"depedge v{i} v{i + 1}" for i in range(n - 1)),
        f"depedge v{n - 1} arg",
        "checkarg main:2 var=p",
        "pta p@main = {(P, a, {})}",
    )
    (flow,) = dep_paths(m)
    assert (flow.start, flow.end, len(flow.edges)) == ("a", "arg", n + 1)


# ----------------------------------------------------------------- match paths


def test_match_paths_for_the_socket_flow(example_model):
    (socket_flow, file_flow) = dep_paths(example_model)
    matches = match_paths(example_model, socket_flow)
    assert {idents(p) for p in matches} == {("1", "3", "5"), ("2", "4", "5")}


def test_match_paths_with_an_empty_word_accepts_every_path(example_model):
    (socket_flow, file_flow) = dep_paths(example_model)
    matches = match_paths(example_model, file_flow)
    assert matches == enum_vpaths(example_model, "checkAccess")
    assert [idents(p) for p in matches] == [("8", "9")]


def test_match_paths_rejects_a_close_no_path_opened():
    # the value returns into main:2, but every path to the allocator
    # opens main:1 instead
    m = build(
        "method mk",
        "method other",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 other ctx=any",
        "calledge 3 main 3 check ctx=any",
        "depnode a mk 7 kind=alloc form=3 type=P",
        "depnode r mk 8 kind=return",
        "depnode c main 2 kind=callsite",
        "depedge a r",
        "depedge r c inter=return",
        "checkarg main:3 var=p",
        "pta p@main = {(P, a, {})}",
    )

    flow = DepPath(tuple(m.dep_edges))
    assert flow.start == "a" and flow.end == "c"
    assert match_paths(m, flow) == []


def _hosts_alike(model):
    for pi in dep_paths(model):
        stacks = enum_vpaths(model, model.dep_nodes[pi.start].method)
        got = list(oracle._admissible_methods(stacks, extract(model, pi), ANY_FAMILY))
        assert got == [sigma.methods() for sigma in match_paths(model, pi)], pi


def test_the_hosting_test_in_relates_equals_match_paths():
    from randmodels import random_model

    _hosts_alike(running_example())
    for seed in range(300):
        _hosts_alike(random_model(seed))


# --------------------------------------------------------------------- relates


def test_relates_is_route_and_checkpoint_specific(example_model, example_universe):
    flows = dep_paths(example_model)
    cache = {}
    faculty, student, privileged = enum_vpaths(example_model, "checkPermission")

    def rel(sigma, perm):
        return relates(
            example_model, sigma, perm, example_universe, flows, cache
        )

    assert rel(faculty, PERM_F) and not rel(faculty, PERM_S)
    assert rel(student, PERM_S) and not rel(student, PERM_F)
    # the file permission is only demanded at checkAccess:24, which the
    # socket-check paths never invoke
    assert not rel(faculty, PERM_A) and not rel(student, PERM_A)
    assert rel(privileged, PERM_A)
    assert not rel(privileged, PERM_F) and not rel(privileged, PERM_S)


def test_relates_needs_a_real_checkpoint_invocation(example_model, example_universe):
    flows = dep_paths(example_model)
    degenerate = CallPath("main", ())
    assert not relates(
        example_model, degenerate, PERM_F, example_universe, flows, {}
    )


# -------------------------------------------------------------- whole pipeline


def test_oracle_agrees_with_the_solver_on_the_bundled_model(
    example_model, example_universe, example_policy
):
    reference = oracle_policy(example_model, example_universe)
    assert reference.grants == example_policy.grants
    assert reference.system_methods == example_policy.system_methods
    assert reference.method_domains == example_policy.method_domains


def test_oracle_agrees_with_the_solver_on_random_models():
    from randmodels import random_model

    for seed in range(12):
        m = random_model(seed)
        u = generate_permissions(m)
        engine = generate_policy(m, u).policy
        reference = oracle_policy(m, u)
        assert reference.grants == engine.grants, f"seed {seed}"


def test_unchecked_model_grants_nothing():
    m = build(
        "method a",
        "calledge 1 main 1 a ctx=any",
    )
    u = generate_permissions(m)
    assert u.perms == frozenset()
    assert oracle_policy(m, u).grants == {}
    assert generate_policy(m, u).policy.grants == {}


# ------------------------------------------------------------- concrete stacks


def test_concrete_stack_of_a_full_path(example_model):
    student = enum_vpaths(example_model, "checkPermission")[1]
    (stack,) = concrete_stacks(example_model, student)
    assert stack == (
        Frame("checkConnect"),
        Frame("connectStudent"),
        Frame("main"),
    )


def test_concrete_stacks_of_a_privileged_segment(example_model):
    trunc = enum_vpaths(example_model, "checkPermission")[2]
    bare, faculty, student = concrete_stacks(example_model, trunc)
    assert bare == (
        Frame("checkAccess"),
        Frame("Priv.run"),
        Frame("doPrivileged"),
    )
    assert faculty == (
        Frame("checkAccess"),
        Frame("Priv.run"),
        Frame("doPrivileged"),
        Frame("checkConnect", privileged=True),
        Frame("connectFaculty"),
        Frame("main"),
    )
    assert student[3] == Frame("checkConnect", privileged=True)
    assert sum(f.privileged for f in student) == 1


# ----------------------------------------------- the rewrite against references


def _matches_references(model, monkeypatch):
    """Relate every stack to every permission with both ``relates`` and its
    reference, then run the oracle with both references swapped in."""
    universe = generate_permissions(model)
    flows = dep_paths(model)
    cache, ref_cache = {}, {}
    sigmas = enum_vpaths(model, model.check_method)
    for sigma in sigmas:
        for perm in universe.sorted_perms():
            got = relates(model, sigma, perm, universe, flows, cache)
            want = relates_by_scan(model, sigma, perm, universe, flows, ref_cache)
            assert got == want, (sigma, perm)
    policy = oracle_policy(model, universe)
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "relates", relates_by_scan)
        patched.setattr(oracle, "_route_valid", route_valid_by_family)
        assert enum_vpaths(model, model.check_method) == sigmas
        reference = oracle_policy(model, universe)
    assert policy.grants == reference.grants
    return sigmas, policy


def _guarded_ladder(depth: int):
    # level i calls level i+1 at two sites; below level 1 the first site
    # needs either site of the level above and the second needs its first,
    # so no valid route takes the second site twice in a row.  The bottom
    # asserts a privilege for a tail whose check needs the ladder's last
    # first site, which lies below the assertion.
    names = ["main"] + [f"L{i}" for i in range(1, depth + 1)]
    lines = [f"method {n}" for n in names[1:]] + ["method tail"]
    for i in range(depth):
        for branch in (1, 2):
            if i == 0:
                ctx = "any"
            elif branch == 1:
                ctx = f"{{{names[i - 1]}:1;{names[i - 1]}:2}}"
            else:
                ctx = f"{{{names[i - 1]}:1}}"
            lines.append(f"calledge e{i}.{branch} {names[i]} {branch} {names[i + 1]} ctx={ctx}")
    bottom = names[-1]
    for method, key in ((bottom, "a"), ("tail", "b")):
        lines += [
            f"depnode {key} {method} 90 kind=alloc form=3 type={key.upper()}",
            f"depnode {key}9 {method} 9 kind=callsite",
            f"depedge {key} {key}9",
            f"checkarg {method}:9 var={key}",
            f"pta {key}@{method} = {{({key.upper()}, {key}, {{}})}}",
        ]
    lines += [
        f"calledge z {bottom} 9 check ctx=any",
        f"calledge p1 {bottom} 8 doPriv ctx=any",
        "calledge p2 doPriv 1 tail ctx=any",
        f"calledge t tail 9 check ctx={{{names[-2]}:1}}",
    ]
    return build(*lines)


def _layered(layers: int, width: int):
    # every method of a layer calls every method of the next; each bottom
    # method checks a form-1 permission whose facts depend on the route,
    # m2_1 checks one that a factory returns to it, m1_3 checks one that
    # main passes down to it, and m1_1 asserts a privilege that re-enters
    # the second layer
    lines = ["method fac"]
    callers = ["main"]
    for i in range(1, layers + 1):
        layer = [f"m{i}_{j}" for j in range(1, width + 1)]
        lines += [f"method {m}" for m in layer]
        for caller in callers:
            lines += [
                f"calledge {caller}-{m} {caller} {j} {m} ctx=any"
                for j, m in enumerate(layer, start=1)
            ]
        callers = layer
    for j, m in enumerate(callers, start=1):
        lines += [
            f"calledge {m}-check {m} 9 check ctx=any",
            f"depnode a{j} {m} 90 kind=alloc form=1 type=FilePermission target=t action=x",
            f"depnode c{j} {m} 9 kind=callsite",
            f"depedge a{j} c{j}",
            f"checkarg {m}:9 var=p",
            f"pta p@{m} = {{(FilePermission, a{j}, {{main:{j}}})}}",
            f'sa t@{m} = {{("v1", {{main:1}}); ("v{j}", {{m1_{j}:{j}}})}}',
            f'sa x@{m} = {{("read", {{main:{j}}}); ("write", {{main:1,m1_1:{j}}})}}',
        ]
    lines += [
        "calledge m2_1-fac m2_1 8 fac ctx=any",
        "calledge m2_1-check m2_1 7 check ctx=any",
        "depnode f fac 90 kind=alloc form=3 type=RuntimePermission",
        "depnode r fac 91 kind=return",
        "depnode back m2_1 8 kind=callsite",
        "depnode use m2_1 7 kind=callsite",
        "depedge f r",
        "depedge r back inter=return",
        "depedge back use",
        "checkarg m2_1:7 var=q",
        "pta q@m2_1 = {(RuntimePermission, f, {main:1,m1_1:1})}",
        "calledge m1_1-priv m1_1 8 doPriv ctx=any",
        "calledge priv-m2_2 doPriv 1 m2_2 ctx=any",
        "calledge m1_3-check m1_3 7 check ctx=any",
        "depnode g main 95 kind=alloc form=3 type=NetPermission",
        "depnode out main 3 kind=callsite",
        "depnode in m1_3 96 kind=plain",
        "depnode gate m1_3 7 kind=callsite",
        "depedge g out",
        "depedge out in inter=call",
        "depedge in gate",
        "checkarg m1_3:7 var=g",
        "pta g@m1_3 = {(NetPermission, g, {main:3})}",
    ]
    return build(*lines)


def test_rewrite_matches_references_on_the_bundled_model(example_model, monkeypatch):
    sigmas, policy = _matches_references(example_model, monkeypatch)
    assert len(sigmas) == 3 and len(policy.grants) == 6


def test_rewrite_matches_references_on_random_models(monkeypatch):
    from randmodels import random_model

    for seed in range(200):
        _matches_references(random_model(seed), monkeypatch)


def test_rewrite_matches_references_on_a_guarded_ladder(monkeypatch):
    sigmas, policy = _matches_references(_guarded_ladder(4), monkeypatch)
    # the 8 of 16 routes with no two second sites in a row
    assert len([p for p in sigmas if not p.truncated]) == 8
    # the 5 of them that end on L3:1 validate the privileged tail
    (tail,) = [p for p in sigmas if p.truncated]
    assert len(tail.extensions) == 5
    assert policy.grants["tail"] == frozenset({Permission("B")})
    assert Permission("A") in policy.grants["L4"]


def test_rewrite_matches_references_on_a_layered_model(monkeypatch):
    sigmas, policy = _matches_references(_layered(3, 3), monkeypatch)
    assert len([p for p in sigmas if not p.truncated]) == 3**3 + 3 + 1
    assert "fac" not in policy.grants
    assert Permission("RuntimePermission") in policy.grants["m2_1"]
    # only the flow puts m1_3 on a stack that allocates there
    assert Permission("NetPermission") in policy.grants["m1_3"]


_MEMO_MODELS = {
    "bundled": running_example,
    "layered": lambda: _layered(3, 3),
    "ladder": lambda: _guarded_ladder(4),
}


@pytest.mark.parametrize("name", sorted(_MEMO_MODELS))
def test_relates_answers_alike_from_a_shared_and_a_fresh_memo(name):
    # a shared memo resumes each admissible-stack search where an earlier
    # query left it, so its answers must not depend on the query order
    model = _MEMO_MODELS[name]()
    universe = generate_permissions(model)
    flows = dep_paths(model)
    pairs = [
        (sigma, perm)
        for sigma in enum_vpaths(model, model.check_method)
        for perm in universe.sorted_perms()
    ]
    ref_cache = {}
    want = [
        relates_by_scan(model, sigma, perm, universe, flows, ref_cache)
        for sigma, perm in pairs
    ]
    assert any(want) and not all(want)

    order = list(reversed(range(len(pairs))))
    shuffled = order[:]
    random.Random(0).shuffle(shuffled)
    shared = {}
    for i in order + shuffled:
        sigma, perm = pairs[i]
        assert relates(model, sigma, perm, universe, flows, shared) == want[i]
    for i, (sigma, perm) in enumerate(pairs):
        assert relates(model, sigma, perm, universe, flows, {}) == want[i]


_SITES = [S(m, line) for m in "abc" for line in (1, 2)]


@st.composite
def _incident_edges(draw):
    methods = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=6))
    member = st.frozensets(st.sampled_from(_SITES), max_size=3)
    return [
        CallEdge(
            str(i),
            caller,
            draw(st.sampled_from((1, 2))),
            callee,
            ctx=draw(st.frozensets(member, max_size=3)),
        )
        for i, (caller, callee) in enumerate(zip(methods, methods[1:]))
    ]


@settings(max_examples=300, deadline=None)
@given(_incident_edges())
@example([])
@example([CallEdge("0", "a", 1, "b", ctx=frozenset())])
@example(
    [
        CallEdge("0", "a", 1, "b", ctx=frozenset({frozenset({S("b", 2)})})),
        CallEdge("1", "b", 2, "c", ctx=frozenset()),
    ]
)
def test_route_validity_edge_by_edge_equals_the_family_test(edges):
    sites = frozenset(e.site for e in edges)
    by_family = any(c <= sites for c in phi_route_along(edges))
    assert oracle._route_valid(edges) == by_family == route_valid_by_family(edges)


# random_model_text(seed) as the benchmark's small-mix set holds it (built
# with PYTHONHASHSEED=0); stored here because the generator's text
# depends on the hash seed
RANDOM_MODELS = {
    170: """\
method main entry
method w1
method w2
method w3
method privop priv
method checkperm check
calledge 1 main 1 w1 ctx=any
calledge 2 w1 1 w2 ctx={main:1}
calledge 3 w2 1 w3 ctx={w1:1;main:1,w1:1}
calledge 4 w2 2 checkperm ctx=any
calledge 5 main 2 checkperm ctx=any
calledge 6 w2 3 w3 ctx=any
calledge 7 main 3 w2 ctx=any
depnode n1 w2 91 kind=alloc form=3 type=FilePermission
depnode n2 w2 92 kind=return
depnode n3 main 3 kind=callsite
depedge n1 n2
depedge n2 n3 inter=return
depnode n4 main 2 kind=callsite
depedge n3 n4
depnode n5 w2 93 kind=alloc form=1 type=FilePermission target=tp2 action=ap2
depnode n6 w2 2 kind=callsite
depedge n5 n6
checkarg main:2 var=p1
checkarg w2:2 var=p2
pta p1@main = {(FilePermission, n1, {})}
pta p2@w2 = {(FilePermission, n5, {main:3})}
sa tp2@w2 = {("beta", {main:3})}
sa ap2@w2 = {("read", {main:1,w1:1}); ("read", {main:3})}
""",
    2054: """\
method main entry
method w1
method privop priv
method ptail
method checkperm check
calledge 1 main 1 w1 ctx=any
calledge 2 w1 1 privop ctx=any
calledge 3 privop 1 ptail ctx={main:2,main:3;main:3,w1:1}
calledge 4 ptail 1 checkperm ctx=any
calledge 5 main 2 checkperm ctx=any
calledge 6 main 3 w1 ctx=any
depnode n1 w1 91 kind=alloc form=3 type=NetPermission
depnode n2 w1 92 kind=return
depnode n3 main 1 kind=callsite
depedge n1 n2
depedge n2 n3 inter=return
depnode n4 main 2 kind=callsite
depedge n3 n4
depnode n5 ptail 93 kind=alloc form=1 type=NetPermission target=tp2 action=ap2
depnode n6 ptail 1 kind=callsite
depedge n5 n6
checkarg main:2 var=p1
checkarg ptail:1 var=p2
pta p1@main = {(NetPermission, n1, {})}
pta p2@ptail = {(NetPermission, n5, {main:3,privop:1,w1:1})}
sa tp2@ptail = {("alpha", {main:1,privop:1,w1:1})}
sa ap2@ptail = {("exec", {main:1,privop:1,w1:1})}
""",
    2309: """\
method main entry
method w1
method w2
method privop priv
method checkperm check
calledge 1 main 1 w1 ctx=any
calledge 2 w1 1 w2 ctx={main:1,main:2}
calledge 3 w1 2 checkperm ctx=any
calledge 4 main 2 checkperm ctx=any
calledge 5 w1 3 w2 ctx=any
depnode n1 main 91 kind=alloc form=1 type=NetPermission target=tp1 action=ap1
depnode n2 main 2 kind=callsite
depedge n1 n2
depnode n3 w2 92 kind=alloc form=1 type=NetPermission target=tp2 action=ap2
depnode n4 w2 93 kind=return
depnode n5 w1 1 kind=callsite
depedge n3 n4
depedge n4 n5 inter=return
depnode n6 w1 2 kind=callsite
depedge n5 n6
checkarg main:2 var=p1
checkarg w1:2 var=p2
pta p1@main = {(NetPermission, n1, {})}
sa tp1@main = {("alpha", {})}
sa ap1@main = {("exec", {})}
pta p2@w1 = {(NetPermission, n3, {main:1})}
sa tp2@w2 = {("alpha", {w1:1}); ("gamma", {main:1,w1:1})}
sa ap2@w2 = {("exec", {w1:1}); ("write", {main:1,w1:3})}
""",
    2929: """\
method main entry
method w1
method w2
method privop priv
method ptail
method checkperm check
calledge 1 main 1 w1 ctx=any
calledge 2 w1 1 w2 ctx={main:1,main:2}
calledge 3 w1 2 privop ctx={main:1,main:2;main:1}
calledge 4 privop 1 ptail ctx=any
calledge 5 w1 3 checkperm ctx=any
calledge 6 main 2 ptail ctx=any
depnode n1 w2 91 kind=alloc form=2 type=RuntimePermission target=tp1
depnode n2 w2 92 kind=return
depnode n3 w1 1 kind=callsite
depedge n1 n2
depedge n2 n3 inter=return
depnode n4 w1 3 kind=callsite
depedge n3 n4
checkarg w1:3 var=p1
pta p1@w1 = {(RuntimePermission, n1, {main:1})}
sa tp1@w2 = {("gamma", {main:1}); ("alpha", {main:1,w1:1})}
""",
}

_NET = Permission("NetPermission", "alpha", "exec")
_GAMMA = Permission("RuntimePermission", "gamma")


# what the engine grants beyond the oracle on each model, by cause
OVERGRANTS = {
    # w2 allocates under {main:3}; the main:3 -> w2 call has returned,
    # but main:3 stays in the digest's history, so the context also
    # matches the later live stack main:1 -> w1:1 -> w2
    170: {"w1": frozenset({Permission("FilePermission", "beta", "read")})},
    # the same cause: main:1 stays in the history after main:1 -> w1
    # returned, so the context {main:1,privop:1,w1:1} matches the
    # live stack main:3 -> w1:1 -> privop:1 -> ptail
    2054: {"ptail": frozenset({_NET})},
    # demand contexts are not tied to their source: the empty context
    # of main's intra-frame source at main:2 licenses the stack
    # main:1 -> w1:2 of the return-flow source at w1:2, whose own
    # context {w1:1} that stack does not meet
    2309: {"w1": frozenset({_NET})},
    # a return flow is not required to have happened: the value comes
    # back from w2 through w1:1, whose edge needs {main:1,main:2} below
    # it; the engine grants because main:1 and the checkpoint are in
    # the history
    2929: {"main": frozenset({_GAMMA}), "w1": frozenset({_GAMMA})},
}


@pytest.mark.parametrize("seed", sorted(RANDOM_MODELS))
def test_known_engine_oracle_divergence_on_random_model(seed):
    # the engine grants more than the oracle, never less
    m = parse_model(RANDOM_MODELS[seed])
    u = generate_permissions(m)
    engine = generate_policy(m, u).policy.grants
    reference = oracle_policy(m, u).grants

    def minus(a, b):
        diff = {k: a[k] - b.get(k, frozenset()) for k in a}
        return {k: ps for k, ps in diff.items() if ps}

    assert minus(engine, reference) == OVERGRANTS[seed]
    assert minus(reference, engine) == {}


def test_engine_oracle_divergence_sweep_on_random_models():
    # the generated texts depend on the hash seed (see RANDOM_MODELS), so the
    # sweep runs in a child under a fixed one; when a fix lands, the
    # expected set is restated, never widened
    here = Path(__file__).resolve().parent
    script = textwrap.dedent(
        """
        import json
        from randmodels import random_model
        from stackpol import generate_permissions, generate_policy, oracle_policy

        divergent = []
        for seed in range(3000):
            m = random_model(seed)
            u = generate_permissions(m)
            if generate_policy(m, u).policy.grants != oracle_policy(m, u).grants:
                divergent.append(seed)
        print(json.dumps(divergent))
        """
    )
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {170, 2054, 2309, 2929}
