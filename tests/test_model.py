"""Tests for model parsing, route contexts and lints."""

from __future__ import annotations

import random

import pytest
from bruteforce import lint_by_subsets, phi_meth_by_bfs, phi_meth_by_sets, phi_route_along
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackpol.contexts import ANY_FAMILY, CallSite, format_ctx
from stackpol import model as model_module
from stackpol.errors import EnumerationLimitError, ModelError, StackpolError
from stackpol.model import (
    CallEdge,
    DepNode,
    _Parser,
    _strip_comment,
    compute_phi_meth,
    lint_model,
    parse_model,
    serialize_model,
)
from stackpol.permissions import generate_permissions
from stackpol.policy import (
    check_policy,
    emit_policy,
    generate_policy,
    parse_policy_table,
)
from stackpol.sample import running_example_text

MINIMAL = """
method main entry
method doPriv priv
method check check
"""


def minimal_plus(*lines: str) -> str:
    return MINIMAL + "\n".join(lines) + "\n"


def err(text: str) -> str:
    with pytest.raises(ModelError) as info:
        parse_model(text)
    return str(info.value)


# ---------------------------------------------------------------------------
# parsing


def test_bundled_model_shape(example_model):
    m = example_model
    assert len(m.call_edges) == 10
    assert len(m.methods) == 9
    assert (m.entry_method, m.check_method, m.priv_method) == (
        "main",
        "checkPermission",
        "doPrivileged",
    )
    assert len([e for e in m.call_edges if e.callee == m.check_method]) == 2
    assert m.checkargs[CallSite("checkConnect", 6)] == "p1"
    sites = {e.site for e in m.call_edges}
    assert CallSite("checkConnect", 5) in sites
    assert CallSite("checkConnect", 99) not in sites


def test_minimal_model_is_a_one_node_graph():
    m = parse_model(MINIMAL)
    assert m.call_edges == ()
    assert compute_phi_meth(m)["main"] == frozenset({frozenset()})


def test_comments_and_blank_lines_are_ignored():
    m = parse_model(
        "# heading\n\nmethod main entry  # trailing\nmethod p priv\nmethod c check\n"
    )
    assert set(m.methods) == {"main", "p", "c"}


def test_strip_comment_keeps_quoted_hashes():
    assert _strip_comment('sa v@m = {("a#b", {})} # note') == 'sa v@m = {("a#b", {})} '
    assert _strip_comment("method main entry # note") == "method main entry "
    plain = "method main entry"
    assert _strip_comment(plain) is plain


def test_sites_are_stored_but_not_compared():
    edge = CallEdge("1", "main", 3, "a")
    node = DepNode("n", "main", 3, "plain")
    assert edge.site is edge.site and edge.site == CallSite("main", 3)
    assert node.site == edge.site
    assert edge == CallEdge("1", "main", 3, "a") and "site" not in repr(edge)
    assert hash(node) == hash(DepNode("n", "main", 3, "plain"))


def test_parsed_edges_and_nodes_hold_each_field_in_its_slot():
    # the parser sets their slots directly, past __init__
    m = parse_model(
        minimal_plus(
            "calledge 7 main 3 doPriv ctx=any",
            "calledge 8 doPriv 4 check ctx={main:3}",
            "depnode n1 doPriv 5 kind=alloc form=1 type=P target=t action=a",
        )
    )
    edge = m.call_edges[1]
    assert edge == CallEdge("8", "doPriv", 4, "check", [[CallSite("main", 3)]])
    assert edge.site == CallSite("doPriv", 4)
    assert m.call_edges[0].ctx is ANY_FAMILY
    node = m.dep_nodes["n1"]
    assert node == DepNode("n1", "doPriv", 5, "alloc", 1, "P", "t", "a")
    assert node.site == CallSite("doPriv", 5)


def test_edge_context_parsing_and_normalization():
    m = parse_model(
        minimal_plus(
            "calledge 1 main 1 doPriv ctx=any",
            "calledge 2 doPriv 2 check ctx={main:1;main:1,doPriv:2}",
        )
    )
    assert m.call_edges[0].ctx == ANY_FAMILY
    assert m.call_edges[0].unconditional
    assert m.call_edges[1].ctx == frozenset(
        {
            frozenset({CallSite("main", 1)}),
            frozenset({CallSite("main", 1), CallSite("doPriv", 2)}),
        }
    )


def test_parse_errors_carry_line_numbers():
    msg = err(MINIMAL + "calledge 1 main nope doPriv ctx=any\n")
    assert "line 5" in msg and "integer" in msg


@pytest.mark.parametrize(
    "lines",
    [
        ["calledge 1 main 1_0 doPriv ctx=any"],
        ["calledge 1 main +3 doPriv ctx=any"],
        ["calledge 1 main \u0663 doPriv ctx=any"],
        ["calledge 1 main 3 doPriv ctx={main:+3}"],
        ["calledge 1 main 3 doPriv ctx=any", "depnode n main \u0663 kind=plain"],
        ["calledge 1 main 3 doPriv ctx=any", "depnode n main 3 kind=alloc form=+3 type=P"],
        ["calledge 1 main 3 check ctx=any", "checkarg main:1_0 var=p"],
        ["calledge 1 main 03 doPriv ctx=any"],
        ["calledge 1 main 3 doPriv ctx={main:00}"],
        ["calledge 1 main 3 doPriv ctx=any", "depnode n main 3 kind=alloc form=02 type=P"],
    ],
)
def test_line_numbers_are_decimal_digits(lines):
    # int() takes each of these, and serialize_model wrote them back as
    # plain digits, so main:+3 and main:03 named the site main:3
    msg = err(minimal_plus(*lines))
    assert f"line {4 + len(lines)}: " in msg
    assert "must be a non-negative integer in the digits 0-9, with no leading zero" in msg
    # a lone zero is no leading zero
    assert parse_model(minimal_plus("calledge 1 main 0 doPriv ctx=any")).call_edges[0].line == 0


@pytest.mark.parametrize(
    "line, what",
    [
        ("calledge 1 main {} doPriv ctx=any", "call line"),
        ("calledge 1 main 3 doPriv ctx={{main:{}}}", "site line"),
    ],
)
def test_an_over_long_line_number_is_a_model_error(line, what):
    # int() refuses more digits than sys.get_int_max_str_digits(), 4300 by default
    msg = err(minimal_plus(line.format("9" * 5001)))
    assert msg.startswith(f"line 5: {what} has 5001 digits, too many to read")


def test_role_errors():
    assert "exactly one entry" in err("method a\nmethod p priv\nmethod c check\n")
    assert "exactly one check" in err("method a entry\nmethod p priv\n")
    two_privs = "method a entry priv\nmethod c check\nmethod x priv\n"
    assert "exactly one priv method required, found 2" in err(two_privs)
    assert "entry, check and priv must be three distinct methods" in err(
        "method a entry priv\nmethod c check\n"
    )
    # one method holding two roles collapses the count of distinct names
    with pytest.raises(ModelError):
        parse_model("method a entry priv check\n")


def test_repeated_method_attributes_are_rejected():
    rest = MINIMAL.replace("method main entry\n", "")
    assert "line 1: duplicate attribute 'domain'" in err(
        "method main entry domain=a domain=b" + rest
    )
    assert "line 1: duplicate attribute 'entry'" in err("method main entry entry" + rest)
    assert "line 2: duplicate attribute 'priv'" in err(
        "method main entry" + rest.replace("doPriv priv", "doPriv priv domain=d priv")
    )


def test_reference_errors():
    assert "unknown method" in err(minimal_plus("calledge 1 main 1 ghost ctx=any"))
    assert "duplicate call edge" in err(
        minimal_plus(
            "calledge 1 main 1 doPriv ctx=any", "calledge 1 main 2 doPriv ctx=any"
        )
    )
    assert "line 5: entry method has an incoming call edge '1'" in err(
        minimal_plus("calledge 1 doPriv 1 main ctx=any")
    )
    assert "line 6: edge '2' context mentions unknown site main:9" in err(
        minimal_plus(
            "calledge 1 main 1 doPriv ctx=any",
            "calledge 2 doPriv 1 check ctx={main:9}",
        )
    )
    assert "duplicate method" in err(MINIMAL + "method main\n")


def test_dep_graph_errors():
    base = [
        "calledge 1 main 1 doPriv ctx=any",
        "calledge 2 doPriv 1 check ctx=any",
    ]
    assert "unknown dep node" in err(minimal_plus(*base, "depedge a b"))
    # reported at the alloc node's own line, not at the edge's
    assert "line 7: alloc node 'a' has incoming dep edges" in err(
        minimal_plus(
            *base,
            "depnode a main 50 kind=alloc form=3 type=P",
            "depnode b main 51 kind=plain",
            "depedge b a",
        )
    )
    assert "line 9: return dep edge target 'b' is not at a call site" in err(
        minimal_plus(
            *base,
            "depnode a main 50 kind=alloc form=3 type=P",
            "depnode b main 51 kind=plain",
            "depedge a b inter=return",
        )
    )
    assert "line 9: call dep edge source 'b' is not at a call site" in err(
        minimal_plus(
            *base,
            "depnode b main 51 kind=plain",
            "depnode c doPriv 1 kind=plain",
            "depedge b c inter=call",
        )
    )
    assert "line 10: duplicate dep edge b -> c" in err(
        minimal_plus(
            *base,
            "depnode b main 51 kind=plain",
            "depnode c main 52 kind=plain",
            "depedge b c",
            "depedge b c",
        )
    )
    assert "line 7: callsite node 'c' is not at a call site" in err(
        minimal_plus(*base, "depnode c main 51 kind=callsite")
    )
    assert "form-1 alloc needs" in err(
        minimal_plus(*base, "depnode a main 50 kind=alloc form=1 type=P target=t")
    )
    assert "form-3 alloc takes" in err(
        minimal_plus(*base, "depnode a main 50 kind=alloc form=3 type=P target=t")
    )
    assert "inter must be" in err(
        minimal_plus(
            *base,
            "depnode a main 50 kind=alloc form=3 type=P",
            "depnode b main 51 kind=plain",
            "depedge a b inter=sideways",
        )
    )


def test_fact_errors():
    base = [
        "calledge 1 main 1 doPriv ctx=any",
        "calledge 2 doPriv 1 check ctx=any",
        "depnode a main 50 kind=alloc form=3 type=P",
        "depnode b main 51 kind=plain",
    ]
    assert "line 9: checkarg site main:1 does not call the check method" in err(
        minimal_plus(*base, "checkarg main:1 var=p")
    )
    assert "line 9: pta fact points to unknown node 'ghost'" in err(
        minimal_plus(*base, "pta p@main = {(P, ghost, {main:1})}")
    )
    assert "line 9: pta fact points to non-alloc node 'b'" in err(
        minimal_plus(*base, "pta p@main = {(P, b, {main:1})}")
    )
    assert "line 9: pta context mentions unknown site main:9" in err(
        minimal_plus(*base, "pta p@main = {(P, a, {main:9})}")
    )
    assert "line 9: sa context mentions unknown site main:9" in err(
        minimal_plus(*base, "sa v@main = {(\"x\", {main:9})}")
    )
    assert "line 10: duplicate sa fact for v@main" in err(
        minimal_plus(
            *base,
            'sa v@main = {("x", {main:1})}',
            'sa v@main = {("y", {main:1})}',
        )
    )


def test_an_sa_literal_may_hold_parentheses():
    # a string constant is any text between quotes, so a "(" inside one
    # opens no fact; one outside every literal still has to open one
    text = """
method main entry
method worker
method checkPermission check
method doPrivileged priv
calledge 1 main 1 worker ctx=any
calledge 2 worker 4 checkPermission ctx={main:1}
depnode n1 worker 3 kind=alloc form=2 type=FilePermission target=t
depnode n2 worker 4 kind=callsite
depedge n1 n2
checkarg worker:4 var=p
pta p@worker = {(FilePermission, n1, {main:1})}
sa t@worker = {("C:\\Program Files (x86)\\app", {main:1})}
"""
    model = parse_model(text)
    assert parse_model(serialize_model(model)) == model
    generated = generate_policy(model, generate_permissions(model)).policy
    table = emit_policy(generated, "table")
    assert 'method worker: FilePermission("C:\\Program Files (x86)\\app")\n' in table
    assert check_policy(parse_policy_table(table), generated).passed
    assert "line 13: malformed fact set" in err(
        text.replace('app", {main:1})}', 'app", {main:1}) (}')
    )


def test_names_written_into_policies_are_checked():
    # a table names the permission type bare and java quotes the domain, so
    # either would emit a policy that does not read back
    base = ["calledge 1 main 1 check ctx=any", "checkarg main:1 var=v"]
    assert "line 7: alloc node needs type=<PermType>, got 'P-x'" in err(
        minimal_plus(*base, "depnode a main 50 kind=alloc form=3 type=P-x")
    )
    assert "line 8: bad permission type 'P-x'" in err(
        minimal_plus(
            *base,
            "depnode a main 50 kind=alloc form=3 type=P",
            "pta v@main = {(P-x, a, {})}",
        )
    )
    assert "line 1: domain name 'a\"b' contains a quote" in err(
        'method main entry domain=a"b\n' + MINIMAL.replace("method main entry\n", "")
    )


def test_a_pta_type_must_match_its_allocation():
    # the pipeline takes the permission type from the triple, so a type
    # that contradicts the allocation's type= would be granted unnoticed
    text = minimal_plus(
        "calledge 1 main 5 check ctx=any",
        "checkarg main:5 var=v",
        "depnode a main 5 kind=alloc form=3 type=FilePermission",
        "pta v@main = {(SocketPermission, a, {})}",
    )
    assert (
        "line 8: pta fact gives a type SocketPermission, but it allocates "
        "FilePermission"
    ) in err(text)
    fixed = parse_model(text.replace("(SocketPermission,", "(FilePermission,"))
    assert {t.perm_type for t in fixed.pta[("v", "main")]} == {"FilePermission"}


def test_unknown_directive_is_rejected():
    assert "unknown directive" in err(MINIMAL + "frobnicate a b c\n")


def test_a_tab_may_follow_the_directive_word(example_model):
    tabbed = "\n".join(
        line if line.startswith("#") else line.replace(" ", "\t", 1)
        for line in running_example_text().splitlines()
    )
    assert "method\tmain entry" in tabbed
    assert serialize_model(parse_model(tabbed)) == serialize_model(example_model)
    assert err(MINIMAL + "method\t\n") == "line 5: method directive needs a name"
    assert err(MINIMAL + "bogus\tx\n") == "line 5: unknown directive 'bogus'"


# ---------------------------------------------------------------------------
# route contexts


def test_entry_context_is_the_empty_set(example_model, example_phi):
    assert example_phi[example_model.entry_method] == frozenset({frozenset()})


def test_route_contexts_of_the_shared_callee(example_phi):
    assert example_phi["checkConnect"] == frozenset(
        {
            frozenset({CallSite("main", 1), CallSite("connectFaculty", 30)}),
            frozenset({CallSite("main", 2), CallSite("connectStudent", 36)}),
        }
    )


def test_route_contexts_with_a_cycle_keep_all_variants():
    # m2 and m3 call each other; m4 is reachable two ways, and families
    # keep subset-comparable members apart
    text = """
method m1 entry
method m2
method m3
method m4
method p priv
method c check
calledge 1 m1 1 m2 ctx=any
calledge 2 m2 2 m3 ctx=any
calledge 3 m3 3 m4 ctx=any
calledge 4 m3 4 m2 ctx=any
calledge 5 m2 5 m4 ctx=any
"""
    phi = compute_phi_meth(parse_model(text))
    z = {i: CallSite(f"m{m}", i) for i, m in ((1, 1), (2, 2), (3, 3), (4, 3), (5, 2))}
    assert phi["m4"] == frozenset(
        {
            frozenset({z[1], z[2], z[3]}),
            frozenset({z[1], z[2], z[3], z[4]}),
            frozenset({z[1], z[5]}),
            frozenset({z[1], z[2], z[4], z[5]}),
        }
    )


def test_route_contexts_grow_monotonically_with_edges():
    base = """
method m1 entry
method m2
method m3
method p priv
method c check
calledge 1 m1 1 m2 ctx=any
"""
    extended = base + "calledge 2 m2 1 m3 ctx=any\ncalledge 3 m1 2 m3 ctx=any\n"
    small = compute_phi_meth(parse_model(base))
    big = compute_phi_meth(parse_model(extended))
    for method, fam in small.items():
        assert fam <= big[method]


def _random_call_graph(rng: random.Random, contexts: bool = False) -> str:
    # a few methods, edges drawn with replacement from every pair into a
    # method other than the entry, so self-loops, cycles, a site with two
    # callees, a method no edge reaches and an entry with no out-edge all
    # occur; with ``contexts``, edge contexts and ``sa`` facts are drawn
    # over the graph's sites as well
    names = ["main", "doPriv", "check"] + [f"m{i}" for i in range(rng.randint(0, 4))]
    lines = [f"method {n}" + {0: " entry", 1: " priv", 2: " check"}.get(i, "")
             for i, n in enumerate(names)]
    triples = {
        (rng.choice(names), rng.randint(1, 3), rng.choice(names[1:]))
        for _ in range(rng.randint(0, 10))
    }
    sites = sorted({CallSite(caller, line) for caller, line, _callee in triples})

    def drawn_ctx(least: int) -> str:
        return format_ctx(frozenset(rng.sample(sites, rng.randint(least, min(3, len(sites))))))

    for ident, (caller, line, callee) in enumerate(sorted(triples)):
        ctx = "any"
        if contexts and rng.random() < 0.5:
            ctx = "{" + ";".join(drawn_ctx(1) for _ in range(rng.randint(1, 2))) + "}"
        lines.append(f"calledge {ident} {caller} {line} {callee} ctx={ctx}")
    if contexts and sites:
        for i, method in enumerate(rng.sample(names, rng.randint(0, 3))):
            facts = "; ".join(f'("v{k}", {{{drawn_ctx(0)}}})' for k in range(rng.randint(1, 2)))
            lines.append(f"sa x{i}@{method} = {{{facts}}}")
    return "\n".join(lines) + "\n"


def test_route_contexts_match_the_breadth_first_reference_on_cyclic_graphs():
    rng = random.Random(29)
    seen = dict.fromkeys(
        ("self-loop", "mutual", "two callees", "unreached", "silent entry"), 0
    )
    for _ in range(400):
        model = parse_model(_random_call_graph(rng))
        phi = compute_phi_meth(model)
        assert phi == phi_meth_by_bfs(model)
        arcs = {(e.caller, e.callee) for e in model.call_edges}
        sites = [e.site for e in model.call_edges]
        seen["self-loop"] += any(a == b for a, b in arcs)
        seen["mutual"] += any(a != b and (b, a) in arcs for a, b in arcs)
        seen["two callees"] += len(set(sites)) < len(sites)
        seen["unreached"] += any(not fam for fam in phi.values())
        seen["silent entry"] += all(e.caller != "main" for e in model.call_edges)
    assert min(seen.values()) >= 20, seen


def test_route_families_decode_to_the_frozenset_reference_in_its_order():
    # tests/randmodels.py draws from phi[caller] by iteration order, so the
    # random model texts, and the bench fingerprints, depend on that order
    from randmodels import random_model_text

    rng = random.Random(33)
    models = [parse_model(random_model_text(seed)) for seed in range(200)]
    models += [parse_model(_random_call_graph(rng)) for _ in range(300)]
    for model in models:
        phi, reference = compute_phi_meth(model), phi_meth_by_sets(model)
        assert list(phi) == list(reference)
        for method, family in reference.items():
            assert phi[method] == family
            assert list(phi[method]) == list(family)


def _sites_on_cycles(model) -> set[CallSite]:
    """The sites of the call edges whose callee can reach their caller."""
    callees: dict[str, set[str]] = {}
    for e in model.call_edges:
        callees.setdefault(e.caller, set()).add(e.callee)

    def reaches(start: str, goal: str) -> bool:
        seen, todo = set(), [start]
        while todo:
            method = todo.pop()
            if method == goal:
                return True
            if method not in seen:
                seen.add(method)
                todo.extend(callees.get(method, ()))
        return False

    return {e.site for e in model.call_edges if reaches(e.callee, e.caller)}


def test_lint_masks_match_the_subset_reference_on_cyclic_graphs():
    rng = random.Random(33)
    seen = dict.fromkeys(("dead edge", "dead fact", "kept", "cyclic dead", "cyclic kept"), 0)
    for _ in range(400):
        model = parse_model(_random_call_graph(rng, contexts=True))
        warnings = lint_model(model)
        assert warnings == lint_by_subsets(model)
        assert lint_model(model, compute_phi_meth(model)) == warnings
        seen["dead edge"] += any(w.startswith("dead-edge: ") for w in warnings)
        seen["dead fact"] += any(w.startswith("dead-fact: ") for w in warnings)
        # a context naming a site that a recursive route passes more than once
        cyclic, reference = _sites_on_cycles(model), phi_meth_by_sets(model)
        contexts = [(c, e.caller) for e in model.call_edges if not e.unconditional for c in e.ctx]
        contexts += [(f.ctx, method) for (_v, method), fs in model.sa.items() for f in fs]
        for ctx, method in contexts:
            kept = any(ctx <= route for route in reference[method])
            seen["kept"] += kept
            if ctx & cyclic:
                seen["cyclic kept" if kept else "cyclic dead"] += 1
    assert min(seen.values()) >= 20, seen


def test_lint_flags_a_context_naming_a_site_that_no_call_edge_has():
    # the parser rejects such a site; a model built by hand can hold one
    from dataclasses import replace

    from stackpol.model import StringFact

    model = parse_model(minimal_plus("calledge 1 main 1 doPriv ctx=any"))
    ghost = frozenset({CallSite("main", 9)})
    model = replace(model, sa={("v", "doPriv"): (StringFact("x", ghost),)})
    assert lint_model(model) == lint_by_subsets(model) == [
        "dead-fact: sa v@doPriv: no route to doPriv covers {main:9}"
    ]


def test_route_budget_counts_every_method_route(monkeypatch):
    # a chain main -> m1 -> m2 with two sites per hop: 1 + 2 + 4 routes
    model = parse_model(
        minimal_plus(
            "method m1",
            "method m2",
            "calledge 1 main 1 m1 ctx=any",
            "calledge 2 main 2 m1 ctx=any",
            "calledge 3 m1 1 m2 ctx=any",
            "calledge 4 m1 2 m2 ctx=any",
        )
    )
    monkeypatch.setattr(model_module, "ROUTE_BUDGET", 7)
    assert sum(len(fam) for fam in compute_phi_meth(model).values()) == 7
    monkeypatch.setattr(model_module, "ROUTE_BUDGET", 6)
    with pytest.raises(
        EnumerationLimitError, match=r"^more than 6 route contexts; "
    ):
        compute_phi_meth(model)


def test_route_family_of_one_path():
    m = parse_model(
        minimal_plus(
            "calledge 1 main 1 doPriv ctx={main:1}",
            "calledge 2 doPriv 2 check ctx={doPriv:2;main:1}",
        )
    )
    e1, e2 = m.call_edges
    assert phi_route_along([e1]) == e1.ctx
    z1, z2 = CallSite("main", 1), CallSite("doPriv", 2)
    assert phi_route_along([e1, e2]) == frozenset(
        {frozenset({z1, z2}), frozenset({z1})}
    )
    with pytest.raises(ValueError):
        phi_route_along([e2, e1])


def test_route_family_of_unconditional_path_is_unconstrained(example_model):
    edges = {e.ident: e for e in example_model.call_edges}
    assert phi_route_along([edges["1"], edges["3"]]) == ANY_FAMILY


# ---------------------------------------------------------------------------
# round-trip and lints


def test_parse_serialize_parse_is_identity(example_model):
    text = serialize_model(example_model)
    again = parse_model(text)
    assert again == example_model
    assert serialize_model(again) == text


def test_random_models_round_trip():
    from randmodels import random_model_text

    for seed in range(10):
        m = parse_model(random_model_text(seed))
        assert parse_model(serialize_model(m)) == m


def test_bundled_model_lints_clean(example_model):
    # its conditions and fact contexts are subsets of real routes, not routes
    assert lint_model(example_model) == []


def test_lints_skip_unconditional_edges():
    # `lonely` is unreachable, so it has no route at all; the empty context
    # of ctx=any still holds below every stack, while {main:1} never does
    m = parse_model(
        minimal_plus(
            "method lonely",
            "calledge 1 main 1 doPriv ctx=any",
            "calledge 2 lonely 1 check ctx=any",
            "calledge 3 lonely 2 check ctx={main:1}",
        )
    )
    assert lint_model(m) == ["dead-edge: calledge 3: no route to lonely covers {main:1}"]


def test_lint_flags_foreign_fact_context():
    m = parse_model(
        minimal_plus(
            "calledge 1 main 1 doPriv ctx=any",
            "calledge 2 doPriv 1 check ctx=any",
            "depnode a main 50 kind=alloc form=3 type=P",
            'sa v@main = {("x", {doPriv:1})}',
        )
    )
    warnings = lint_model(m)
    assert any(w.startswith("dead-fact: sa v@main") for w in warnings)


def test_lint_flags_edge_context_outside_the_callers_routes():
    m = parse_model(
        minimal_plus(
            "calledge 1 main 1 doPriv ctx=any",
            "calledge 2 doPriv 1 check ctx={doPriv:1}",
        )
    )
    assert any(w.startswith("dead-edge: calledge 2") for w in lint_model(m))


def test_lint_keeps_contexts_that_a_route_covers():
    # check's only route is {main:1,doPriv:2}; a strict subset of it holds
    # below that stack, so neither the edge nor the fact is dead
    m = parse_model(
        minimal_plus(
            "calledge 1 main 1 doPriv ctx=any",
            "calledge 2 doPriv 2 check ctx={main:1}",
            "depnode a doPriv 50 kind=alloc form=3 type=P",
            "pta p@check = {(P, a, {main:1})}",
        )
    )
    assert lint_model(m) == []


def test_dead_edge_members_are_on_no_bounded_walk():
    from randmodels import random_model_text

    from stackpol.oracle import _walks

    flagged = 0
    for seed in range(300):
        model = parse_model(random_model_text(seed))
        edges = {e.ident: e for e in model.call_edges}
        for warning in lint_model(model):
            if not warning.startswith("dead-edge: "):
                continue
            ident = warning.split(":")[1].split()[1]
            members = _Parser()._family(warning.rpartition(" covers ")[2], 0)
            assert members and members <= edges[ident].ctx
            for walk in _walks(model, (edges[ident].caller,), 2):
                sites = {e.site for e in walk}
                assert not any(member <= sites for member in members), (seed, warning)
            flagged += 1
    assert flagged


# ---------------------------------------------------------------------------
# robustness: edited model text fails only with the toolkit's own errors

_TEXT = running_example_text()
# the text's own characters, plus a few the grammar never uses
_EDIT_CHARS = sorted(set(_TEXT) | set("\t\x00é!*"))


@st.composite
def _edited_texts(draw):
    text = _TEXT
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = draw(st.sampled_from(_EDIT_CHARS))
        if op == "insert":
            text = text[:pos] + ch + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1 :]
        else:
            text = text[:pos] + ch + text[pos + 1 :]
    return text


@settings(max_examples=250, deadline=None)
@given(_edited_texts())
def test_edited_model_text_raises_only_stackpol_errors(text):
    try:
        model = parse_model(text)
        compute_phi_meth(model)
        lint_model(model)
        universe = generate_permissions(model)
        policy = generate_policy(model, universe, tuple_cap=2000).policy
        emit_policy(policy, "table")
        emit_policy(policy, "java")
    except StackpolError:
        pass


_LINES = [line for line in _TEXT.splitlines() if line.strip()]
_FIRST_DEPEDGE = next(line for line in _LINES if line.startswith("depedge "))


@settings(max_examples=100, deadline=None)
# the edge's two depnodes both come after it
@example([_FIRST_DEPEDGE, *(line for line in _LINES if line != _FIRST_DEPEDGE)])
@given(st.permutations(_LINES))
def test_directive_order_does_not_matter(lines):
    expected = serialize_model(parse_model(_TEXT))
    assert serialize_model(parse_model("\n".join(lines))) == expected
