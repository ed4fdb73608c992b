"""Permission generation from checkpoint arguments and value facts."""

import pytest

from stackpol import (
    ModelError,
    Permission,
    checkpoints,
    compute_phi_meth,
    generate_permissions,
    parse_model,
)
from stackpol import model as model_module
from stackpol import permissions
from stackpol.contexts import CallSite

S = CallSite

MINIMAL = """\
method main entry
method doPriv priv
method check check
"""


def build(*lines: str):
    return parse_model(MINIMAL + "\n".join(lines) + "\n")


# ---------------------------------------------------------------- rendering


def test_permission_rendering_by_form():
    assert str(Permission("AllPermission")) == "AllPermission"
    assert str(Permission("FilePermission", "/tmp/x")) == 'FilePermission("/tmp/x")'
    assert (
        str(Permission("SocketPermission", "host:80", "connect"))
        == 'SocketPermission("host:80","connect")'
    )


def test_permission_ordering_treats_missing_fields_as_empty():
    full = Permission("A", "x", "y")
    target_only = Permission("A", "x")
    bare = Permission("A")
    assert sorted([full, bare, target_only]) == [bare, target_only, full]
    assert sorted([Permission("B"), Permission("A", "z")]) == [
        Permission("A", "z"),
        Permission("B"),
    ]


def test_an_absent_value_sorts_before_the_empty_string():
    # both render apart, so a tie would leave policy order to set order
    bare, empty = Permission("P"), Permission("P", "")
    target, empty_action = Permission("P", "a"), Permission("P", "a", "")
    expected = [bare, empty, target, empty_action]
    assert sorted(expected) == expected
    assert sorted(reversed(expected)) == expected


# ----------------------------------------------------------- running example


def test_bundled_checkpoints(example_model):
    assert checkpoints(example_model) == frozenset(
        {S("checkConnect", 6), S("checkAccess", 24)}
    )


def test_bundled_universe_permissions_and_contexts(example_universe):
    perm_f = Permission("SocketPermission", "jaist.ac.jp/faculty:8080", "connect")
    perm_s = Permission("SocketPermission", "jaist.ac.jp/student:8080", "connect")
    perm_a = Permission("FilePermission", "C:/log.txt", "write")
    assert example_universe.perms == frozenset({perm_f, perm_s, perm_a})

    faculty = frozenset({S("main", 1), S("connectFaculty", 30)})
    student = frozenset({S("main", 2), S("connectStudent", 36)})
    assert example_universe.contexts[perm_f] == frozenset(
        {faculty | {S("checkConnect", 5)}}
    )
    assert example_universe.contexts[perm_s] == frozenset(
        {student | {S("checkConnect", 5)}}
    )
    priv_tail = frozenset({S("checkConnect", 8), S("doPrivileged", 1)})
    assert example_universe.contexts[perm_a] == frozenset(
        {faculty | priv_tail, student | priv_tail}
    )


def test_bundled_universe_sources_and_origin_projection(example_universe):
    perm_a = Permission("FilePermission", "C:/log.txt", "write")
    perm_f = Permission("SocketPermission", "jaist.ac.jp/faculty:8080", "connect")
    assert example_universe.sources[perm_a] == frozenset(
        {(S("checkAccess", 24), "n23")}
    )
    assert example_universe.sources[perm_f] == frozenset(
        {(S("checkConnect", 6), "n12")}
    )
    assert example_universe.origins[perm_a] == frozenset({S("checkAccess", 24)})
    assert example_universe.origins[perm_f] == frozenset({S("checkConnect", 6)})


def test_bundled_universe_reports_cross_context_pairings(example_universe):
    # both form-1 allocations hold two facts per variable, and the
    # faculty/student contexts never mix, so four near misses are reported
    diags = example_universe.diagnostics
    assert len(diags) == 4
    assert all(d.startswith("skipped pairing at n") for d in diags)
    assert sum('"jaist.ac.jp/faculty:8080"' in d for d in diags) == 1
    assert sum('"C:/log.txt"' in d for d in diags) == 2


# ----------------------------------------------------------------- the forms


def test_form_one_pairs_values_only_under_a_shared_context():
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 mk ctx=any",
        "calledge 3 main 3 check ctx=any",
        "depnode a mk 7 kind=alloc form=1 type=SocketPermission target=t action=v",
        "checkarg main:3 var=p",
        "pta p@main = {(SocketPermission, a, {main:1})}",
        'sa t@mk = {("hA", {main:1}); ("hB", {main:2})}',
        'sa v@mk = {("connect", {main:1})}',
    )
    u = generate_permissions(m)
    perm = Permission("SocketPermission", "hA", "connect")
    assert u.perms == frozenset({perm})
    assert u.contexts[perm] == frozenset({frozenset({S("main", 1)})})
    assert u.sources[perm] == frozenset({(S("main", 3), "a")})
    assert len(u.diagnostics) == 1
    assert '"hB"' in u.diagnostics[0]


def test_form_one_with_no_shared_context_yields_nothing_but_a_note():
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 mk ctx=any",
        "calledge 3 main 3 check ctx=any",
        "depnode a mk 7 kind=alloc form=1 type=SocketPermission target=t action=v",
        "checkarg main:3 var=p",
        "pta p@main = {(SocketPermission, a, {main:1})}",
        'sa t@mk = {("hA", {main:1})}',
        'sa v@mk = {("connect", {main:2})}',
    )
    u = generate_permissions(m)
    assert u.perms == frozenset()
    assert u.sorted_perms() == []
    assert len(u.diagnostics) == 1


def test_duplicate_near_miss_notes_are_collapsed():
    # two pta triples read the same allocation under different contexts;
    # the pairing note does not mention the triple, so it appears once
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 mk ctx=any",
        "calledge 3 main 3 check ctx=any",
        "depnode a mk 7 kind=alloc form=1 type=SocketPermission target=t action=v",
        "checkarg main:3 var=p",
        "pta p@main = {(SocketPermission, a, {main:1}); (SocketPermission, a, {main:2})}",
        'sa t@mk = {("hA", {main:1}); ("hB", {main:2})}',
        'sa v@mk = {("connect", {main:1})}',
    )
    u = generate_permissions(m)
    assert u.perms == frozenset({Permission("SocketPermission", "hA", "connect")})
    assert len(u.diagnostics) == 1


def test_form_two_uses_target_facts_alone():
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "depnode a mk 7 kind=alloc form=2 type=FilePermission target=t",
        "checkarg main:2 var=p",
        "pta p@main = {(FilePermission, a, {main:1})}",
        'sa t@mk = {("/tmp/x", {main:1})}',
    )
    u = generate_permissions(m)
    perm = Permission("FilePermission", "/tmp/x")
    assert u.perms == frozenset({perm})
    assert u.contexts[perm] == frozenset({frozenset({S("main", 1)})})
    assert not u.diagnostics


def test_form_three_demands_a_call_site_into_the_allocator():
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "depnode a mk 7 kind=alloc form=3 type=AllPermission",
        "checkarg main:2 var=p",
        "pta p@main = {(AllPermission, a, {main:1})}",
    )
    u = generate_permissions(m)
    perm = Permission("AllPermission")
    assert u.perms == frozenset({perm})
    assert u.contexts[perm] == frozenset({frozenset({S("main", 1)})})


def test_form_three_demand_is_one_singleton_per_site_not_per_route():
    # two sites into w and two into mk give 2x2 routes to mk, but only
    # the two sites that enter mk are demanded
    m = build(
        "method w",
        "method mk",
        "calledge 1 main 1 w ctx=any",
        "calledge 2 main 2 w ctx=any",
        "calledge 3 w 3 mk ctx=any",
        "calledge 4 w 4 mk ctx=any",
        "calledge 5 main 5 check ctx=any",
        "depnode a mk 7 kind=alloc form=3 type=AllPermission",
        "checkarg main:5 var=p",
        "pta p@main = {(AllPermission, a, {main:1,w:3})}",
    )
    u = generate_permissions(m)
    assert len(compute_phi_meth(m)["mk"]) == 4
    assert u.contexts[Permission("AllPermission")] == frozenset(
        {frozenset({S("w", 3)}), frozenset({S("w", 4)})}
    )


def test_form_three_allocation_in_the_entry_method_demands_anywhere():
    # no edge calls the entry method, so its demand is the empty context,
    # which every stack covers: the permission is demanded from anywhere
    m = build(
        "calledge 1 main 2 check ctx=any",
        "depnode a main 9 kind=alloc form=3 type=AllPermission",
        "checkarg main:2 var=p",
        "pta p@main = {(AllPermission, a, {})}",
    )
    u = generate_permissions(m)
    assert u.contexts[Permission("AllPermission")] == frozenset({frozenset()})


# ------------------------------------------------------ no route contexts


@pytest.fixture()
def no_route_contexts(monkeypatch):
    # permissions does not import the route enumeration, and a call
    # through the model module fails the test
    assert not hasattr(permissions, "compute_phi_meth")

    def refuse(model):
        raise AssertionError("route contexts computed")

    monkeypatch.setattr(model_module, "compute_phi_meth", refuse)


def test_a_missing_checkarg_is_reported_without_route_contexts(no_route_contexts):
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "depnode a mk 7 kind=alloc form=3 type=AllPermission",
    )
    with pytest.raises(ModelError, match="no checkarg binding"):
        generate_permissions(m)


def test_forms_one_and_two_never_compute_route_contexts(
    example_model, example_universe, no_route_contexts
):
    assert generate_permissions(example_model) == example_universe
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "depnode a mk 7 kind=alloc form=2 type=FilePermission target=t",
        "checkarg main:2 var=p",
        "pta p@main = {(FilePermission, a, {main:1})}",
        'sa t@mk = {("/tmp/x", {main:1})}',
    )
    assert generate_permissions(m).perms == frozenset({Permission("FilePermission", "/tmp/x")})


def test_many_form_three_allocations_compute_no_route_contexts(no_route_contexts):
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "calledge 3 mk 3 check ctx=any",
        "depnode a mk 7 kind=alloc form=3 type=AllPermission",
        "depnode b mk 8 kind=alloc form=3 type=NetPermission",
        "checkarg main:2 var=p",
        "checkarg mk:3 var=q",
        "pta p@main = {(AllPermission, a, {main:1})}",
        "pta q@mk = {(AllPermission, a, {main:1}); (NetPermission, b, {main:1})}",
    )
    u = generate_permissions(m)
    assert u.contexts[Permission("NetPermission")] == frozenset({frozenset({S("main", 1)})})
    # a caller's route contexts are accepted and ignored
    assert u == generate_permissions(m, {"mk": frozenset()})


# -------------------------------------------------------------------- errors


def test_checkpoint_without_a_checkarg_binding_is_an_error():
    m = build("calledge 1 main 1 check ctx=any")
    with pytest.raises(ModelError, match="no checkarg binding"):
        generate_permissions(m)


def test_checkarg_variable_without_pta_facts_is_an_error():
    m = build(
        "calledge 1 main 1 check ctx=any",
        "checkarg main:1 var=p",
    )
    with pytest.raises(ModelError, match="no pta facts"):
        generate_permissions(m)


def test_alloc_variable_without_sa_facts_is_an_error():
    m = build(
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 check ctx=any",
        "depnode a mk 7 kind=alloc form=2 type=FilePermission target=t",
        "checkarg main:2 var=p",
        "pta p@main = {(FilePermission, a, {main:1})}",
    )
    with pytest.raises(ModelError, match="no sa facts") as exc:
        generate_permissions(m)
    assert "a" in str(exc.value) and "t" in str(exc.value)


# --------------------------------------------------------------- determinism


def test_generation_is_insensitive_to_fact_order():
    base = [
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 mk ctx=any",
        "calledge 3 main 3 check ctx=any",
        "depnode a mk 7 kind=alloc form=1 type=SocketPermission target=t action=v",
        "checkarg main:3 var=p",
        "pta p@main = {(SocketPermission, a, {main:1}); (SocketPermission, a, {main:2})}",
        'sa t@mk = {("hA", {main:1}); ("hB", {main:2})}',
        'sa v@mk = {("connect", {main:1}); ("connect", {main:2})}',
    ]
    flipped = list(base)
    flipped[6] = (
        "pta p@main = {(SocketPermission, a, {main:2}); (SocketPermission, a, {main:1})}"
    )
    flipped[7] = 'sa t@mk = {("hB", {main:2}); ("hA", {main:1})}'
    flipped[8] = 'sa v@mk = {("connect", {main:2}); ("connect", {main:1})}'

    a = generate_permissions(build(*base))
    b = generate_permissions(build(*flipped))
    assert a.perms == b.perms
    assert a.contexts == b.contexts
    assert a.sources == b.sources
    assert set(a.diagnostics) == set(b.diagnostics)


def test_adding_string_facts_only_grows_the_universe():
    stem = [
        "method mk",
        "calledge 1 main 1 mk ctx=any",
        "calledge 2 main 2 mk ctx=any",
        "calledge 3 main 3 check ctx=any",
        "depnode a mk 7 kind=alloc form=2 type=FilePermission target=t",
        "checkarg main:3 var=p",
        "pta p@main = {(FilePermission, a, {main:1}); (FilePermission, a, {main:2})}",
    ]
    small = generate_permissions(
        build(*stem, 'sa t@mk = {("/tmp/x", {main:1})}')
    )
    large = generate_permissions(
        build(*stem, 'sa t@mk = {("/tmp/x", {main:1}); ("/tmp/y", {main:2})}')
    )
    assert small.perms < large.perms
    for p in small.perms:
        assert small.contexts[p] <= large.contexts[p]
