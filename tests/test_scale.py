"""Models past the size where every route's digest was kept apart.

The solver merges digests that share ``(kill, finished, history)``, so a
full-bipartite graph whose W^L routes each leave a distinct ``gen`` set
keeps one digest per cut history.  These models exit 0 under the default
``tuple_cap``; an unmerged solve holds more than 10,000 digests on each.
On a random call DAG of thousands of methods, each prefix keeps only the
sites that a check above it reads, and the grants equal a closed form
found by two graph searches per check.  So they do on the same DAG with
asserters whose calls run through one shared privilege method, which
makes the frames recursive.  A model whose saturation would
sequence far more digest pairs than ``pushdown.WORK_BUDGET`` exits 3
instead, without a traceback, once the budget is spent: within a second
for the models here, and within seconds where wide keys make each pair
dearer.
"""

from __future__ import annotations

import random

import pytest
from benchmodels import workloads
from bruteforce import checkpoint_reads, projected, read_sites
from test_policy import _diamond_ladder

from stackpol import (
    CallSite,
    Permission,
    compute_phi_meth,
    emit_policy,
    generate_permissions,
    generate_policy,
    parse_model,
    pushdown,
    running_example_text,
)
from stackpol import oracle
from stackpol.cli import main
from stackpol.errors import CapacityError
from stackpol.policy import _read_sites, encode
from stackpol.pushdown import movp


def _edges():
    edges: list[str] = []

    def edge(caller: str, line: int, callee: str) -> None:
        edges.append(f"calledge {len(edges) + 1} {caller} {line} {callee} ctx=any")

    return edges, edge


def wide_form3_text(layers: int, width: int) -> str:
    """L layers of W methods, each calling every method of the next layer;
    bottom method j checks its own form-3 permission ``Pj``."""
    lines = ["method main entry"]
    lines += [f"method m{i}_{j}" for i in range(1, layers + 1) for j in range(1, width + 1)]
    lines += ["method doPrivileged priv", "method checkPermission check"]
    edges, edge = _edges()
    facts = []
    for j in range(1, width + 1):
        edge("main", j, f"m1_{j}")
    for i in range(1, layers):
        for j in range(1, width + 1):
            for k in range(1, width + 1):
                edge(f"m{i}_{j}", k, f"m{i + 1}_{k}")
    for j in range(1, width + 1):
        bottom = f"m{layers}_{j}"
        edge(bottom, 1, "checkPermission")
        facts += [
            f"depnode a{j} {bottom} 90 kind=alloc form=3 type=P{j}",
            f"depnode c{j} {bottom} 1 kind=callsite",
            f"depedge a{j} c{j}",
            f"checkarg {bottom}:1 var=p",
            f"pta p@{bottom} = {{(P{j}, a{j}, {{}})}}",
        ]
    return "\n".join(lines + edges + facts) + "\n"


def returning_helpers_text(helpers: int) -> str:
    """``main`` calls ``M``, and ``M`` calls ``Y``.  Each of the two calls
    ``helpers`` methods that allocate a form-3 permission and return it,
    and checks it.  A frame may call its helpers in any order, any number
    of times, so each frame's weight holds every subset of its helper
    sites, 2^helpers digests, and composing the two frames pairs them."""
    lines = ["method main entry", "method M", "method Y"]
    lines += [f"method {h}{i}" for h in "hg" for i in range(1, helpers + 1)]
    lines += ["method doPrivileged priv", "method checkPermission check"]
    edges, edge = _edges()
    facts = []
    edge("main", 1, "M")
    edge("M", 100, "Y")
    for frame, prefix in (("M", "h"), ("Y", "g")):
        edge(frame, 101, "checkPermission")
        triples = []
        for i in range(1, helpers + 1):
            h = f"{prefix}{i}"
            edge(frame, i, h)
            facts += [
                f"depnode a{h} {h} 90 kind=alloc form=3 type=P",
                f"depnode r{h} {h} 91 kind=return",
                f"depnode c{h} {frame} {i} kind=callsite",
                f"depedge a{h} r{h}",
                f"depedge r{h} c{h} inter=return",
            ]
            triples.append(f"(P, a{h}, {{}})")
        facts += [
            f"depnode k{frame} {frame} 101 kind=callsite",
            f"checkarg {frame}:101 var=p",
            f"pta p@{frame} = {{{'; '.join(triples)}}}",
        ]
    return "\n".join(lines + edges + facts) + "\n"


def dag_text(n: int, fanout: int, seed: int) -> str:
    """A random call DAG of ``n`` methods ``f1..fn``.  ``main`` calls
    ``f1..f5``, and each ``fi`` makes ``fanout`` calls, at lines
    ``1..fanout``, each to a method drawn from ``f(i+1)..f(i+50)``.
    Twenty distinct methods drawn from the called ones among ``f(n/2)..fn``
    each check a form-2 ``FilePermission`` at line 100, whose target fact
    holds under one site drawn from the call sites into that method."""
    rng = random.Random(seed)
    names = [f"f{i}" for i in range(1, n + 1)]
    lines = ["method main entry"] + [f"method {f}" for f in names]
    lines += ["method doPrivileged priv", "method checkPermission check"]
    edges, edge = _edges()
    into: dict[str, list[str]] = {}
    for line, callee in enumerate(names[:5], start=1):
        edge("main", line, callee)
        into.setdefault(callee, []).append(f"main:{line}")
    for i in range(1, n):
        for line in range(1, fanout + 1):
            callee = f"f{rng.randint(i + 1, min(i + 50, n))}"
            edge(f"f{i}", line, callee)
            into.setdefault(callee, []).append(f"f{i}:{line}")
    called = [f for f in names[n // 2 - 1 :] if f in into]
    facts = []
    for b in rng.sample(called, 20):
        edge(b, 100, "checkPermission")
        facts += [
            f"depnode a{b} {b} 90 kind=alloc form=2 type=FilePermission target=t",
            f"depnode c{b} {b} 100 kind=callsite",
            f"depedge a{b} c{b}",
            f"checkarg {b}:100 var=p",
            f"pta p@{b} = {{(FilePermission, a{b}, {{}})}}",
            f'sa t@{b} = {{("/{b}", {{{rng.choice(into[b])}}})}}',
        ]
    return "\n".join(lines + edges + facts) + "\n"


def priv_dag_text(n: int, fanout: int, seed: int) -> str:
    """``dag_text(n, fanout, seed)`` plus 30 asserting methods, drawn from
    ``f1..f(n/2 - 1)`` by ``random.Random(seed + 1000)``.  The k-th, ``fi``,
    calls ``doPrivileged`` at ``fi:200``, and ``doPrivileged`` calls, at
    ``doPrivileged:k``, a method drawn from ``f(i+1)..f(i+50)``.  The
    privilege method is shared, so the call graph recurses through it."""
    rng = random.Random(seed + 1000)
    lines = []
    for k, i in enumerate(rng.sample(range(1, n // 2), 30), start=1):
        callee = f"f{rng.randint(i + 1, min(i + 50, n))}"
        lines.append(f"calledge p{k} f{i} 200 doPrivileged ctx=any")
        lines.append(f"calledge d{k} doPrivileged {k} {callee} ctx=any")
    return dag_text(n, fanout, seed) + "\n".join(lines) + "\n"


def ring_text(n: int) -> str:
    """``main`` calls ``f1``, each ``fi`` calls ``f(i+1)``, and ``fn`` calls
    ``f1``, so the frames of ``f1..fn`` recurse through one ring; ``f1``
    checks a form-2 ``FilePermission`` whose target fact holds under
    ``{main:1}``, which lies beneath every stack of the ring."""
    lines = ["method main entry"] + [f"method f{i}" for i in range(1, n + 1)]
    lines += ["method doPrivileged priv", "method checkPermission check"]
    edges, edge = _edges()
    edge("main", 1, "f1")
    for i in range(1, n + 1):
        edge(f"f{i}", 1, f"f{i % n + 1}")
    edge("f1", 100, "checkPermission")
    facts = [
        "depnode af1 f1 90 kind=alloc form=2 type=FilePermission target=t",
        "depnode cf1 f1 100 kind=callsite",
        "depedge af1 cf1",
        "checkarg f1:100 var=p",
        "pta p@f1 = {(FilePermission, af1, {})}",
        'sa t@f1 = {("/f1", {main:1})}',
    ]
    return "\n".join(lines + edges + facts) + "\n"


def _search(start, step) -> set:
    """Every node that ``step``, which gives a node's successors, reaches
    from ``start``, ``start`` included."""
    seen, stack = {start}, [start]
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _calls(model, skip: str = "") -> tuple[dict, dict]:
    """Per method, the call edges out of it, and the edges into it that
    ``skip`` does not make."""
    out: dict[str, list] = {}
    into: dict[str, list] = {}
    for e in model.call_edges:
        out.setdefault(e.caller, []).append(e)
        if e.caller != skip:
            into.setdefault(e.callee, []).append(e)
    return out, into


def _grant(grants: dict[str, set[str]], methods, fact) -> None:
    for m in methods:
        grants.setdefault(m, set()).add(f'FilePermission("{fact.value}")')


def dag_grants(model) -> dict[str, set[str]]:
    """The closed-form table of a ``dag_text`` model, by two graph searches
    per check: nothing on a DAG asserts privilege, so the permission that
    ``b`` checks under the one-site context ``{s}`` goes to ``b`` and to
    every method reachable from the entry that reaches ``s``'s method."""
    out, into = _calls(model)
    live = _search(model.entry_method, lambda m: [e.callee for e in out.get(m, ())])
    grants: dict[str, set[str]] = {}
    for (_var, b), facts in model.sa.items():
        (fact,) = facts
        (s,) = fact.ctx
        if s.method in live:
            callers = _search(s.method, lambda m: [e.caller for e in into.get(m, ())])
            _grant(grants, (callers & live) | {b}, fact)
    return grants


def priv_dag_grants(model) -> dict[str, set[str]]:
    """The closed-form table of a ``priv_dag_text`` model, by two searches
    per check over ``(method, s seen)``.  The permission that ``b`` checks
    under ``{s}`` goes to every method ``m`` such that some walk
    ``main ->* m ->* b`` passes ``s`` and its part from ``m`` to ``b``
    makes no call from ``doPrivileged``, below which the stack walk stops:
    forward from the entry, and backward from ``b`` over the calls that
    ``doPrivileged`` does not make, so neither the check method nor
    ``doPrivileged`` is ever reached backward."""
    out, into = _calls(model, skip=model.priv_method)
    grants: dict[str, set[str]] = {}
    for (_var, b), facts in model.sa.items():
        (fact,) = facts
        (s,) = fact.ctx
        forward = _search(
            (model.entry_method, False),
            lambda node: [(e.callee, node[1] or e.site == s) for e in out.get(node[0], ())],
        )
        backward = _search(
            (b, True),
            lambda node: [
                (e.caller, seen)
                for e in into.get(node[0], ())
                for seen in (False, True)
                if (seen or e.site == s) == node[1]
            ],
        )
        _grant(grants, {m for m, _seen in forward & backward}, fact)
    return grants


def _table(grants: dict[str, set[str]]) -> str:
    return "".join(
        f"method {m}: {p}\n" for m in sorted(grants) for p in sorted(grants[m])
    )


def test_layered_l6_w5_exits_zero_with_its_closed_form_grants(tmp_path, capsys):
    # 5^6 stacks leave 15,635 exact digests; cut to the union of the
    # reads and merged, 5812, and 428 once each keeps only what its own
    # checkpoint reads
    text, expected = workloads().layered_text(random.Random(1), 6, 5)
    path = tmp_path / "layered.model"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "stack digests: 428" in err.splitlines()
    assert out == _table(expected)
    model = parse_model(text)
    universe = generate_permissions(model)
    exact = movp(encode(model), {model.check_method}, tuple_cap=20_000).decode()
    assert exact.width() == 15_635
    reads = checkpoint_reads(universe)
    unprojected = projected(exact, dict.fromkeys(reads, read_sites(universe)))
    assert unprojected.width() == 5812
    reference = projected(exact, reads)
    assert generate_policy(model, universe).weight == reference
    assert reference.width() == 428


@pytest.mark.parametrize("n, fanout", [(300, 2), (1000, 3), (2000, 2)])
def test_a_random_call_dag_gets_its_closed_form_grants(n, fanout):
    # each prefix keeps only the sites that a check above it still reads,
    # so the routes into the checking methods, exponential in the DAG's
    # diamonds, leave a few digests; uncut, 1000x3 and 2000x2 exceed the
    # work budget
    model = parse_model(dag_text(n, fanout, 1))
    result = generate_policy(model, generate_permissions(model))
    expected = dag_grants(model)
    assert len(expected) > 20
    assert emit_policy(result.policy) == _table(expected)


@pytest.mark.parametrize("n, seed, count", [(200, 1, 669), (200, 2, 593), (1000, 1, 6470)])
def test_a_privileged_call_dag_gets_its_closed_form_grants(n, seed, count):
    # the frames recurse through the shared doPrivileged, so the read-out
    # folds a cyclic component; every call doPrivileged makes kills what
    # lies below it, which at 200x2 (seed 1) withholds 440 grants
    model = parse_model(priv_dag_text(n, 2, seed))
    result = generate_policy(model, generate_permissions(model))
    expected = priv_dag_grants(model)
    assert sum(map(len, expected.values())) == count
    assert emit_policy(result.policy) == _table(expected)


def _solve_work(monkeypatch, text: str) -> int:
    """The ``pushdown._spend`` units of one ``generate_policy`` solve."""
    model = parse_model(text)
    universe = generate_permissions(model)
    spent = []
    spend = pushdown._spend

    def counted(work, units):
        spent.append(units)
        return spend(work, units)

    monkeypatch.setattr(pushdown, "_spend", counted)
    generate_policy(model, universe)
    return sum(spent)


def test_the_read_out_forms_each_product_once_on_a_call_dag(monkeypatch):
    # acyclic, so each state's reach is formed once from the complete reach
    # below it, and the figure does not depend on the order of visits
    assert _solve_work(monkeypatch, dag_text(2000, 2, 1)) == 7433


def test_the_read_out_folds_the_recursion_through_a_shared_privilege(monkeypatch):
    # 621 states that recurse through doPrivileged form one component,
    # folded in 3 rounds
    assert _solve_work(monkeypatch, priv_dag_text(2000, 2, 1)) == 13833


@pytest.mark.parametrize("n, units", [(300, 1507), (600, 3007)])
def test_the_read_out_folds_a_recursive_ring_in_linear_work(monkeypatch, n, units):
    # the ring's n frames form one component, visited in the order the
    # depth-first search finished them, so 4 rounds settle it; in the
    # order it found them, a value would move one frame per round, and
    # the fold would form about n^2/2 products
    assert _solve_work(monkeypatch, ring_text(n)) == units
    model = parse_model(ring_text(n))
    result = generate_policy(model, generate_permissions(model))
    grant = {'FilePermission("/f1")'}
    expected = {m: grant for m in ["main"] + [f"f{i}" for i in range(1, n + 1)]}
    assert emit_policy(result.policy) == _table(expected)


def test_a_diamond_ladder_has_its_closed_form_route_count():
    # level i of a depth-n ladder has 2^i routes and the check method 2^n,
    # 3 * 2^n - 1 in all; the depth-14 ladders hold 49,151
    rng = random.Random(0)
    for n in range(1, 15):
        for model in (
            _diamond_ladder(n)[0],
            parse_model(workloads().ladder_text(rng, n)[0]),
        ):
            phi = compute_phi_meth(model)
            assert sum(len(fam) for fam in phi.values()) == 3 * 2**n - 1


def test_wide_form3_l7_w7_exits_zero_through_the_cli(tmp_path, capsys):
    # 7^7 = 823,543 stacks reach the checks; each leaves its own gen set,
    # but the form-3 demand reads only the sites into the bottom methods.
    # ``check`` runs no lint, whose 1,784,343 routes here are past the
    # route budget; a PASS with no unused grant is the exact table
    layers, width = 7, 7
    upper = ["main"] + [
        f"m{i}_{j}" for i in range(1, layers) for j in range(1, width + 1)
    ]
    expected: dict[str, set[str]] = {}
    for j in range(1, width + 1):
        for m in upper + [f"m{layers}_{j}"]:
            expected.setdefault(m, set()).add(f"P{j}")
    model = tmp_path / "wide.model"
    model.write_text(wide_form3_text(layers, width), encoding="utf-8")
    policy = tmp_path / "wide.policy"
    policy.write_text(_table(expected), encoding="utf-8")
    assert main(["check", str(model), "--policy", str(policy)]) == 0
    out, err = capsys.readouterr()
    assert out == "PASS\n"
    assert err == ""


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(running_example_text, id="bundled"),
        pytest.param(
            lambda: workloads().layered_text(random.Random(0), 4, 4)[0],
            id="layered-L4xW4",
        ),
        pytest.param(lambda: dag_text(1000, 2, 1), id="dag-1000x2"),
    ],
)
def test_a_solve_interns_only_the_sites_that_grants_read(text):
    model = parse_model(text())
    universe = generate_permissions(model)
    solved = generate_policy(model, universe).digests
    sites = [name for name in solved.packing.bit if isinstance(name, CallSite)]
    assert sites
    assert set(sites) <= set().union(*_read_sites(universe).values())


def test_a_deep_ladder_takes_the_oracle_one_hosting_test(monkeypatch):
    # all 2^12 routes to the allocation put the same methods on the stack,
    # so one stack that hosts the flow answers for them all
    text, expected = workloads().ladder_text(random.Random(0), 12)
    model = parse_model(text)
    universe = generate_permissions(model)
    hosts, host = [], oracle.well_matched

    def counted(*args):
        hosts.append(args)
        return host(*args)

    # each hosting test replays the flow's word on the stack first
    monkeypatch.setattr(oracle, "well_matched", counted)
    reference = oracle.oracle_policy(model, universe)
    closed_form = {
        m: frozenset(map(Permission, ps)) for m, ps in expected.items()
    }
    assert generate_policy(model, universe).policy.grants == closed_form
    assert reference.grants == closed_form
    alloc = model.dep_nodes["a"].method
    assert len(oracle.enum_vpaths(model, alloc)) == 2**12
    assert len(hosts) == 1


BUDGET_MESSAGE = (
    f"post* saturation exceeded its work budget of {pushdown.WORK_BUDGET} steps and "
    "digest pairs"
)


def test_a_model_past_the_work_budget_exits_three_at_the_cli(tmp_path, capsys):
    path = tmp_path / "helpers.model"
    path.write_text(returning_helpers_text(12), encoding="utf-8")
    assert main(["analyze", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith(f"error: {BUDGET_MESSAGE};")
    assert "Traceback" not in err


def test_a_model_past_the_work_budget_raises_through_generate_policy():
    # each frame's weight would reach 2^12 digests, and every time it
    # grows it is sequenced with each rule of the frame again
    model = parse_model(returning_helpers_text(12))
    with pytest.raises(CapacityError) as over:
        generate_policy(model, generate_permissions(model))
    assert str(over.value).startswith(BUDGET_MESSAGE)


def test_the_same_shape_under_the_budget_solves_exactly():
    # two helpers a frame: a check from M after any subset of M's helper
    # sites, 4 digests, and one from Y after any subset of M's and any of
    # Y's, 16 more
    model = parse_model(returning_helpers_text(2))
    result = generate_policy(model, generate_permissions(model))
    assert result.digests.width() == 4 + 16
    assert result.policy.grants == {
        m: frozenset({Permission("P")}) for m in ("main", "M", "Y")
    }
