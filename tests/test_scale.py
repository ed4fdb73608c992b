"""Models past the size where every route's digest was kept apart.

The solver merges digests that share ``(kill, finished, history)``, so a
full-bipartite graph whose W^L routes each leave a distinct ``gen`` set
keeps one digest per cut history.  These models exit 0 under the default
``tuple_cap``; an unmerged solve holds more than 10,000 digests on each.
A model whose saturation would sequence far more digest pairs than
``pushdown.WORK_BUDGET`` exits 3 instead, quickly and without a
traceback.
"""

from __future__ import annotations

import random

import pytest
from benchmodels import workloads

from stackpol import (
    CallSite,
    Permission,
    generate_permissions,
    generate_policy,
    parse_model,
    pushdown,
    running_example_text,
)
from stackpol import oracle
from stackpol.cli import main
from stackpol.errors import CapacityError


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


def _table(grants: dict[str, set[str]]) -> str:
    return "".join(
        f"method {m}: {p}\n" for m in sorted(grants) for p in sorted(grants[m])
    )


def test_layered_l6_w5_exits_zero_with_its_closed_form_grants(tmp_path, capsys):
    # 5^6 stacks leave 15,635 digests unmerged; merged, one per cut history
    text, expected = workloads().layered_text(random.Random(1), 6, 5)
    path = tmp_path / "layered.model"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "stack digests: 5812" in err.splitlines()
    assert out == _table(expected)


def test_wide_form3_l7_w7_exits_zero_through_the_cli(tmp_path, capsys):
    # 7^7 = 823,543 stacks reach the checks; each leaves its own gen set,
    # but the form-3 demand reads only the sites into the bottom methods.
    # ``check`` runs no lint, whose route enumeration is the slow part of
    # ``analyze`` here; a PASS with no unused grant is the exact table
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
    ],
)
def test_the_methods_of_a_solve_hold_the_low_bits(text):
    # every gen then fits under the first site bit, in as few int digits
    # as the methods allow, however many sites the histories keep
    model = parse_model(text())
    solved = generate_policy(model, generate_permissions(model)).digests
    names = list(solved.packing.bit)
    methods = sum(isinstance(name, str) for name in names)
    assert all(isinstance(name, str) for name in names[:methods])
    sites = names[methods:]
    assert sites and all(isinstance(name, CallSite) for name in sites)
    assert all(gen < 1 << methods for gen in solved.digests.values())


def test_a_deep_ladder_takes_the_oracle_one_hosting_test(monkeypatch):
    # all 2^12 routes to the allocation put the same methods on the stack,
    # so one stack that hosts the flow answers for them all
    text, expected = workloads().ladder_text(random.Random(0), 12)
    model = parse_model(text)
    universe = generate_permissions(model)
    hosts, host = [], oracle._hosts

    def counted(*args):
        hosts.append(args)
        return host(*args)

    monkeypatch.setattr(oracle, "_hosts", counted)
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
