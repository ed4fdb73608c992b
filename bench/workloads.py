"""Seeded model sets for the benchmark's three workloads.

Each workload turns a seed into a list of ``Case``s: a model text, the
closed-form grants it must produce when the generator knows them, and
whether the enumeration oracle checks it as well.  The seed decides
names, permission values and drawn contexts; the shapes and sizes are
fixed per workload, so runs with different seeds cost about the same.

* ``small-mix``: the bundled example plus ``SMALL_MIX_MODELS`` models of
  the documented random family in ``tests/randmodels.py``.  The models
  are tiny, so fixed per-model costs (parsing, encoding, small solves)
  dominate.
* ``layered``: full-bipartite layered call graphs with unconditional
  edges and a privileged branch.  The digest count grows as W^L, so the
  pushdown solver dominates.  Every model is checked against its closed
  form, and all but the largest against the oracle too, which enumerates
  the same W^L stacks.
* ``ctx-ladder``: diamond ladders whose every call below level 0 is
  guarded by the previous level's sites, with a form-3 allocation whose
  demand contexts are all 2^n routes, so grant extraction dominates.
  The oracle's route families grow as 4^n, so the deep ladders are
  checked against their closed form; two shallower ladders of the same
  shape are checked against both, which keeps the closed form honest.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]

SMALL_MIX_MODELS = 1500
LAYERED_SIZES = ((4, 4), (4, 5), (5, 4), (5, 5))  # (layers L, width W)
# the oracle enumerates the W^L stacks and relates each to every
# allocation route; past about a thousand stacks that takes seconds
LAYERED_ORACLE_MAX_STACKS = 1024
LADDER_DEPTHS = (11, 11)
LADDER_ORACLE_DEPTHS = (9, 9)

_TYPES = ("FilePermission", "NetPermission", "RuntimePermission", "PropertyPermission")
_ACTIONS = ("read", "write", "connect", "exec", "delete", "listen")


class BenchError(Exception):
    """The benchmark cannot produce trustworthy numbers here."""


def load_program():
    """Import stackpol and the random model family from the checkout."""
    src = ROOT / "src"
    rand_path = ROOT / "tests" / "randmodels.py"
    if not (src / "stackpol" / "__init__.py").is_file() or not rand_path.is_file():
        raise BenchError(f"no stackpol sources under {ROOT}; run from a source checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import stackpol

    spec = importlib.util.spec_from_file_location("randmodels", rand_path)
    randmodels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(randmodels)
    return stackpol, randmodels


@dataclass(frozen=True)
class Case:
    """One model of a workload and how its grants are checked.

    ``expected`` maps each granted method to its permission strings as
    ``emit_policy`` renders them; ``oracle`` asks for ``oracle_policy``
    as a reference as well.  At least one of the two is set.
    """

    ident: str
    text: str
    expected: dict[str, frozenset[str]] | None = None
    oracle: bool = False


def fingerprint(cases: list[Case]) -> str:
    """sha256 over the ids and texts of a model set, in order."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.ident.encode())
        h.update(b"\0")
        h.update(case.text.encode())
        h.update(b"\0")
    return h.hexdigest()


def small_mix(seed: int, randmodels, example_text: str) -> list[Case]:
    """The bundled example plus random models ``seed*n .. seed*n + n - 1``."""
    n = SMALL_MIX_MODELS
    cases = [Case("running_example", example_text, oracle=True)]
    for k in range(seed * n, seed * n + n):
        cases.append(Case(f"random_model({k})", randmodels.random_model_text(k), oracle=True))
    return cases


def _route(rng: random.Random, layers: int, width: int, last: int) -> tuple[list[str], list[str]]:
    """Sites and methods of one drawn route from main to ``m{layers}_{last}``."""
    picks = [rng.randrange(1, width + 1) for _ in range(layers - 1)] + [last]
    callers = ["main"] + [f"m{i}_{picks[i - 1]}" for i in range(1, layers)]
    sites = [f"{caller}:{pick}" for caller, pick in zip(callers, picks)]
    return sites, callers + [f"m{layers}_{last}"]


def layered_text(rng: random.Random, layers: int, width: int) -> tuple[str, dict[str, frozenset[str]]]:
    """L layers of W methods, each calling every method of the next layer.

    Every bottom method checks a form-1 permission whose string facts
    hold under two drawn routes.  One method above the bottom calls the
    privilege asserter, whose tail checks a form-2 permission under one
    drawn route through it; a factory the tail calls allocates that
    permission and returns it, so the solver also applies pop and swap
    rules.  No two edges share a site, so a route
    context names exactly one stack, and the closed-form grants give each
    permission to the methods of the routes it is demanded under.
    """
    lines = ["method main entry"]
    lines += [f"method m{i}_{j}" for i in range(1, layers + 1) for j in range(1, width + 1)]
    lines += ["method doPrivileged priv", "method ptail", "method pfactory"]
    lines += ["method checkPermission check"]
    edges: list[str] = []

    def edge(caller: str, line: int, callee: str) -> None:
        edges.append(f"calledge {len(edges) + 1} {caller} {line} {callee} ctx=any")

    for j in range(1, width + 1):
        edge("main", j, f"m1_{j}")
    for i in range(1, layers):
        for j in range(1, width + 1):
            for k in range(1, width + 1):
                edge(f"m{i}_{j}", k, f"m{i + 1}_{k}")
    for j in range(1, width + 1):
        edge(f"m{layers}_{j}", 1, "checkPermission")
    host_layer = rng.randrange(1, layers)
    host_idx = rng.randrange(1, width + 1)
    host = f"m{host_layer}_{host_idx}"
    edge(host, width + 1, "doPrivileged")
    edge("doPrivileged", 1, "ptail")
    edge("ptail", 1, "checkPermission")
    edge("ptail", 2, "pfactory")

    facts: list[str] = []
    expected: dict[str, set[str]] = {}
    values = rng.sample(range(1000), 2 * width + 1)
    for j in range(1, width + 1):
        bottom = f"m{layers}_{j}"
        ptype = rng.choice(_TYPES)
        actions = rng.sample(_ACTIONS, 2)
        routes = [_route(rng, layers, width, j)]
        while len(routes) < 2:
            # a second, different route: facts under one context would
            # also pair each target with the other action
            route = _route(rng, layers, width, j)
            if route != routes[0]:
                routes.append(route)
        ctxs = []
        for v, action, (sites, methods) in zip(values[2 * j - 2 : 2 * j], actions, routes):
            ctxs.append((f"/data/{v}", action, ",".join(sites)))
            for m in methods:
                expected.setdefault(m, set()).add(f'{ptype}("/data/{v}","{action}")')
        (t1, a1, c1), (t2, a2, c2) = ctxs
        facts += [
            f"depnode a{j} {bottom} 90 kind=alloc form=1 type={ptype} target=t action=a",
            f"depnode c{j} {bottom} 1 kind=callsite",
            f"depedge a{j} c{j}",
            f"checkarg {bottom}:1 var=p",
            f"pta p@{bottom} = {{({ptype}, a{j}, {{{c1}}})}}",
            f'sa t@{bottom} = {{("{t1}", {{{c1}}}); ("{t2}", {{{c2}}})}}',
            f'sa a@{bottom} = {{("{a1}", {{{c1}}}); ("{a2}", {{{c2}}})}}',
        ]
    # the asserted privilege hides everything below it, and the factory
    # has finished when the tail checks, so only the tail needs the
    # permission
    upper, _methods = _route(rng, host_layer, width, host_idx)
    tail_ctx = ",".join(upper + [f"{host}:{width + 1}", "doPrivileged:1"])
    ptype = rng.choice(_TYPES)
    target = f"/log/{values[-1]}"
    expected["ptail"] = {f'{ptype}("{target}")'}
    facts += [
        f"depnode ta pfactory 90 kind=alloc form=2 type={ptype} target=t",
        "depnode tr pfactory 91 kind=return",
        "depnode tb ptail 2 kind=callsite",
        "depnode tc ptail 1 kind=callsite",
        "depedge ta tr",
        "depedge tr tb inter=return",
        "depedge tb tc",
        "checkarg ptail:1 var=p",
        f"pta p@ptail = {{({ptype}, ta, {{{tail_ctx}}})}}",
        f'sa t@pfactory = {{("{target}", {{{tail_ctx},ptail:2}})}}',
    ]
    text = "\n".join(lines + edges + facts) + "\n"
    return text, {m: frozenset(ps) for m, ps in expected.items()}


def layered(seed: int) -> list[Case]:
    rng = random.Random(f"layered/{seed}")
    cases = []
    for layers, width in LAYERED_SIZES:
        text, expected = layered_text(rng, layers, width)
        oracle = width**layers <= LAYERED_ORACLE_MAX_STACKS
        cases.append(Case(f"layered_L{layers}xW{width}", text, expected, oracle))
    return cases


def ladder_text(rng: random.Random, depth: int) -> tuple[str, dict[str, frozenset[str]]]:
    """A diamond ladder of ``depth`` levels and its closed-form grants.

    Level i calls level i+1 at two sites; every call below level 0 is
    guarded by a condition naming both sites of the level above, which
    every real stack satisfies.  The bottom checks a form-3 permission,
    so its demand contexts are all 2^depth routes, and every ladder
    method must be granted that one permission.
    """
    prefix = rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ") + str(rng.randrange(100))
    names = [f"{prefix}_{i}" for i in range(depth + 1)]
    ptype = rng.choice(_TYPES)
    lines = [f"method {names[0]} entry"]
    lines += [f"method {n}" for n in names[1:]]
    lines += ["method doPrivileged priv", "method checkPermission check"]
    edges: list[str] = []
    for i in range(depth):
        if i == 0:
            ctx = "any"
        else:
            ctx = f"{{{names[i - 1]}:1;{names[i - 1]}:2}}"
        for branch in (1, 2):
            edges.append(f"calledge {len(edges) + 1} {names[i]} {branch} {names[i + 1]} ctx={ctx}")
    bottom = names[-1]
    edges.append(f"calledge {len(edges) + 1} {bottom} 1 checkPermission ctx=any")
    route = ",".join(f"{names[i]}:{rng.randrange(1, 3)}" for i in range(depth))
    facts = [
        f"depnode a {bottom} 90 kind=alloc form=3 type={ptype}",
        f"depnode c {bottom} 1 kind=callsite",
        "depedge a c",
        f"checkarg {bottom}:1 var=p",
        f"pta p@{bottom} = {{({ptype}, a, {{{route}}})}}",
    ]
    expected = {n: frozenset({ptype}) for n in names}
    return "\n".join(lines + edges + facts) + "\n", expected


def ctx_ladder(seed: int) -> list[Case]:
    rng = random.Random(f"ctx-ladder/{seed}")
    cases = []
    for k, depth in enumerate(LADDER_DEPTHS):
        text, expected = ladder_text(rng, depth)
        cases.append(Case(f"ladder_n{depth}_{k}", text, expected=expected))
    for k, depth in enumerate(LADDER_ORACLE_DEPTHS):
        text, expected = ladder_text(rng, depth)
        cases.append(Case(f"ladder_n{depth}_oracle_{k}", text, expected=expected, oracle=True))
    return cases


NAMES = ("small-mix", "layered", "ctx-ladder")


def model_sets(randmodels, example_text: str) -> dict[str, Callable[[int], list[Case]]]:
    """Workload name -> seed -> model set."""
    return {
        "small-mix": lambda seed: small_mix(seed, randmodels, example_text),
        "layered": layered,
        "ctx-ladder": ctx_ladder,
    }


def generate(workload: str, seed: int) -> list[Case]:
    """The model set of ``workload`` at ``seed``, built under a fixed hash seed.

    ``tests/randmodels.py`` draws from set iteration order, so its texts
    depend on the interpreter's hash seed.  Building every set in a child
    with ``PYTHONHASHSEED=0`` makes one seed give one set in every run,
    while the measured process keeps the usual random hash seed.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), workload, str(seed)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise BenchError(f"generating {workload} failed:\n{proc.stderr}")
    return [
        Case(
            c["ident"],
            c["text"],
            None if c["expected"] is None else {m: frozenset(ps) for m, ps in c["expected"].items()},
            c["oracle"],
        )
        for c in json.loads(proc.stdout)
    ]


if __name__ == "__main__":
    stackpol, randmodels = load_program()
    built = model_sets(randmodels, stackpol.running_example_text())[sys.argv[1]](int(sys.argv[2]))
    json.dump(
        [
            {
                "ident": c.ident,
                "text": c.text,
                "expected": None if c.expected is None else {m: sorted(ps) for m, ps in c.expected.items()},
                "oracle": c.oracle,
            }
            for c in built
        ],
        sys.stdout,
    )
