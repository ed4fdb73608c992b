"""Reference stepping and solvers that share no code with the saturation engine.

``successors`` interprets a conditional system on one concrete stack,
testing each rule's condition against the call sites below the top.
``reduced_successors`` steps the same stack through the engine's
``AnnotatedWPDS`` view instead, so tests can check that the two agree.

``movp_by_stepping`` interprets a conditional system configuration by
configuration with the direct ``successors`` semantics and folds rule
weights along every run.  It is exponential and only usable on desk
scale systems, which is the point: it is too simple to be wrong in the
same way as the automaton construction.

``fold_weights`` composes a rule-weight sequence left to right, giving
an independent path-digest reference for single runs.

``grants_by_scan`` extracts grants from a solved weight by testing every
digest against every permission and demand context, the reference for
``generate_policy``'s indexed extraction.

``route_valid_by_family`` and ``relates_by_scan`` are the oracle's route
validity and relation tests as first written: the first builds the whole
``phi_route_along`` family of a path, the second rebuilds both stacks'
method sets for every pair of stacks.  They are the references for
``oracle._route_valid`` and ``oracle.relates``.
"""

from __future__ import annotations

from stackpol.contexts import CallSite, CtxSet
from stackpol.model import ProgramModel, phi_route_along
from stackpol.oracle import (
    DEFAULT_PATH_BOUND,
    CallPath,
    DepPath,
    _opens,
    enum_vpaths,
    extract,
    well_matched,
)
from stackpol.permissions import Permission, PermissionUniverse
from stackpol.pushdown import AnnotatedWPDS, ConditionalWPDS, Rule, StackSymbol
from stackpol.weights import ONE, ZERO, Weight

Stack = tuple[StackSymbol, ...]
# a stack whose every symbol is paired with the call sites strictly below it
PairStack = tuple[tuple[StackSymbol, CtxSet], ...]


def stack_sites(stack) -> CtxSet:
    return frozenset(s for s in stack if isinstance(s, CallSite))


def alphabet(system: ConditionalWPDS) -> frozenset[StackSymbol]:
    syms: set[StackSymbol] = {system.start}
    for r in system.rules:
        syms.add(r.lhs)
        syms.update(r.rhs)
    return frozenset(syms)


def successors(system: ConditionalWPDS, stack: Stack) -> list[tuple[Rule, Stack]]:
    """One-step rewrites of ``stack`` under the conditional semantics."""
    if not stack:
        return []
    top, rest = stack[0], stack[1:]
    below = stack_sites(rest)
    return [
        (r, r.rhs + rest)
        for r in system.rules
        if r.lhs == top and r.cond.holds(below)
    ]


def annotate_stack(stack: Stack) -> PairStack:
    return tuple((sym, stack_sites(stack[i + 1 :])) for i, sym in enumerate(stack))


def reduced_successors(
    annotated: AnnotatedWPDS, stack: PairStack
) -> list[tuple[int, PairStack]]:
    """One-step rewrites of a paired stack in the unconditional view,
    as (index of the rule that fired, resulting paired stack)."""
    if not stack:
        return []
    (top, below), rest = stack[0], stack[1:]
    return [(idx, rhs + rest) for idx, _w, rhs in annotated.instances(top, below)]


def fold_weights(weights) -> Weight:
    total = ONE
    for w in weights:
        total = total.extend(w)
    return total


def movp_by_stepping(
    system: ConditionalWPDS,
    targets,
    depth: int,
    *,
    require_drained: bool = True,
) -> Weight:
    """Combine over every run of at most ``depth`` rule firings.

    With ``require_drained`` the frontier must be empty at the end, so
    the result provably covers all runs.  Cyclic systems never drain;
    callers must instead pick a depth at which the total has saturated.
    """
    wanted = set(targets)
    top = system.start
    total = ONE if top in wanted else ZERO
    frontier: dict[Stack, Weight] = {(top,): ONE}
    for _ in range(depth):
        if not frontier:
            break
        level: dict[Stack, Weight] = {}
        for stack, w in frontier.items():
            for rule, succ in successors(system, stack):
                nw = w.extend(rule.weight)
                if succ and succ[0] in wanted:
                    total = total.combine(nw)
                if succ:
                    prev = level.get(succ)
                    level[succ] = nw if prev is None else prev.combine(nw)
        frontier = level
    if require_drained and frontier:
        raise RuntimeError(f"runs outlived depth {depth}")
    return total


def grants_by_scan(
    model: ProgramModel, universe: PermissionUniverse, weight: Weight
) -> dict[str, frozenset[Permission]]:
    grants: dict[str, set[Permission]] = {}
    hidden = {model.check_method, model.priv_method}
    origins = universe.origins
    for digest in weight.tuples:
        required = [
            p
            for p in universe.perms
            if origins[p] & digest.history
            and any(c <= digest.history for c in universe.contexts[p])
        ]
        if not required:
            continue
        for method in (digest.gen - digest.finished) - hidden:
            grants.setdefault(method, set()).update(required)
    return {m: frozenset(ps) for m, ps in grants.items()}


def route_valid_by_family(edges) -> bool:
    sites = frozenset(e.site for e in edges)
    return any(c <= sites for c in phi_route_along(edges))


def relates_by_scan(
    model: ProgramModel,
    sigma: CallPath,
    perm,
    universe: PermissionUniverse,
    flow_paths: list[DepPath],
    vpath_cache: dict[str, list[CallPath]],
    bound: int = DEFAULT_PATH_BOUND,
) -> bool:
    pairs = universe.sources.get(perm, frozenset())
    if not pairs or not sigma.edges:
        return False
    checkpoint = sigma.edges[-1].site
    sigma_methods = sigma.methods()
    for pi in flow_paths:
        end_site = model.dep_nodes[pi.end].site
        if end_site != checkpoint or (end_site, pi.start) not in pairs:
            continue
        alloc_method = model.dep_nodes[pi.start].method
        if alloc_method not in vpath_cache:
            paths = enum_vpaths(model, alloc_method, bound)
            if alloc_method == model.entry_method:
                paths = paths + [CallPath(alloc_method, ())]
            vpath_cache[alloc_method] = paths
        word_tail = extract(model, pi)
        pi_methods = pi.methods(model)
        for sigma_p in vpath_cache[alloc_method]:
            allowed = pi_methods | sigma_p.methods() | {model.check_method}
            if not sigma_methods <= allowed:
                continue
            for variant in sigma_p.full_variants():
                if not well_matched(_opens(variant) + list(word_tail)):
                    continue
                variant_sites = frozenset(e.site for e in variant)
                if any(
                    c <= variant_sites for c in universe.contexts[perm]
                ):
                    return True
    return False
