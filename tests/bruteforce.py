"""Reference stepping, solvers and specifications that share no code with
the saturation engine.

The context lattice comes first.  A call string is abstracted to the set
of sites it visits (``abstract_ctx``), and a set of strings to the family
of those sets (``abstract_ctx_set``).  Orders:

* strings compare by site-set inclusion (``ctx_leq``),
* string sets compare by the Hoare lift of that (``set_leq``),
* families compare by the Hoare lift of set inclusion (``family_leq``).

``abstract_ctx_set`` and ``concretize`` form a Galois connection between
string sets ordered by ``set_leq`` and families ordered by ``family_leq``:

    family_leq(abstract_ctx_set(S), F)  iff  set_leq(S, concretize(F))

The right-to-left direction needs the full-permutation witness inside
``concretize`` (every member set appears as a string using each site once),
which is why concretization enumerates permutations and not just subsets.
The pipeline never builds these; it relies on the connection through
``compute_phi_meth`` and ``contexts.holds``.

``successors`` interprets a conditional system on one concrete stack,
testing each rule's condition against the call sites below the top.
``reduced_successors`` steps the same stack through the engine's
``AnnotatedWPDS`` view instead, so tests can check that the two agree.
``relevant_sites`` maps each symbol to the condition sites of every
symbol its rules' right-hand sides lead to, found by a plain graph walk
per symbol; ``annotate_stack`` pairs each symbol of a concrete stack
with the sites below it in its own relevant set, which is the pair
stack the view must reach.  ``named_sites`` is the set of sites that
some rule condition names.

``movp_by_stepping`` interprets a conditional system configuration by
configuration with the direct ``successors`` semantics and folds rule
weights along every run.  It is exponential and only usable on desk
scale systems, which is the point: it is too simple to be wrong in the
same way as the automaton construction.

``movp_by_weights`` is the post* solver as first written, saturating on
``Weight`` values directly, over ``GlobalAnnotatedWPDS``, which projects
every symbol onto ``named_sites``.  It is the reference for ``movp``, and
it explores a different state space on purpose: it opens one state per
rule instance ``(rule index, caller annotation)``, where ``movp``
saturates packed digests over the per-symbol projection and opens one
state per pushed pair, shared by every push of that pair.  The meet over
all paths is the same either way, so agreement checks the sharing as
well as the packing and the projection.

``fold_weights`` composes a rule-weight sequence left to right, giving
an independent path-digest reference for single runs.

``grants_by_scan`` extracts grants from a solved weight by testing every
digest against every permission and demand context, the reference for
``generate_policy``'s indexed extraction.  ``read_sites`` is the set of
call sites that extraction reads, the checkpoints and the sites of
every demand context, to which ``generate_policy`` cuts the histories.
``route_universe`` gives each form-3 permission its allocating methods'
route contexts as the demand family, the family form 3 had before its
singletons; scanning the exact solve under it is the reference that the
singletons and the cut must reproduce.

``phi_route_along`` is the context family of one call path: the unions
of one alternative per edge.  ``route_valid_by_family`` and
``relates_by_scan`` are the oracle's route validity and relation tests as
first written: the first builds the whole ``phi_route_along`` family of a
path, the second rebuilds both stacks' method sets for every pair of
stacks.  They are the references for ``oracle._route_valid`` and
``oracle.relates``.  ``match_paths`` lists the valid paths to a flow's
origin that can host the flow, the reference for the hosting test in
``oracle._admissible_methods``.  Both replay a flow's crossings on a
path's sites with ``replays_on``, which reads the flow's edges directly,
so neither shares ``oracle.extract`` or ``oracle.well_matched``.

``vpaths_by_join`` builds each truncated path as enumeration first did:
walk from the asserter to the target, then join every walk from the
entry to the asserter whose edge counts keep the whole within the bound.
It is the reference for ``enum_vpaths``, which cuts the entry's walks at
their last asserter call instead.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import replace
from itertools import permutations
from typing import Iterable, Sequence

from stackpol import pushdown
from stackpol.contexts import CallSite, CtxFamily, CtxSet
from stackpol.errors import CapacityError, EnumerationLimitError
from stackpol.model import (
    INTER_CALL,
    INTER_RETURN,
    CallEdge,
    ProgramModel,
    compute_phi_meth,
)
from stackpol.oracle import (
    DEFAULT_PATH_BOUND,
    CallPath,
    DepPath,
    _route_valid,
    enum_vpaths,
)
from stackpol.permissions import Permission, PermissionUniverse
from stackpol.pushdown import (
    _P,
    _QF,
    AnnotatedWPDS,
    ConditionalWPDS,
    Rule,
    StackSymbol,
    _TransKey,
)
from stackpol.weights import DEFAULT_TUPLE_CAP, ONE, ZERO, Weight, check_width

Stack = tuple[StackSymbol, ...]
# a stack whose every symbol is paired with the call sites strictly below it
PairStack = tuple[tuple[StackSymbol, CtxSet], ...]
CallString = tuple[CallSite, ...]

DEFAULT_CONCRETIZE_BOUND = 8


def abstract_ctx(string: Iterable[CallSite]) -> CtxSet:
    """Collapse a call string to the set of sites it visits."""
    return frozenset(string)


def abstract_ctx_set(strings: Iterable[Iterable[CallSite]]) -> CtxFamily:
    """Abstract each string separately; no member is dropped or merged."""
    return frozenset(abstract_ctx(s) for s in strings)


def concretize(
    family: Iterable[Iterable[CallSite]],
    max_sites: int = DEFAULT_CONCRETIZE_BOUND,
) -> frozenset[CallString]:
    """All repetition-free strings compatible with some family member.

    For each member set, emits every permutation of every subset.  The
    result is finite but factorial in the member size, hence the guard.
    """
    fam = frozenset(frozenset(c) for c in family)
    out: set[CallString] = set()
    for member in fam:
        if len(member) > max_sites:
            raise EnumerationLimitError(
                f"refusing to concretize a context with {len(member)} sites "
                f"(bound {max_sites})"
            )
        ordered = sorted(member)
        for k in range(len(ordered) + 1):
            out.update(permutations(ordered, k))
    return frozenset(out)


def ctx_leq(a: Iterable[CallSite], b: Iterable[CallSite]) -> bool:
    """String order: every site of ``a`` occurs somewhere in ``b``."""
    return frozenset(a) <= frozenset(b)


def set_leq(
    strings: Iterable[CallString], bigger: Iterable[CallString]
) -> bool:
    """Hoare lift of ``ctx_leq`` to sets of strings."""
    bigger_sets = [frozenset(t) for t in bigger]
    return all(
        any(frozenset(s) <= t for t in bigger_sets) for s in strings
    )


def family_leq(fam1: Iterable[CtxSet], fam2: Iterable[CtxSet]) -> bool:
    """Hoare lift of set inclusion to families: every member is covered."""
    f2 = list(fam2)
    return all(any(a <= b for b in f2) for a in fam1)


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
        if r.lhs == top and any(member <= below for member in r.cond)
    ]


def named_sites(system: ConditionalWPDS) -> CtxSet:
    return frozenset(
        site for r in system.rules for member in r.cond for site in member
    )


def relevant_sites(system: ConditionalWPDS) -> dict[StackSymbol, CtxSet]:
    leads_to: dict[StackSymbol, set[StackSymbol]] = defaultdict(set)
    own: dict[StackSymbol, set[CallSite]] = defaultdict(set)
    for r in system.rules:
        leads_to[r.lhs].update(r.rhs)
        for member in r.cond:
            own[r.lhs] |= member
    relevant = {}
    for sym in alphabet(system):
        seen, todo = {sym}, [sym]
        while todo:
            for nxt in leads_to[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        relevant[sym] = frozenset(site for s in seen for site in own[s])
    return relevant


def annotate_stack(stack: Stack, relevant: dict[StackSymbol, CtxSet]) -> PairStack:
    return tuple(
        (sym, stack_sites(stack[i + 1 :]) & relevant[sym])
        for i, sym in enumerate(stack)
    )


class GlobalAnnotatedWPDS:
    """``AnnotatedWPDS`` as first written: every symbol is paired with
    the sites below it that some rule condition names."""

    def __init__(self, system: ConditionalWPDS):
        self._by_lhs: dict[StackSymbol, list[tuple[int, Rule]]] = defaultdict(list)
        for idx, r in enumerate(system.rules):
            self._by_lhs[r.lhs].append((idx, r))
        self._named = named_sites(system)

    def instances(self, base: StackSymbol, below: CtxSet):
        out = []
        for idx, r in self._by_lhs.get(base, ()):
            if not any(member <= below for member in r.cond):
                continue
            if len(r.rhs) == 2:
                first, second = r.rhs
                covered = below | {second} if second in self._named else below
                rhs = ((first, covered), (second, below))
            else:
                rhs = tuple((sym, below) for sym in r.rhs)
            out.append((idx, rhs))
        return out


def reduced_successors(
    annotated: AnnotatedWPDS, stack: PairStack
) -> list[tuple[int, PairStack]]:
    """One-step rewrites of a paired stack in the unconditional view,
    as (index of the rule that fired, resulting paired stack)."""
    if not stack:
        return []
    (top, below), rest = stack[0], stack[1:]
    return [(idx, rhs + rest) for idx, rhs in annotated.instances(top, below)]


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


def movp_by_weights(
    system: ConditionalWPDS,
    targets: Iterable[StackSymbol],
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> Weight:
    """Meet over all paths from the start stack to any stack topped by a target."""
    wanted = set(targets)
    annotated = GlobalAnnotatedWPDS(system)
    trans: dict[_TransKey, Weight] = {}
    out_of: dict[int, list[_TransKey]] = defaultdict(list)
    eps: dict[int, Weight] = {}
    mids: dict[tuple[int, CtxSet], int] = {}
    worklist: deque[_TransKey] = deque()
    steps = 0

    def mid_state(rule_idx: int, ann: CtxSet) -> int:
        key = (rule_idx, ann)
        if key not in mids:
            mids[key] = 2 + len(mids)
        return mids[key]

    def update_trans(key: _TransKey, w: Weight) -> None:
        old = trans.get(key, ZERO)
        new = old.combine(w)
        if new != old:
            if key not in trans:
                out_of[key[0]].append(key)
            trans[key] = new
            worklist.append(key)

    def update_eps(q: int, w: Weight) -> None:
        old = eps.get(q, ZERO)
        new = old.combine(w)
        if new == old:
            return
        eps[q] = new
        # re-fold the excursion value into every continuation recorded under q
        for src, sym, ann, dst in list(out_of.get(q, ())):
            update_trans((_P, sym, ann, dst), trans[(src, sym, ann, dst)].extend(new))

    update_trans((_P, system.start, frozenset(), _QF), ONE)

    while worklist:
        steps += 1
        if steps > pushdown.MAX_STEPS:
            raise CapacityError(
                f"post* saturation did not stabilize within {pushdown.MAX_STEPS} steps"
            )
        key = worklist.popleft()
        src, sym, ann, dst = key
        d = trans[key]
        if src == _P:
            for rule_idx, rhs in annotated.instances(sym, ann):
                w = d.extend(system.rules[rule_idx].weight)
                if not rhs:
                    update_eps(dst, w)
                elif len(rhs) == 1:
                    ((top, top_below),) = rhs
                    update_trans((_P, top, top_below, dst), w)
                else:
                    (first, first_below), (second, second_below) = rhs
                    q_mid = mid_state(rule_idx, ann)
                    update_trans((_P, first, first_below, q_mid), ONE)
                    update_trans((q_mid, second, second_below, dst), w)
        else:
            e = eps.get(src)
            if e is not None:
                update_trans((_P, sym, ann, dst), d.extend(e))

    # value of completing the stack below a state, composed bottom-up
    reach: dict[int, Weight] = defaultdict(lambda: ZERO)
    reach[_QF] = ONE
    by_dst: dict[int, list[_TransKey]] = defaultdict(list)
    for key in trans:
        if key[0] != _P:
            by_dst[key[3]].append(key)
    pending = deque([_QF])
    while pending:
        q_done = pending.popleft()
        for key in by_dst[q_done]:
            src = key[0]
            cand = reach[src].combine(reach[q_done].extend(trans[key]))
            if cand != reach[src]:
                reach[src] = cand
                pending.append(src)

    # accumulate in one set; combining into a frozenset per transition is quadratic
    digests: set = set()
    for (src, sym, _ann, dst), w in trans.items():
        if src == _P and sym in wanted:
            digests |= reach[dst].extend(w).tuples
    result = Weight(frozenset(digests))
    check_width(result, tuple_cap)
    return result


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


def read_sites(universe: PermissionUniverse) -> CtxSet:
    read = {site for pairs in universe.sources.values() for site, _node in pairs}
    for family in universe.contexts.values():
        for ctx in family:
            read |= ctx
    return frozenset(read)


def route_universe(
    model: ProgramModel, universe: PermissionUniverse
) -> PermissionUniverse:
    # a form-3 permission has no target, and only form 3 makes one
    phi = compute_phi_meth(model)
    contexts = dict(universe.contexts)
    for p, pairs in universe.sources.items():
        if p.target is None:
            methods = {model.dep_nodes[node].method for _site, node in pairs}
            contexts[p] = frozenset(ctx for m in methods for ctx in phi[m])
    return replace(universe, contexts=contexts)


def phi_route_along(path: Sequence[CallEdge]) -> CtxFamily:
    """Context family of one call path: unions of one choice per edge."""
    for left, right in zip(path, path[1:]):
        if left.callee != right.caller:
            raise ValueError(
                f"path edges are not incident: {left.ident} then {right.ident}"
            )
    family: set[CtxSet] = {frozenset()}
    for e in path:
        family = {c | choice for c in family for choice in e.ctx}
    return frozenset(family)


def route_valid_by_family(edges) -> bool:
    sites = frozenset(e.site for e in edges)
    return any(c <= sites for c in phi_route_along(edges))


def replays_on(model: ProgramModel, pi: DepPath, opened: Iterable[CallSite]) -> bool:
    """Whether ``pi``'s crossings replay on a stack holding the ``opened``
    sites, the last one on top: a call edge pushes its source node's site,
    and a return edge must pop its target node's site."""
    stack = tuple(opened)
    for e in pi.edges:
        if e.inter == INTER_CALL:
            stack += (model.dep_nodes[e.src].site,)
        elif e.inter == INTER_RETURN:
            if stack[-1:] != (model.dep_nodes[e.dst].site,):
                return False
            stack = stack[:-1]
    return True


def match_paths(
    model: ProgramModel, pi: DepPath, bound: int = DEFAULT_PATH_BOUND
) -> list[CallPath]:
    """Valid paths to the flow's origin method that can host the flow.

    A path hosts ``pi`` when the flow's crossings replay well matched on
    the call sites the path opened: every value returned across a call
    boundary must return into a frame the path actually opened.
    """
    origin = model.dep_nodes[pi.start].method
    out = []
    for sigma in enum_vpaths(model, origin, bound):
        if any(
            replays_on(model, pi, (e.site for e in v))
            for v in sigma.full_variants()
        ):
            out.append(sigma)
    return out


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
        pi_methods = pi.methods(model)
        for sigma_p in vpath_cache[alloc_method]:
            allowed = pi_methods | sigma_p.methods() | {model.check_method}
            if not sigma_methods <= allowed:
                continue
            for variant in sigma_p.full_variants():
                if not replays_on(model, pi, (e.site for e in variant)):
                    continue
                variant_sites = frozenset(e.site for e in variant)
                if any(
                    c <= variant_sites for c in universe.contexts[perm]
                ):
                    return True
    return False


def _bounded_walks(model: ProgramModel, start: str, target: str, bound: int):
    out_edges = defaultdict(list)
    for e in model.call_edges:
        out_edges[e.caller].append(e)
    results = []
    path = []
    counts = Counter()

    def dfs(method: str) -> None:
        if method == target:
            results.append(tuple(path))
        for e in out_edges[method]:
            if counts[e.ident] < bound:
                counts[e.ident] += 1
                path.append(e)
                dfs(e.callee)
                path.pop()
                counts[e.ident] -= 1

    dfs(start)
    return results


def vpaths_by_join(model: ProgramModel, target: str, bound: int) -> list[CallPath]:
    entry, priv = model.entry_method, model.priv_method

    def key(edges):
        return tuple(e.ident for e in edges)

    full = [
        CallPath(entry, edges)
        for edges in _bounded_walks(model, entry, target, bound)
        if edges and all(e.caller != priv for e in edges) and _route_valid(edges)
    ]
    prefixes = _bounded_walks(model, entry, priv, bound)
    truncated = []
    for segment in _bounded_walks(model, priv, target, bound):
        if not segment or any(e.caller == priv for e in segment[1:]):
            continue
        counts = Counter(e.ident for e in segment)
        extensions = [
            prefix + segment
            for prefix in prefixes
            if all(counts[i] + n <= bound for i, n in Counter(key(prefix)).items())
            and _route_valid(prefix + segment)
        ]
        if extensions:
            truncated.append(
                CallPath(
                    priv,
                    segment,
                    truncated=True,
                    extensions=tuple(sorted(extensions, key=key)),
                )
            )
    full.sort(key=lambda p: key(p.edges))
    truncated.sort(key=lambda p: key(p.edges))
    return full + truncated
