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
``AnnotatedWPDS`` view instead, so tests can check that the two agree;
``instances_by_sets`` translates between the sets of sites that the
pair stacks hold and the view's int masks.
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
state per pushed pair, shared by every push of that pair.  It also keeps
pops in a side table ``eps`` that it re-folds eagerly, where ``movp``
adds each pop as an epsilon-transition and closes it from the worklist.
The meet over all paths is the same either way, so agreement checks the
sharing and the epsilon closure as well as the packing and the
projection.

A rule carries one digest; ``one_digest`` makes it the one-digest
``Weight`` that these references extend by.  ``merged`` is the quotient
that ``movp`` keeps its weights in: digests that share ``(kill,
finished, history)`` become one with the union of their ``gen``s.  The
references do not merge, so ``movp``'s result is the ``merged`` of
theirs.  ``fold_weights`` composes
a sequence of rule digests left to right, giving an independent
path-digest reference for single runs.

``grants_by_scan`` extracts grants from a solved weight by testing every
digest against every permission and demand context, the reference for
``generate_policy``'s indexed extraction.  ``checkpoint_reads`` maps
each checkpoint that permissions originate from to what a grant there
reads: the checkpoint and the sites of the demand contexts of the
permissions it sources.  ``read_sites``, their union, is the set of
call sites that extraction reads.  ``projected`` is the reference for
``movp``'s ``reads``: it cuts each digest's history to the union of the
reads, then to the reads of the checkpoints left in it, and merges the
result.  Where each push records its own site and a history holds one
checkpoint, the one that pushed the check method, that is the digest
set the cut solve must return; it is computed from the exact solve,
digest by digest, with no automaton.  Where the per-checkpoint cut
would not be exact, ``movp`` keeps the union cut alone, which is
``projected`` under a map that gives every checkpoint the union.
``route_universe`` gives each form-3 permission its allocating methods'
route contexts as the demand family, the family form 3 had before its
singletons; scanning the exact solve under it is the reference that the
singletons and the cut must reproduce.

``phi_meth_by_bfs`` is ``compute_phi_meth`` as first written, one
worklist entry per route.  ``phi_meth_by_sets`` is it as it was before
its routes became int masks, one frozenset per route in the same
discovery order, and ``lint_by_subsets`` is ``lint_model`` testing
contexts against those frozensets by inclusion.

``phi_route_along`` is the context family of one call path: the unions
of one alternative per edge.  A path is route-valid when each edge's
context holds on the sites of the edges before it, the sites below the
edge on the stack.  ``route_valid_by_choices`` decides that by trying
every choice of one alternative per edge, and ``route_valid_below``
edge by edge; they are the references for the guards of the oracle's
walk.  ``relates_by_scan`` is the oracle's relation test as first
written: it rebuilds both stacks' method sets for every pair of stacks,
the reference for ``oracle.relates``.  ``grants_by_pairs`` is the
oracle's grant loop as first written: it relates every valid stack to
every permission with ``relates_by_scan``, the reference for
``oracle_policy``, which relates each distinct checkpoint and method set
once, and only to the permissions demanded at that checkpoint.
``match_paths`` lists the valid paths to a flow's
origin that can host the flow, the reference for the hosting test in
``oracle._host``.  Both replay a flow's crossings on a
path's sites with ``replays_on``, which reads the flow's edges directly,
so neither shares ``oracle.extract`` or ``oracle.well_matched``.

``vpaths_by_join`` builds each path through the privilege asserter as
enumeration first did: walk from the asserter to the target, then join
every walk from the entry to the asserter whose edge counts keep the
whole within the bound.  Each joined walk is one path whose ``cut`` is
the length of its prefix, where the segment's first edge, the last call
the asserter makes, starts.  A walk on which the asserter makes no call
is a path with cut 0, and the entry's empty walk is its one-frame stack.
It tests validity with ``route_valid_below`` on each whole walk.  It is
the reference for ``enum_vpaths``, which cuts each of the entry's walks
at its last asserter call instead and prunes a walk at its first
failing edge.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from itertools import permutations, product
from typing import Iterable, Sequence

from stackpol import pushdown
from stackpol.contexts import (
    ANY_FAMILY,
    CallSite,
    CtxFamily,
    CtxSet,
    format_ctx,
    format_family,
)
from stackpol.errors import EnumerationLimitError
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
    dep_paths,
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
from stackpol.weights import (
    DEFAULT_TUPLE_CAP,
    ONE,
    ZERO,
    Weight,
    WeightTuple,
    check_width,
)

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


def instances_by_sets(
    annotated: AnnotatedWPDS, base: StackSymbol, below: CtxSet
) -> list[tuple[int, PairStack]]:
    """``annotated.instances`` with each sites-below set given and returned
    as a set of call sites, through the view's ``site_bit``; a site the
    view does not number is a ``KeyError``."""
    bit = annotated.site_bit
    names = list(bit)

    def sites(mask: int) -> CtxSet:
        return frozenset(names[i] for i in range(mask.bit_length()) if mask >> i & 1)

    mask = sum(bit[site] for site in below)
    return [
        (idx, tuple((sym, sites(m)) for sym, m in rhs))
        for idx, rhs in annotated.instances(base, mask)
    ]


def reduced_successors(
    annotated: AnnotatedWPDS, stack: PairStack
) -> list[tuple[int, PairStack]]:
    """One-step rewrites of a paired stack in the unconditional view,
    as (index of the rule that fired, resulting paired stack)."""
    if not stack:
        return []
    (top, below), rest = stack[0], stack[1:]
    return [(idx, rhs + rest) for idx, rhs in instances_by_sets(annotated, top, below)]


def one_digest(digest: WeightTuple) -> Weight:
    return Weight(frozenset({digest}))


def merged(weight: Weight) -> Weight:
    """``weight`` with the digests that share ``(kill, finished, history)``
    made one, whose ``gen`` is the union of theirs: the quotient that
    ``movp`` saturates in."""
    gens: dict[tuple, frozenset[str]] = {}
    for t in weight.tuples:
        key = (t.kill, t.finished, t.history)
        gens[key] = gens.get(key, frozenset()) | t.gen
    return Weight(
        frozenset(
            WeightTuple(kill, gen, finished, history)
            for (kill, finished, history), gen in gens.items()
        )
    )


def fold_weights(digests) -> Weight:
    total = ONE
    for digest in digests:
        total = total.extend(one_digest(digest))
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
                nw = w.extend(one_digest(rule.weight))
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
    rule_weights = [one_digest(r.weight) for r in system.rules]
    trans: dict[_TransKey, Weight] = {}
    out_of: dict[int, list[_TransKey]] = defaultdict(list)
    eps: dict[int, Weight] = {}
    mids: dict[tuple[int, CtxSet], int] = {}
    worklist: deque[_TransKey] = deque()
    # movp's budget, spent on this solver's own pops and digest pairs
    work = 0

    def spend(units: int) -> None:
        nonlocal work
        work = pushdown._spend(work, units)

    def seq(left: Weight, right: Weight) -> Weight:
        spend(left.width() * right.width())
        return left.extend(right)

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
            update_trans((_P, sym, ann, dst), seq(trans[(src, sym, ann, dst)], new))

    update_trans((_P, system.start, frozenset(), _QF), ONE)

    while worklist:
        spend(1)
        key = worklist.popleft()
        src, sym, ann, dst = key
        d = trans[key]
        if src == _P:
            for rule_idx, rhs in annotated.instances(sym, ann):
                w = seq(d, rule_weights[rule_idx])
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
                update_trans((_P, sym, ann, dst), seq(d, e))

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
            cand = reach[src].combine(seq(reach[q_done], trans[key]))
            if cand != reach[src]:
                reach[src] = cand
                pending.append(src)

    # accumulate in one set; combining into a frozenset per transition is quadratic
    digests: set = set()
    for (src, sym, _ann, dst), w in trans.items():
        if src == _P and sym in wanted:
            digests |= seq(reach[dst], w).tuples
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


def checkpoint_reads(universe: PermissionUniverse) -> dict[CallSite, CtxSet]:
    reads: dict[CallSite, set[CallSite]] = {}
    for p, pairs in universe.sources.items():
        for site, _node in pairs:
            sites = reads.setdefault(site, {site})
            for ctx in universe.contexts[p]:
                sites |= ctx
    return {site: frozenset(sites) for site, sites in reads.items()}


def read_sites(universe: PermissionUniverse) -> CtxSet:
    return frozenset().union(*checkpoint_reads(universe).values())


def projected(weight: Weight, reads: dict[CallSite, CtxSet]) -> Weight:
    """``weight`` with each digest's history cut to the union of the
    reads, then to the reads of the checkpoints left in it, if any, and
    ``merged``."""
    union = frozenset().union(*reads.values())
    cut = set()
    for d in weight.tuples:
        history = d.history & union
        named = [reads[site] for site in history if site in reads]
        if named:
            history &= frozenset().union(*named)
        cut.add(d._replace(history=history))
    return merged(Weight(frozenset(cut)))


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
    return universe._replace(contexts=contexts)


def phi_meth_by_bfs(model: ProgramModel) -> dict[str, CtxFamily]:
    """Route contexts per method as first computed: a breadth-first search
    over ``(method, route)`` pairs from ``(entry, {})``, the reference for
    ``compute_phi_meth``, which extends each method's new routes as one
    batch and has a route budget."""
    out_edges: dict[str, list[CallEdge]] = defaultdict(list)
    for e in model.call_edges:
        out_edges[e.caller].append(e)
    fam: dict[str, set[CtxSet]] = {name: set() for name in model.methods}
    start: CtxSet = frozenset()
    fam[model.entry_method].add(start)
    worklist: deque[tuple[str, CtxSet]] = deque([(model.entry_method, start)])
    while worklist:
        method, ctx = worklist.popleft()
        for e in out_edges[method]:
            grown = ctx | {e.site}
            if grown not in fam[e.callee]:
                fam[e.callee].add(grown)
                worklist.append((e.callee, grown))
    return {name: frozenset(members) for name, members in fam.items()}


def phi_meth_by_sets(model: ProgramModel) -> dict[str, CtxFamily]:
    """Route contexts per method as ``compute_phi_meth`` built them before
    its routes were int masks: the same oldest-first batches and out-edge
    order, one frozenset per route and no route budget.  It is the
    reference for the decoded families and for their iteration order."""
    out_edges: dict[str, list[tuple[str, CtxSet]]] = {name: [] for name in model.methods}
    for e in model.call_edges:
        out_edges[e.caller].append((e.callee, frozenset((e.site,))))
    fam: dict[str, set[CtxSet]] = {name: set() for name in model.methods}
    start: CtxSet = frozenset()
    fam[model.entry_method].add(start)
    pending: dict[str, list[CtxSet]] = {model.entry_method: [start]}
    while pending:
        method = next(iter(pending))
        batch = pending.pop(method)
        for callee, site in out_edges[method]:
            members = fam[callee]
            gained = pending.setdefault(callee, [])
            for ctx in batch:
                grown = ctx | site
                if grown not in members:
                    members.add(grown)
                    gained.append(grown)
            if not gained:
                del pending[callee]
    return {name: frozenset(members) for name, members in fam.items()}


def lint_by_subsets(model: ProgramModel) -> list[str]:
    """``lint_model`` with its cover test on frozensets: a context is
    covered when it is a subset of one of ``phi_meth_by_sets``' routes."""
    phi = phi_meth_by_sets(model)

    def covered(ctx: CtxSet, method: str) -> bool:
        return any(ctx <= r for r in phi[method])

    warnings = []
    for e in model.call_edges:
        if e.ctx == ANY_FAMILY:
            continue
        dead = [c for c in e.ctx if not covered(c, e.caller)]
        if dead:
            warnings.append(
                f"dead-edge: calledge {e.ident}: no route to {e.caller} covers "
                f"{format_family(frozenset(dead))}"
            )
    for label, facts in (("pta", model.pta), ("sa", model.sa)):
        for (var, method), entries in facts.items():
            for entry in entries:
                if not covered(entry.ctx, method):
                    warnings.append(
                        f"dead-fact: {label} {var}@{method}: no route to {method} "
                        f"covers {{{format_ctx(entry.ctx)}}}"
                    )
    return warnings


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


def route_valid_by_choices(edges: Sequence[CallEdge]) -> bool:
    below = [frozenset(e.site for e in edges[:i]) for i in range(len(edges))]
    return any(
        all(c <= sites for c, sites in zip(choice, below))
        for choice in product(*(e.ctx for e in edges))
    )


def route_valid_below(edges: Sequence[CallEdge]) -> bool:
    return all(
        any(c <= {e.site for e in edges[:i]} for c in edge.ctx)
        for i, edge in enumerate(edges)
    )


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
    return [
        sigma
        for sigma in enum_vpaths(model, origin, bound)
        if replays_on(model, pi, (e.site for e in sigma.edges))
    ]


def relates_by_scan(
    model: ProgramModel,
    sigma: CallPath,
    perm,
    universe: PermissionUniverse,
    flow_paths: list[DepPath],
    vpath_cache: dict[str, list[tuple[CallPath, frozenset[str]]]],
    bound: int = DEFAULT_PATH_BOUND,
) -> bool:
    """Whether ``sigma`` relates to ``perm``, scanning every allocating
    stack; ``vpath_cache`` keeps each allocating method's stacks, each with
    its inspected methods, across calls."""
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
            vpath_cache[alloc_method] = [
                (p, p.methods()) for p in enum_vpaths(model, alloc_method, bound)
            ]
        pi_methods = pi.methods(model)
        for sigma_p, sigma_p_methods in vpath_cache[alloc_method]:
            allowed = pi_methods | sigma_p_methods | {model.check_method}
            if not sigma_methods <= allowed:
                continue
            if not replays_on(model, pi, (e.site for e in sigma_p.edges)):
                continue
            sites = frozenset(e.site for e in sigma_p.edges)
            if any(c <= sites for c in universe.contexts[perm]):
                return True
    return False


def grants_by_pairs(
    model: ProgramModel,
    universe: PermissionUniverse,
    bound: int = DEFAULT_PATH_BOUND,
) -> dict[str, frozenset[Permission]]:
    flows = dep_paths(model, bound)
    cache: dict[str, list[tuple[CallPath, frozenset[str]]]] = {}
    hidden = {model.check_method, model.priv_method}
    grants: dict[str, set[Permission]] = {}
    for sigma in enum_vpaths(model, model.check_method, bound):
        granted = sigma.methods() - hidden
        for perm in universe.sorted_perms():
            if relates_by_scan(model, sigma, perm, universe, flows, cache, bound):
                for method in granted:
                    grants.setdefault(method, set()).add(perm)
    return {m: frozenset(ps) for m, ps in grants.items()}


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

    def key(path):
        return tuple(e.ident for e in path.edges)

    paths = [
        CallPath(entry, edges)
        for edges in _bounded_walks(model, entry, target, bound)
        if all(e.caller != priv for e in edges) and route_valid_below(edges)
    ]
    prefixes = [
        (prefix, Counter(e.ident for e in prefix))
        for prefix in _bounded_walks(model, entry, priv, bound)
    ]
    for segment in _bounded_walks(model, priv, target, bound):
        if not segment or any(e.caller == priv for e in segment[1:]):
            continue
        counts = Counter(e.ident for e in segment)
        paths += [
            CallPath(entry, prefix + segment, len(prefix))
            for prefix, used in prefixes
            if all(counts[i] + n <= bound for i, n in used.items())
            and route_valid_below(prefix + segment)
        ]
    return sorted(paths, key=key)
