"""Reference policy construction by explicit path enumeration.

This module recomputes policies without touching the pushdown encoding or
the weight domain, so the two pipelines can be diffed against each other.
Everything here is bounded brute force over the model's graphs:

* a *call path* is an incident edge sequence; it stands for a call stack,
  so edges that have already returned do not appear on it.  A path is
  *valid* when some choice of per-edge context alternatives is covered by
  the sites the path itself traverses (the route can self-support its
  contexts) and no edge is a call made by the privilege-asserting method.
  A *truncated* path starts at the privilege asserter instead of the
  entry: it stands for the stack segment above an asserted privilege.
  Its ``extensions`` are the route-valid walks from the entry whose last
  call made by the asserter starts that segment.
  Validity is decided edge by edge.  The path's context family holds
  the unions of one alternative per edge.  A union is covered exactly
  when each chosen alternative is, so some member of the family is
  covered exactly when every edge has an alternative covered by the
  path's sites.  That test is linear in the path length; the family
  itself can grow exponentially with it.
* a *flow path* walks the dependency graph from an allocation to a
  checkpoint, tracking how the permission object travels.  Its word is
  the sequence of its ``inter=call|return`` crossings, each with its call
  site.  The word is replayed on the call stack that an allocating path
  would have built: a call pushes its site, and an interprocedural return
  may only pop the call site it actually returns to.

A permission relates to a call path reaching the check method when some
flow path carries it from one of its allocations to the demanding
checkpoint, some valid path reaches the allocation such that the flow's
word is well matched on it, the demand path stays within the methods
those witnesses put on the stack, and one of the permission's demand
contexts is covered by the witnessing route.  The reference policy grants the
permission to every method on each related path, minus the two system
methods.

Enumeration counts each edge at most ``bound`` times per path, which
makes every enumeration finite while still letting paths wind through
cycles; a global cap guards against combinatorial blowups.  Each target
is enumerated by one walk from the entry, which yields the full paths and
the extensions of the truncated ones alike, so the cap counts that walk
alone.  It descends only into callees that can reach the target in the
call graph.  A walk that leaves them never arrives, so the pruning drops
no path and leaves the count the cap sees unchanged.  Walks keep their
own stack of edge iterators instead of recursing, so a deep call or
dependency chain does not run into Python's recursion limit.

Relating is memoized per run.  Whether an allocating stack can witness a
demand for a flow path and a permission does not depend on the demand
stack, so ``relates`` keeps the witnesses' method sets as it finds them
and searches further only when none of those answers a query.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

from .contexts import CallSite, CtxFamily, holds
from .errors import EnumerationLimitError
from .model import (
    ALLOC,
    INTER_CALL,
    INTER_RETURN,
    CallEdge,
    DepEdge,
    ProgramModel,
)
from .permissions import Permission, PermissionUniverse, checkpoints
from .policy import Frame, Policy, _method_domains

DEFAULT_PATH_BOUND = 2
MAX_ENUMERATED_PATHS = 200_000


@dataclass(frozen=True, slots=True)
class CallPath:
    """A call stack as an edge sequence from ``start``.

    ``edges`` may be empty only for the degenerate stack holding just the
    start method.  For truncated paths, ``extensions`` holds the full
    entry-rooted sequences that validate this segment.
    """

    start: str
    edges: tuple[CallEdge, ...]
    truncated: bool = False
    extensions: tuple[tuple[CallEdge, ...], ...] = ()
    # built once: ``relates`` asks for it once per pair of stacks
    _methods: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        out = {self.start}
        for e in self.edges:
            out.add(e.caller)
            out.add(e.callee)
        object.__setattr__(self, "_methods", frozenset(out))

    def methods(self) -> frozenset[str]:
        return self._methods

    def full_variants(self) -> tuple[tuple[CallEdge, ...], ...]:
        """Entry-rooted edge sequences this path stands for."""
        if self.truncated:
            return self.extensions
        return (self.edges,)


@dataclass(frozen=True, slots=True)
class DepPath:
    """A dependency-graph walk; never empty."""

    edges: tuple[DepEdge, ...]

    @property
    def start(self) -> str:
        return self.edges[0].src

    @property
    def end(self) -> str:
        return self.edges[-1].dst

    def methods(self, model: ProgramModel) -> frozenset[str]:
        out = set()
        for e in self.edges:
            out.add(model.dep_nodes[e.src].method)
            out.add(model.dep_nodes[e.dst].method)
        return frozenset(out)


# a flow path's interprocedural crossing: ``inter`` and its call site
Crossing = tuple[str, CallSite]


def well_matched(opened: Iterable[CallSite], word: Iterable[Crossing]) -> bool:
    """Replay ``word`` on a stack holding the ``opened`` sites, the last
    one on top: a call pushes its site, and a return must pop the very
    site it returns to.  Sites left on the stack are fine."""
    stack = list(opened)
    for inter, site in word:
        if inter == INTER_CALL:
            stack.append(site)
        elif not stack or stack.pop() != site:
            return False
    return True


def extract(model: ProgramModel, path: DepPath) -> tuple[Crossing, ...]:
    """The crossing word of a flow path: a call enters at its source's
    site, a return comes back to its target's."""
    word = []
    for e in path.edges:
        if e.inter == INTER_CALL:
            word.append((INTER_CALL, model.dep_nodes[e.src].site))
        elif e.inter == INTER_RETURN:
            word.append((INTER_RETURN, model.dep_nodes[e.dst].site))
    return tuple(word)


def _bounded_walks(start, succ: dict, stops, bound: int):
    """Each walk from ``start`` that ends at a node in ``stops`` and uses
    each edge at most ``bound`` times, as a tuple of edges, depth first.

    ``succ`` maps a node to its out-edges as ``(edge, number, next
    node)`` triples, in the order to try them; the number tells the
    edges apart for the count.  The empty walk is never yielded.
    """
    counts: dict[int, int] = {}
    path: list = []
    numbers: list[int] = []
    stack = [iter(succ.get(start, ()))]
    while stack:
        for edge, number, nxt in stack[-1]:
            used = counts.get(number, 0)
            if used < bound:
                path.append(edge)
                if nxt in stops:
                    yield tuple(path)
                out = succ.get(nxt)
                if out:
                    counts[number] = used + 1
                    numbers.append(number)
                    stack.append(iter(out))
                    break
                # a dead end: nothing to descend into, so no count to keep
                path.pop()
        else:
            stack.pop()
            if path:
                path.pop()
                counts[numbers.pop()] -= 1


def _walks(model: ProgramModel, target: str, bound: int) -> list[tuple[CallEdge, ...]]:
    """All edge sequences from the entry to ``target`` using each edge at
    most ``bound`` times, none of them empty: no edge enters the entry,
    and its one-frame stack, which no edge sequence denotes, is built by
    ``relates`` alone.

    The walk descends only into callees that can reach ``target``: one
    that leaves them never arrives, so this drops no sequence.
    """
    callers: dict[str, list[str]] = {}
    for e in model.call_edges:
        callers.setdefault(e.callee, []).append(e.caller)
    reach = {target}
    todo = [target]
    while todo:
        for caller in callers.get(todo.pop(), ()):
            if caller not in reach:
                reach.add(caller)
                todo.append(caller)
    succ: dict[str, list[tuple[CallEdge, int, str]]] = {}
    for i, e in enumerate(model.call_edges):
        if e.callee in reach:
            succ.setdefault(e.caller, []).append((e, i, e.callee))

    start = model.entry_method
    if start not in reach:
        return []
    walks = _bounded_walks(start, succ, {target}, bound)
    results = list(islice(walks, MAX_ENUMERATED_PATHS + 1))
    if len(results) > MAX_ENUMERATED_PATHS:
        raise EnumerationLimitError(
            f"more than {MAX_ENUMERATED_PATHS} paths from "
            f"{start} to {target} at bound {bound}"
        )
    return results


def _route_valid(edges) -> bool:
    """Is some union of one context alternative per edge covered by the
    path's own sites?  Decided edge by edge, without building the unions."""
    sites = frozenset(e.site for e in edges)
    return all(holds(e.ctx, sites) for e in edges)


def _ident_key(edges) -> tuple[str, ...]:
    return tuple(e.ident for e in edges)


def enum_vpaths(
    model: ProgramModel, target: str, bound: int = DEFAULT_PATH_BOUND
) -> list[CallPath]:
    """All valid call paths ending at ``target``: the full ones, then the
    truncated ones, each sorted by edge idents.

    Every route-valid walk from the entry is a full path when the
    privilege asserter makes none of its calls.  Otherwise it extends the
    truncated path that starts at its last call made by the asserter.
    """
    if bound < 1:
        raise ValueError("path bound must be at least 1")
    priv = model.priv_method
    full = []
    segments: dict[tuple[CallEdge, ...], list[tuple[CallEdge, ...]]] = {}
    for edges in _walks(model, target, bound):
        if not _route_valid(edges):
            continue
        cut = len(edges)
        while cut and edges[cut - 1].caller != priv:
            cut -= 1
        if not cut:
            full.append(CallPath(model.entry_method, edges))
            continue
        segments.setdefault(edges[cut - 1 :], []).append(edges)

    full.sort(key=lambda p: _ident_key(p.edges))
    truncated = [
        CallPath(
            priv,
            segment,
            truncated=True,
            extensions=tuple(sorted(extensions, key=_ident_key)),
        )
        for segment, extensions in sorted(segments.items(), key=lambda s: _ident_key(s[0]))
    ]
    return full + truncated


def dep_paths(
    model: ProgramModel, bound: int = DEFAULT_PATH_BOUND
) -> list[DepPath]:
    """All flow paths from an allocation to a checkpoint-co-located node."""
    targets = checkpoints(model)
    at_checkpoints = {
        ident for ident, n in model.dep_nodes.items() if n.site in targets
    }
    successors: dict[str, list[tuple[DepEdge, int, str]]] = {}
    for i, e in enumerate(model.dep_edges):
        successors.setdefault(e.src, []).append((e, i, e.dst))
    allocs = sorted(
        ident for ident, n in model.dep_nodes.items() if n.kind == ALLOC
    )
    results: list[DepPath] = []
    for alloc in allocs:
        walks = _bounded_walks(alloc, successors, at_checkpoints, bound)
        results.extend(
            map(DepPath, islice(walks, MAX_ENUMERATED_PATHS + 1 - len(results)))
        )
        if len(results) > MAX_ENUMERATED_PATHS:
            raise EnumerationLimitError(
                f"more than {MAX_ENUMERATED_PATHS} flow paths at bound {bound}"
            )
    return results


@dataclass(slots=True)
class _Flow:
    """What ``relates`` reads of one flow path, worked out once per run,
    and per permission the lazy search for admissible allocating stacks:
    the distinct method sets found so far and the rest of the stacks."""

    start: str
    alloc_method: str
    word: tuple[Crossing, ...]
    methods: frozenset[str]
    admissible: dict[Permission, tuple[set[frozenset[str]], Iterator[frozenset[str]]]] = (
        field(default_factory=dict)
    )


# memo key of the flow paths indexed by end site; the memo's other keys are
# allocating methods (their valid paths) and flow paths (their ``_Flow``)
_BY_END = object()


def _flows_by_end(
    model: ProgramModel, flow_paths: list[DepPath], memo: dict
) -> dict[CallSite, list[_Flow]]:
    indexed = memo.get(_BY_END)
    if indexed is None or indexed[0] is not flow_paths:
        by_end: dict[CallSite, list[_Flow]] = defaultdict(list)
        for pi in flow_paths:
            flow = memo.get(pi)
            if flow is None:
                flow = memo[pi] = _Flow(
                    pi.start,
                    model.dep_nodes[pi.start].method,
                    extract(model, pi),
                    pi.methods(model),
                )
            by_end[model.dep_nodes[pi.end].site].append(flow)
        indexed = memo[_BY_END] = (flow_paths, by_end)
    return indexed[1]


def _admissible_methods(
    stacks: list[CallPath], word: tuple[Crossing, ...], contexts: CtxFamily
) -> Iterator[frozenset[str]]:
    """Method sets of the stacks that can host a flow with crossing word
    ``word`` and cover one of ``contexts``, in stack order."""
    for sigma_p in stacks:
        for variant in sigma_p.full_variants():
            if not well_matched((e.site for e in variant), word):
                continue
            if holds(contexts, frozenset(e.site for e in variant)):
                yield sigma_p.methods()
                break


def relates(
    model: ProgramModel,
    sigma: CallPath,
    perm,
    universe: PermissionUniverse,
    flow_paths: list[DepPath],
    vpath_cache: dict,
    bound: int = DEFAULT_PATH_BOUND,
) -> bool:
    """Does ``perm`` get demanded while ``sigma`` is the inspected stack?

    It does when a flow path carries ``perm`` to the checkpoint ``sigma``
    invokes and some *admissible* allocating stack holds every method of
    ``sigma`` that the flow and the check do not account for.  A stack is
    admissible for a flow path and a permission when one of its variants
    hosts the flow (the crossing word is well matched on it) and covers
    one of the permission's demand contexts; that does not depend on
    ``sigma``.

    ``vpath_cache`` is one run's memo, shared by every call for the same
    model, universe and bound.  It holds the valid paths of each
    allocating method, the flow paths indexed by end site, and per
    (flow path, permission) the distinct method sets of the admissible
    stacks found so far with a cursor into the remaining stacks.  A query
    tests the sets found so far and only then advances the cursor,
    stopping at the first stack that answers it.
    """
    pairs = universe.sources.get(perm, frozenset())
    if not pairs or not sigma.edges:
        return False
    checkpoint = sigma.edges[-1].site
    sigma_methods = sigma.methods() - {model.check_method}
    # the flow must deliver the permission to the checkpoint this very
    # path invokes, not to some other checkpoint of the same method set
    for flow in _flows_by_end(model, flow_paths, vpath_cache).get(checkpoint, ()):
        if (checkpoint, flow.start) not in pairs:
            continue
        alloc_method = flow.alloc_method
        if alloc_method not in vpath_cache:
            paths = enum_vpaths(model, alloc_method, bound)
            if alloc_method == model.entry_method:
                # code in the entry method runs on the one-frame stack,
                # which no edge sequence denotes; synthesize it
                paths = paths + [CallPath(alloc_method, ())]
            vpath_cache[alloc_method] = paths
        state = flow.admissible.get(perm)
        if state is None:
            pending = _admissible_methods(
                vpath_cache[alloc_method], flow.word, universe.contexts[perm]
            )
            state = flow.admissible[perm] = (set(), pending)
        found, pending = state
        # the demand stack may only hold methods that the flow, the check
        # or the allocating stack put there
        need = sigma_methods - flow.methods
        if any(need <= methods for methods in found):
            return True
        for methods in pending:
            found.add(methods)
            if need <= methods:
                return True
    return False


def oracle_policy(
    model: ProgramModel,
    universe: PermissionUniverse,
    bound: int = DEFAULT_PATH_BOUND,
) -> Policy:
    """Reference policy: enumerate stacks, relate demands, union grants."""
    flow = dep_paths(model, bound)
    cache: dict = {}
    hidden = frozenset({model.check_method, model.priv_method})
    perms = universe.sorted_perms()
    grants: dict[str, set] = {}
    for sigma in enum_vpaths(model, model.check_method, bound):
        for perm in perms:
            if relates(model, sigma, perm, universe, flow, cache, bound):
                for method in sigma.methods() - hidden:
                    grants.setdefault(method, set()).add(perm)
    return Policy(
        grants={m: frozenset(ps) for m, ps in grants.items()},
        method_domains=_method_domains(model),
        system_methods=hidden,
    )


def concrete_stacks(model: ProgramModel, path: CallPath) -> list[tuple[Frame, ...]]:
    """Runtime stacks (top first) that ``path`` stands for.

    The frame of a method that called into the privilege asserter carries
    the privileged flag.  A truncated path yields its bare segment plus
    one stack per validating extension.
    """

    def stack_of(edges) -> tuple[Frame, ...]:
        return tuple(
            Frame(e.caller, privileged=(e.callee == model.priv_method))
            for e in reversed(edges)
        )

    stacks = [stack_of(path.edges)]
    if path.truncated:
        stacks.extend(stack_of(ext) for ext in path.extensions)
    return stacks
