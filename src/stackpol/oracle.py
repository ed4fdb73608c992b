"""Reference policy construction by explicit path enumeration.

This module recomputes policies without touching the pushdown encoding or
the weight domain, so the two pipelines can be diffed against each other.
Everything here is bounded brute force over the model's graphs:

* a *call path* is an incident edge sequence from the entry; it stands
  for a call stack, so edges that have already returned do not appear on
  it.  A path is *valid* when each edge's context holds on the sites
  below the edge, those of the edges before it, as a conditional
  pushdown rule's condition is read on the stack below its top.  Its
  ``cut`` is the index of the last edge that the privilege asserter
  makes, or 0 when it makes none: stack inspection stops at the asserted
  privilege, so the path's inspected methods are those of
  ``edges[cut:]``.
  Validity is decided during the walk, when an edge is appended, against
  a site -> count map of the edges below it.  An edge that fails fails on
  every extension of its prefix, which keeps the sites below it, so the
  prefix is pruned with all of them.  An unconditional edge always holds
  and is not tested.
* a *flow path* walks the dependency graph from an allocation to a
  checkpoint, tracking how the permission object travels.  Its word is
  the sequence of its ``inter=call|return`` crossings, each with its call
  site.  The word is replayed on the call stack that an allocating path
  would have built: a call pushes its site, and an interprocedural return
  may only pop the call site it actually returns to.

A permission relates to a call path reaching the check method when some
flow path carries it from one of its allocations to the demanding
checkpoint, some valid path reaches the allocation such that the flow's
word is well matched on it, the demand path's inspected methods stay
within the methods those witnesses put on the stack, and one of the
permission's demand contexts is covered by the witnessing route.  The
reference policy grants the permission to every inspected method of each
related path, minus the two system methods.  A permission can only
relate to a path whose checkpoint demands it, so each path is related
only to the permissions demanded at its own checkpoint, never to the
rest.

Enumeration counts each edge at most ``bound`` times per path, which
makes every enumeration finite while still letting paths wind through
cycles; a global cap guards against combinatorial blowups.  One walk
from the entry serves any number of targets: it yields the valid paths
of each, and the cap counts them, summed over all targets.  It descends
only into callees that can reach a target in the call graph.  A walk
that leaves them never arrives, so the pruning drops no path and leaves
the count the cap sees unchanged.  Walks keep their own stack of edge
iterators instead of recursing, so a deep call or dependency chain does
not run into Python's recursion limit.

Relating is memoized per run.  Whether an allocating stack can witness a
demand for a flow path and a permission does not depend on the demand
stack, so the first query of a (checkpoint, permission) pair builds its
*allowed* sets, the flow's methods together with a witness's, and every
query is one subset test per allowed set.  Witnesses that add the same
methods are hosted once: on a diamond ladder, all 2^n allocating stacks
share one method set and take one hosting test.

``oracle_policy`` makes one walk for the check method and for every
method that allocates a permission some flow delivers to one of its
sources, and seeds the memo with the latter's stacks.  ``relates`` reads
a demand stack only through its checkpoint and its methods, so each
distinct pair of them is related once, and its grants are unioned once.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from ._record import Record
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
from .policy import Frame, Policy, _model_policy

DEFAULT_PATH_BOUND = 2
MAX_ENUMERATED_PATHS = 200_000


class CallPath(Record):
    """A call stack as an edge sequence from ``start``, the entry.

    ``edges`` is empty only for the entry's one-frame stack.  ``cut`` is
    the index of the last edge that the privilege asserter makes, or 0
    when it makes none; the methods of ``edges[cut:]`` are the ones
    stack inspection reads.
    """

    # _methods is built once: ``relates`` reads it on every query and
    # allocating stack
    __slots__ = ("start", "edges", "cut", "_methods")
    _fields = ("start", "edges", "cut")

    def __init__(self, start: str, edges: tuple[CallEdge, ...], cut: int = 0) -> None:
        out = set() if cut else {start}
        for e in edges[cut:]:
            out.add(e.caller)
            out.add(e.callee)
        set_field = object.__setattr__
        set_field(self, "start", start)
        set_field(self, "edges", edges)
        set_field(self, "cut", cut)
        set_field(self, "_methods", frozenset(out))

    def methods(self) -> frozenset[str]:
        """The inspected methods: those of ``edges[cut:]``."""
        return self._methods


class DepPath(NamedTuple):
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


def _check_bound(bound: int) -> None:
    """Raise ``ValueError`` for a path bound below 1."""
    if bound < 1:
        raise ValueError("path bound must be at least 1")


def _bounded_walks(start, succ: dict, stops, bound: int):
    """Each walk from ``start`` that ends at a node in ``stops``, uses each
    edge at most ``bound`` times and passes every guard, as a tuple of
    edges, depth first.

    ``succ`` maps a node to its out-edges as ``(edge, number, next node,
    site, guard)`` tuples, in the order to try them; the number tells the
    edges apart for the count.  A guard other than ``None`` is a context
    family that must hold on the sites of the edges before it on the walk,
    kept as a site -> count map.  An edge that fails its guard fails on
    every extension too, so it is pruned with all of them.  The empty walk
    is never yielded.  Its callers reject a bound below 1 with
    ``_check_bound`` before any walk starts.
    """
    counts: dict[int, int] = {}
    below: dict = {}
    path: list = []
    numbers: list[int] = []
    sites: list = []
    stack = [iter(succ.get(start, ()))]
    while stack:
        for edge, number, nxt, site, guard in stack[-1]:
            used = counts.get(number, 0)
            if used < bound and (guard is None or holds(guard, below.keys())):
                path.append(edge)
                if nxt in stops:
                    yield tuple(path)
                out = succ.get(nxt)
                if out:
                    counts[number] = used + 1
                    numbers.append(number)
                    sites.append(site)
                    below[site] = below.get(site, 0) + 1
                    stack.append(iter(out))
                    break
                # a dead end: nothing to descend into, so no count to keep
                path.pop()
        else:
            stack.pop()
            if path:
                path.pop()
                counts[numbers.pop()] -= 1
                site = sites.pop()
                if below[site] == 1:
                    del below[site]
                else:
                    below[site] -= 1


def _walks(
    model: ProgramModel, targets: Sequence[str], bound: int
) -> list[tuple[CallEdge, ...]]:
    """Each valid walk from the entry to one of ``targets`` that uses each
    edge at most ``bound`` times, as a tuple of edges, from one walk that
    serves every target.  None is empty: no edge enters the entry, and its
    one-frame stack, which no edge sequence denotes, is added by
    ``_vpaths``.

    A conditional edge guards the walk with its context family.  The walk
    descends only into callees that can reach a target: one that leaves
    them never arrives, so this drops no walk.  The cap counts the walks
    yielded, summed over all targets, and its error names the first
    target, the one the walk is for.
    """
    _check_bound(bound)
    callers: dict[str, list[str]] = {}
    for e in model.call_edges:
        callers.setdefault(e.callee, []).append(e.caller)
    reach = set(targets)
    todo = list(reach)
    while todo:
        for caller in callers.get(todo.pop(), ()):
            if caller not in reach:
                reach.add(caller)
                todo.append(caller)
    succ: dict[str, list] = {}
    for i, e in enumerate(model.call_edges):
        if e.callee in reach:
            guard = None if e.unconditional else e.ctx
            succ.setdefault(e.caller, []).append((e, i, e.callee, e.site, guard))

    start = model.entry_method
    walks = _bounded_walks(start, succ, frozenset(targets), bound)
    results = list(islice(walks, MAX_ENUMERATED_PATHS + 1))
    if len(results) > MAX_ENUMERATED_PATHS:
        raise EnumerationLimitError(
            f"more than {MAX_ENUMERATED_PATHS} paths from "
            f"{start} to {targets[0]} at bound {bound}"
        )
    return results


def _ident_key(edges) -> tuple[str, ...]:
    return tuple(e.ident for e in edges)


def _vpaths(
    model: ProgramModel, targets: Sequence[str], bound: int = DEFAULT_PATH_BOUND
) -> dict[str, list[CallPath]]:
    """The valid call paths ending at each of ``targets``, as
    ``enum_vpaths`` lists them, from one walk from the entry."""
    entry, priv = model.entry_method, model.priv_method
    paths: dict[str, list[CallPath]] = {t: [] for t in targets}
    if entry in paths:
        paths[entry].append(CallPath(entry, ()))
    for edges in sorted(_walks(model, targets, bound), key=_ident_key):
        cut = len(edges) - 1
        while cut and edges[cut].caller != priv:
            cut -= 1
        paths[edges[-1].callee].append(CallPath(entry, edges, cut))
    return paths


def enum_vpaths(
    model: ProgramModel, target: str, bound: int = DEFAULT_PATH_BOUND
) -> list[CallPath]:
    """All valid call paths ending at ``target``, one per stack, sorted by
    edge idents.

    Each valid walk from the entry is one path, cut at its last call made
    by the privilege asserter.  The entry's list starts with its one-frame
    stack, the stack code in the entry runs on before any call.
    """
    return _vpaths(model, (target,), bound)[target]


def dep_paths(
    model: ProgramModel, bound: int = DEFAULT_PATH_BOUND
) -> list[DepPath]:
    """All flow paths from an allocation to a checkpoint-co-located node."""
    _check_bound(bound)
    targets = checkpoints(model)
    at_checkpoints = {
        ident for ident, n in model.dep_nodes.items() if n.site in targets
    }
    successors: dict[str, list] = {}
    for i, e in enumerate(model.dep_edges):
        successors.setdefault(e.src, []).append((e, i, e.dst, None, None))
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


def _hosts(stack: CallPath, word: tuple[Crossing, ...], contexts: CtxFamily) -> bool:
    """Can ``stack`` host a flow with crossing word ``word`` and cover one
    of ``contexts``?"""
    sites = [e.site for e in stack.edges]
    return well_matched(sites, word) and holds(contexts, frozenset(sites))


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
    invokes and some *admissible* allocating stack holds every inspected
    method of ``sigma`` that the flow and the check do not account for.
    A stack is admissible for a flow path and a permission when it hosts
    the flow (the crossing word is well matched on it) and covers one of
    the permission's demand contexts; that does not depend on ``sigma``.
    As ``sigma - F <= S`` exactly when ``sigma <= F | S``, the test is one
    subset test per *allowed* set: the methods ``F`` of such a flow path
    together with the inspected methods ``S`` of an admissible stack.

    ``vpath_cache`` is one run's memo, shared by every call for the same
    model, universe, flow paths and bound.  It holds the stacks of each
    allocating method and the allowed sets of each (checkpoint,
    permission) pair, each built by the first query that needs it unless
    the caller seeded it, as ``oracle_policy`` seeds the stacks.
    """
    if not sigma.edges or perm not in universe.sources:
        return False
    checkpoint = sigma.edges[-1].site
    allowed = vpath_cache.get((checkpoint, perm))
    if allowed is None:
        allowed = set()
        pairs, contexts = universe.sources[perm], universe.contexts[perm]
        for pi in flow_paths:
            # the flow must deliver the permission to the checkpoint this
            # very path invokes, not to some other checkpoint
            end_site = model.dep_nodes[pi.end].site
            if end_site != checkpoint or (checkpoint, pi.start) not in pairs:
                continue
            alloc_method = model.dep_nodes[pi.start].method
            stacks = vpath_cache.get(alloc_method)
            if stacks is None:
                stacks = vpath_cache[alloc_method] = enum_vpaths(
                    model, alloc_method, bound
                )
            word, flow_methods = extract(model, pi), pi.methods(model)
            for stack in stacks:
                # a union already allowed needs no second host
                methods = flow_methods | stack.methods()
                if methods not in allowed and _hosts(stack, word, contexts):
                    allowed.add(methods)
        vpath_cache[checkpoint, perm] = allowed
    need = sigma.methods() - {model.check_method}
    return any(need <= methods for methods in allowed)


def oracle_policy(
    model: ProgramModel,
    universe: PermissionUniverse,
    bound: int = DEFAULT_PATH_BOUND,
) -> Policy:
    """Reference policy: enumerate stacks, relate demands, union grants.

    One walk serves the check method and the allocating methods, whose
    stacks seed ``relates``' memo.  Each distinct checkpoint and method
    set of a demand stack is related once, and only to the permissions
    demanded at that checkpoint: ``relates`` is false for every other
    permission.
    """
    flow = dep_paths(model, bound)
    demanded: dict[CallSite, list[Permission]] = {}
    sources: set[tuple[CallSite, str]] = set()
    for perm in universe.sorted_perms():
        pairs = universe.sources.get(perm, frozenset())
        sources |= pairs
        for site in {site for site, _alloc in pairs}:
            demanded.setdefault(site, []).append(perm)
    nodes = model.dep_nodes
    allocating = {
        nodes[pi.start].method for pi in flow if (nodes[pi.end].site, pi.start) in sources
    }
    paths = _vpaths(model, [model.check_method, *allocating], bound)
    cache: dict = {method: paths[method] for method in allocating}
    system = frozenset({model.check_method, model.priv_method})
    shapes: dict[tuple[CallSite, frozenset[str]], CallPath] = {}
    for sigma in paths[model.check_method]:
        shapes.setdefault((sigma.edges[-1].site, sigma.methods()), sigma)
    grants: dict[str, set] = {}
    for (checkpoint, methods), sigma in shapes.items():
        perms = [
            perm
            for perm in demanded.get(checkpoint, ())
            if relates(model, sigma, perm, universe, flow, cache, bound)
        ]
        if perms:
            for method in methods - system:
                grants.setdefault(method, set()).update(perms)
    return _model_policy(model, grants)


def concrete_stack(model: ProgramModel, path: CallPath) -> tuple[Frame, ...]:
    """The runtime stack (top first) that ``path`` stands for: one frame
    per call on it, that of the caller, so the method it ends at is not a
    frame.  The frame of a method that called into the privilege asserter
    carries the privileged flag."""
    return tuple(
        Frame(e.caller, privileged=(e.callee == model.priv_method))
        for e in reversed(path.edges)
    )
