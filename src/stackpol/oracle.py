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
related path, and ``policy._model_policy`` withholds it from the two
system methods, as it does for the engine's policy.  A permission can only
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

Relating reads sets built once per run.  Whether an allocating stack
can witness a demand for a flow path and a permission does not depend on
the demand stack, so each (checkpoint, permission) pair has *allowed*
sets, the flow's methods together with a witness's, and ``relates`` is
one subset test per allowed set.  A witness whose set is already allowed
takes no hosting test: all 2^n allocating stacks of a diamond ladder
take one.

``oracle_policy`` builds those sets in one walk, for the check method and
for every method that allocates a permission some flow delivers to one
of its sources, and consumes it as it yields.  It hosts each allocating
stack at once into the allowed sets and drops it, and keeps a demand
stack only as its shape, its checkpoint and inspected methods, all that
``relates`` reads of it.  So each shape is related once, and no stack is
kept per route.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from .contexts import CallSite, holds
from .errors import EnumerationLimitError
from .model import ALLOC, INTER_CALL, INTER_RETURN, CallEdge, DepEdge, ProgramModel
from .permissions import Permission, PermissionUniverse, checkpoints
from .policy import Frame, Policy, _model_policy

DEFAULT_PATH_BOUND = 2
MAX_ENUMERATED_PATHS = 200_000


class CallPath(NamedTuple):
    """A call stack as an edge sequence from ``start``, the entry.

    ``edges`` is empty only for the entry's one-frame stack.  ``cut`` is
    the index of the last edge that the privilege asserter makes, or 0
    when it makes none; the methods of ``edges[cut:]`` are the ones
    stack inspection reads.
    """

    start: str
    edges: tuple[CallEdge, ...]
    cut: int = 0

    def methods(self) -> frozenset[str]:
        """The inspected methods: those of ``edges[cut:]``, built anew on
        every call."""
        return _inspected(self.start, self.edges, self.cut)


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
        nodes = model.dep_nodes
        return frozenset(nodes[n].method for e in self.edges for n in (e.src, e.dst))


# a flow path's interprocedural crossing: ``inter`` and its call site
Crossing = tuple[str, CallSite]
# a demand stack's shape: its checkpoint and its inspected methods
Shape = tuple[CallSite, frozenset[str]]
# per checkpoint, per permission demanded there, its allowed sets
Allowed = dict[CallSite, dict[Permission, set[frozenset[str]]]]


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


def _walks(model: ProgramModel, targets: Sequence[str], bound: int):
    """Each valid walk from the entry to one of ``targets`` that uses each
    edge at most ``bound`` times, as a tuple of edges, yielded by one walk
    that serves every target.  None is empty: no edge enters the entry,
    and its one-frame stack is left to the caller.

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
    yield from islice(walks, MAX_ENUMERATED_PATHS)
    if next(walks, None) is not None:
        raise EnumerationLimitError(
            f"more than {MAX_ENUMERATED_PATHS} paths from "
            f"{start} to {targets[0]} at bound {bound}"
        )


def _cut(edges: tuple[CallEdge, ...], priv: str) -> int:
    """The index of the last edge that ``priv`` makes, or 0."""
    callers = [e.caller for e in edges]
    return len(callers) - 1 - callers[::-1].index(priv) if priv in callers else 0


def _inspected(start: str, edges: tuple[CallEdge, ...], cut: int) -> frozenset[str]:
    """The methods of ``edges[cut:]``, a chain of calls from ``start``, or
    ``start`` alone when there are no edges."""
    if not edges:
        return frozenset((start,))
    return frozenset([*[e.caller for e in edges[cut:]], edges[-1].callee])


def enum_vpaths(
    model: ProgramModel, target: str, bound: int = DEFAULT_PATH_BOUND
) -> list[CallPath]:
    """All valid call paths ending at ``target``, one per stack, sorted by
    edge idents.

    Each valid walk from the entry is one path, cut at its last call made
    by the privilege asserter.  The entry's list starts with its one-frame
    stack, the stack code in the entry runs on before any call.
    """
    entry, priv = model.entry_method, model.priv_method
    walks = sorted(_walks(model, (target,), bound), key=lambda w: [e.ident for e in w])
    paths = [CallPath(entry, edges, _cut(edges, priv)) for edges in walks]
    return [CallPath(entry, ()), *paths] if target == entry else paths


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


def _deliveries(
    model: ProgramModel, universe: PermissionUniverse, flow_paths: list[DepPath]
) -> tuple[Allowed, dict[str, list]]:
    """An empty allowed set for each checkpoint and each permission
    demanded there, and, per allocating method, the flow paths that carry
    one of those permissions to that checkpoint, as (allowed set, crossing
    word, flow methods, demand contexts) tuples for ``_host``."""
    allowed: Allowed = {}
    for perm in universe.sorted_perms():
        for site, _alloc in universe.sources.get(perm, ()):
            allowed.setdefault(site, {}).setdefault(perm, set())
    nodes = model.dep_nodes
    out: dict[str, list] = {}
    for pi in flow_paths:
        checkpoint = nodes[pi.end].site
        sets = allowed.get(checkpoint, {})
        perms = [perm for perm in sets if (checkpoint, pi.start) in universe.sources[perm]]
        if perms:
            word, flow_methods = extract(model, pi), pi.methods(model)
            out.setdefault(nodes[pi.start].method, []).extend(
                (sets[perm], word, flow_methods, universe.contexts[perm]) for perm in perms
            )
    return allowed, out


def _host(deliveries: list, edges: tuple[CallEdge, ...], methods: frozenset[str]) -> None:
    """Add the flow's methods together with ``methods``, those the
    allocating stack ``edges`` inspects, to each delivery's allowed set if
    the stack hosts the flow and covers one of the demand contexts."""
    sites = [e.site for e in edges]
    for allowed, word, flow_methods, contexts in deliveries:
        union = flow_methods | methods
        # a union already allowed needs no second host
        if union not in allowed and well_matched(sites, word):
            if holds(contexts, frozenset(sites)):
                allowed.add(union)


def _shapes_and_allowed(
    model: ProgramModel, universe: PermissionUniverse, bound: int = DEFAULT_PATH_BOUND
) -> tuple[set[Shape], Allowed]:
    """The shape of every demand stack, and the allowed sets of every
    checkpoint and permission demanded there, from one walk.

    The walk serves the check method and every method that allocates a
    permission some flow delivers, and is consumed as it yields.  A stack
    that ends at the check method is kept as its shape, its checkpoint
    and inspected methods; one that ends at an allocating method is hosted
    at once into the allowed sets of the flows that deliver from it, and
    then dropped.
    """
    allowed, deliveries = _deliveries(model, universe, dep_paths(model, bound))
    entry, check, priv = model.entry_method, model.check_method, model.priv_method
    if entry in deliveries:
        _host(deliveries[entry], (), frozenset({entry}))
    shapes: set[Shape] = set()
    for edges in _walks(model, [check, *deliveries], bound):
        methods = _inspected(entry, edges, _cut(edges, priv))
        end = edges[-1]
        if end.callee == check:
            shapes.add((end.site, methods))
        if end.callee in deliveries:
            _host(deliveries[end.callee], edges, methods)
    return shapes, allowed


def relates(model: ProgramModel, shape: Shape, perm, allowed: Allowed) -> bool:
    """Does ``perm`` get demanded on a stack of ``shape``?

    ``shape`` is a demand stack's checkpoint and its inspected methods
    ``M``.  ``perm`` is demanded when a flow path carries it to the
    checkpoint and some *admissible* allocating stack holds every method
    of ``M`` that the flow and the check do not account for.  A stack is
    admissible for a flow path and a permission when it hosts the flow
    (the crossing word is well matched on it) and covers one of the
    permission's demand contexts; that does not depend on the demand
    stack.  As ``M - F <= S`` exactly when ``M <= F | S``, the test is one
    subset test per *allowed* set: the methods ``F`` of such a flow path
    together with the inspected methods ``S`` of an admissible stack.
    ``allowed`` maps each checkpoint and each permission demanded there to
    those sets, as ``oracle_policy``'s walk builds them; a pair it lacks
    relates to nothing.
    """
    checkpoint, methods = shape
    need = methods - {model.check_method}
    return any(need <= union for union in allowed.get(checkpoint, {}).get(perm, ()))


def oracle_policy(
    model: ProgramModel,
    universe: PermissionUniverse,
    bound: int = DEFAULT_PATH_BOUND,
) -> Policy:
    """Reference policy: enumerate stacks, relate demands, union grants.

    One walk gives the demand shapes and the allowed sets.  Each shape is
    related once, and only to the permissions demanded at its checkpoint:
    ``relates`` is false for every other permission.  A related shape
    grants its permissions to its inspected methods, and ``_model_policy``
    withholds them from the check method and the privilege asserter.
    """
    shapes, allowed = _shapes_and_allowed(model, universe, bound)
    grants: dict[str, set] = {}
    for shape in shapes:
        checkpoint, methods = shape
        perms = [
            perm
            for perm in allowed.get(checkpoint, ())
            if relates(model, shape, perm, allowed)
        ]
        if perms:
            for method in methods:
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
