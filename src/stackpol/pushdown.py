"""Conditional weighted pushdown systems and a meet-over-all-paths solver.

Stack symbols are method names (``str``) or call sites (``CallSite``); a
configuration is a stack written top-first.  Every rule rewrites the top
symbol and carries two extras beyond a plain pushdown rule:

* a *condition* on the stack **below** the top, a context family: the
  rule fires only when some member of the family is contained in the set
  of call sites sitting under the current top (``contexts.holds``);
* a *weight*, one digest of the path-digest semiring (a ``WeightTuple``),
  picked up when the rule fires.

``movp(system, targets)`` returns the combine over all rule paths from the
one-symbol start configuration to any configuration whose top matches
``targets``, of the extend-product of the weights along the path, as a
``PackedWeight`` whose digests are merged on ``(kill, finished,
history)`` (see ``weights``).

Conditions are compiled away rather than interpreted: ``AnnotatedWPDS``
views the system over pairs ``(symbol, sites_below)``, where the second
part is the set of call sites below the symbol on the stack that are
*relevant* to it.  The sites relevant to X are those named by the
conditions of X's own rules and, recursively, those relevant to every
symbol on the right-hand sides of X's rules, so every site that a
condition can read while X stays on the stack is among them.  A push
``X -> Y s`` gives Y the relevant part of the sites below X plus ``s``,
and gives ``s`` the part relevant to ``s``; a swap projects onto the new
top; a pop uncovers the symbol underneath together with its recorded
set.  The sites relevant to a right-hand symbol are among those relevant
to X, so each projection is computed from X's own pair.  A condition
only asks whether one of its members is a subset of the sites below, and
every member lies inside the sites relevant to the rule's left-hand
side, so the projection decides each condition exactly as the full set
would.  The view numbers the sites that conditions name, once per
solve, and every one of these sets is an int mask over that numbering:
a condition holds when ``member & ~below`` is 0 for one of its members,
and a projection is ``(below | pushed) & relevant``.  Rule
applicability is then a plain lookup on the pair, and the solver is an
ordinary weighted post* saturation over such pairs.  Stacks that differ
only in sites no later condition reads share their pairs, so on a
ladder whose every level is guarded by the level above, each symbol has
at most two annotations instead of one per route to it.

The saturation runs on packed, merged digests (see ``weights``): once
per solve, one ``Packing`` packs each rule's digest into a one-entry
merged weight ``{key: gen}``, and names get bits in the order the rules
first name them.  A transition's weight is such a dict.  Digests that
share ``(kill, finished, history)`` are one entry whose ``gen`` is the
union of theirs, so a transition keeps one digest per distinct key
however many routes reach it; ``weights`` proves that the merge changes
no grant.  Sequencing is a handful of int operations per pair, and an
update ORs into the stored dict in place and re-queues the transition
only when a key or a ``gen`` bit is new.  The final union is returned
as it is, with the packing that names its bits; ``PackedWeight.decode``
gives the merged ``Weight``, and nothing on the analyze path calls it.
``tuple_cap`` counts merged digests.

The work is bounded, not only the result: a solve spends one unit of
``WORK_BUDGET`` per worklist pop and one per digest pair it sequences,
and raises ``CapacityError`` when the budget runs out.  Every digest of
a weight came from a pair already spent, so a rule's one-digest product
is checked at the next pop; a fold of two weights can pair far more
digests than all the work before it, so it is checked before it is
formed.

The automaton is the textbook one of weighted post* (Reps, Schwoon, Jha
and Melski, SCP 2005; Schwoon's thesis, 2002): besides the control
location and the final state, a push opens one state per pushed pair
``(symbol, sites_below)``, and the state is named by that pair.  So every
push of one pair shares one frame, and a method called from k sites with
one annotation has its rules instantiated and saturated once, not k
times.  A pop is an epsilon-transition into the state it uncovers, kept in
the same relation, and the worklist composes it with every transition out
of that state, whichever of the two is found first.

Weight bookkeeping follows a tail-weighting discipline: the transition
created for the *first* symbol of a push carries the semiring unit, and
the accumulated path weight rides on the transition for the *second*
symbol.  Reading an accepting run back-to-front therefore reproduces path
order, and prefix weights from unrelated derivations never cross-multiply:
each caller of a shared frame keeps its own continuation transition out
of the frame's state.

The result is read off the saturated automaton bottom-up, as the post*
read-out of Reps et al. does, from the control location: ``reach[q]``
combines, over the paths of transitions from state ``q`` down to the
final state, the products of their weights, bottom first, and the
paths from the control location start with a transition that reads a
target.  The result is ``reach`` of the control location.  The
read-out follows one condensation order: one iterative pass of
Tarjan's algorithm (SIAM J. Comput. 1972) lists the strongly connected
components of the states below the control location, each after every
component below it, and the control location's own component, which no
transition enters, last.  ``reach`` is the least solution of a
monotone system of equations, one per state, and no equation reads a
state of a component above its own, so solving the components in
this order gives the same least solution as solving all at once.  A
state is computed once, from the complete ``reach`` of the states
below it.  A cyclic component, which recursion makes, is folded until
none of its states grows, each round visiting them in the order
Tarjan's search finished them: only the search's back edges lead to a
state the round has not visited yet, so a ring of n frames settles in
4 rounds of n products.  The masks are fixed before ``reach`` starts,
so they do not depend on the order.

``movp`` is the one place that cuts histories to what a query reads,
coarsening the weight domain to the query as Reps et al. describe.
``reads`` maps a *checkpoint*, a symbol pushed right beneath a target,
to the set of history sites that the caller's query reads on a stack
where it lies beneath a target and no other checkpoint is in the
history.  ``reads=None`` cuts nothing, and a map cuts in two steps:

* **The union.**  ``Packing`` interns only the history sites in the
  union of ``reads``' values and drops every other from a rule's
  history as it packs it, so no site outside the union gets a bit, and
  ``reads={}`` keeps no site.  History is a union along a path, so
  every path's history is cut alike, and the saturation explores the
  same pairs, since conditions read the annotations, not the weights.
  A query that reads no site outside the union decides alike on the
  cut digests, and digests that differ only in unread sites merge.
* **Per checkpoint.**  Where that is exact, the read-out cuts each
  product over a transition to the sites that a query can still read
  above it.  Out of a target's frame state, that is the reads of
  the checkpoint that the transition reads, or the whole union when
  ``reads`` does not name it.  Out of any other state, it is the
  state's ``need``: the union of the masks of the frame transitions
  that enter its component, the reads of every checkpoint that a stack
  above the frame pushes.  Each checkpoint's key mask is
  ``Packing.keep`` of its reads; it is ANDed into each product's key
  inside ``extend_merged``, and products whose keys then coincide merge
  their gens.

The masks are set in one pass, cut or not, top-down in the reverse of
that order.  A transition that reads a checkpoint takes its mask, and
any other its source's ``need``: -1 at the control location, so also
at a target's frame, and elsewhere the union of the masks that enter
the source's component.  When the cut is on, only a target's frame
reads a checkpoint, since one pushed beneath a non-target turns the
cut off, no target is a checkpoint, and a target's frame is entered
from the control location alone, since no target has rules, so no
frame lies on a cycle.  With nothing cut, every mask is -1.  A
transition that no target's frame lies above is never visited.

The per-checkpoint cut is exact for such a query.  A run to a stack
topped by target t with checkpoint s meets the masks of the frame
transitions on its accepting path.  The mask at t's frame state covers
the product of the whole run, and every mask below it, which covers a
prefix of the run, holds ``reads[s]``, because s is pushed above that
frame.  So the run's digest keeps exactly its history's sites in
``reads[s]``, with its kill bit, ``finished`` and ``gen`` as they were;
masking is a function of the key, so, as in ``weights``, merging after
it unions the gens of the same runs.  That needs the history of a stack
topped by a target to hold no checkpoint but its own, which holds when a
push records at most its own site, as ``policy.encode``'s do, and no
run pushes a checkpoint anywhere else.  So ``movp`` keeps the union cut
alone when a target has rules of its own (it could push above itself,
or return and be pushed again), when a target is reached other than by
a push (then no checkpoint lies beneath it), when a target is also a
checkpoint (its mask would cut the product read at the top), or when a
rule pushes a checkpoint beneath a non-target.  So it does, too, when
no checkpoint reads less than the union keeps, as with a single
checkpoint.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Union

from .contexts import ANY_FAMILY, EMPTY_CTX, CallSite, CtxFamily, format_family
from .errors import CapacityError
from .weights import (
    DEFAULT_TUPLE_CAP,
    Merged,
    PackedWeight,
    Packing,
    WeightTuple,
    _intern,
    absorb,
    check_width,
    extend_merged,
)

StackSymbol = Union[str, CallSite]

# the most work one solve may do: one unit per worklist pop and one per
# digest pair sequenced.  The largest benchmark model spends about 2,300
# and the full-bipartite L6xW5 layered model 11,000, 180 times under it.
# A unit costs more the more bits its keys hold, so a blowup exits after
# 1 s (returning helpers, k=12) to 13 s (a 5000-method call DAG whose
# checks call returning factories) under Python 3.11 on 2 shared CPUs
WORK_BUDGET = 2_000_000


def _spend(work: int, units: int) -> int:
    """``work`` plus ``units``; raises ``CapacityError`` past ``WORK_BUDGET``."""
    work += units
    if work > WORK_BUDGET:
        raise CapacityError(
            f"post* saturation exceeded its work budget of {WORK_BUDGET} steps and "
            "digest pairs; the model's branching is too rich for exhaustive tracking"
        )
    return work


class Rule(NamedTuple):
    """One rewrite of the stack top; ``rhs`` has length 0 (pop), 1, or 2,
    which ``AnnotatedWPDS`` checks."""

    lhs: StackSymbol
    rhs: tuple[StackSymbol, ...]
    cond: CtxFamily = ANY_FAMILY
    weight: WeightTuple = WeightTuple()

    @property
    def kind(self) -> str:
        return ("pop", "swap", "push")[len(self.rhs)]

    def __str__(self) -> str:
        rhs = " ".join(str(s) for s in self.rhs) if self.rhs else "eps"
        weight = "1" if self.weight == WeightTuple() else self.weight
        return f"{self.lhs} --[{format_family(self.cond)}]--> {rhs} ; {weight}"


class ConditionalWPDS(NamedTuple):
    """A rule set plus start symbol; its ``rules`` list makes it unhashable."""

    rules: list[Rule]
    start: StackSymbol

    def dump(self) -> str:
        """Deterministic listing: pushes, then swaps, then pops."""
        order = {"push": 0, "swap": 1, "pop": 2}
        lines = [
            str(r)
            for r in sorted(
                self.rules,
                key=lambda r: (
                    order[r.kind],
                    str(r.lhs),
                    tuple(str(s) for s in r.rhs),
                    format_family(r.cond),
                ),
            )
        ]
        return "\n".join(lines)


# one rule instance: (index of the conditional rule, and the
# (symbol, sites_below) pairs it leaves on top of the stack, each
# sites_below a mask over ``AnnotatedWPDS.site_bit``)
Instance = tuple[int, tuple[tuple[StackSymbol, int], ...]]


class AnnotatedWPDS:
    """Lazy unconditional view of a conditional system.

    Rule instances exist per ``(symbol, sites_below)`` pair and are
    materialized on demand; nothing enumerates the powerset of call sites
    up front.  ``sites_below`` holds only the sites below the symbol that
    are relevant to it.  The relevant sets are the least ones in which
    each symbol's holds the sites named by the conditions of its own rules
    and the relevant set of every symbol on their right-hand sides; a
    worklist fixpoint computes them once.

    Every set is an int mask over ``site_bit``, which numbers the sites
    that conditions name, in the order the rules first name them, as
    ``Packing`` numbers names: the conditions' members, the relevant
    sets and each ``sites_below``.  A member lies within ``below`` when
    ``member & ~below`` is 0, and each right-hand symbol's annotation is
    ``(below | pushed) & relevant``, where ``pushed`` is the bit of the
    site a push records, 0 for a site no condition names.  A system
    without conditions pairs every symbol with 0, the empty set.  A rule
    that pushes more than two symbols raises ``ValueError``.
    """

    def __init__(self, system: ConditionalWPDS):
        self.site_bit: dict[CallSite, int] = {}
        # per left-hand symbol, each rule's index, the masks of its
        # condition's members, or None when an empty member makes it hold
        # below every stack, and its right-hand side
        self._by_lhs: dict[
            StackSymbol, list[tuple[int, tuple[int, ...] | None, tuple]]
        ] = defaultdict(list)
        relevant: dict[StackSymbol, int] = {}
        for idx, r in enumerate(system.rules):
            if len(r.rhs) > 2:
                raise ValueError("a pushdown rule may push at most two symbols")
            members = None
            if EMPTY_CTX not in r.cond:
                members = tuple([_intern(self.site_bit, member) for member in r.cond])
                for mask in members:
                    relevant[r.lhs] = relevant.get(r.lhs, 0) | mask
            self._by_lhs[r.lhs].append((idx, members, r.rhs))
        if relevant:
            lhs_of: dict[StackSymbol, list[StackSymbol]] = defaultdict(list)
            for r in system.rules:
                for sym in r.rhs:
                    lhs_of[sym].append(r.lhs)
            pending = list(relevant)
            while pending:
                sym = pending.pop()
                for lhs in lhs_of[sym]:
                    old = relevant.get(lhs, 0)
                    if relevant[sym] & ~old:
                        relevant[lhs] = old | relevant[sym]
                        pending.append(lhs)
        self._relevant = relevant

    def instances(self, base: StackSymbol, below: int) -> list[Instance]:
        """All rules applicable at top symbol ``base`` with ``below`` sites."""
        out = []
        keep, bit = self._relevant.get, self.site_bit.get
        for idx, members, rhs in self._by_lhs.get(base, ()):
            if members is not None:
                for member in members:
                    if not member & ~below:
                        break
                else:
                    continue
            if len(rhs) == 2:
                first, second = rhs
                pairs = (
                    (first, (below | bit(second, 0)) & keep(first, 0)),
                    (second, below & keep(second, 0)),
                )
            else:
                pairs = tuple([(sym, below & keep(sym, 0)) for sym in rhs])
            out.append((idx, pairs))
        return out


# automaton states: 0 is the control location, 1 accepts the stack bottom,
# and a push opens the state named by the (symbol, sites_below) pair it pushes
_P = 0
_QF = 1
_State = Union[int, tuple[StackSymbol, int]]

# a transition is keyed by (source state, symbol read, sites below it, target);
# a pop's epsilon-transition (_P, _EPS, 0, q) reads the private symbol _EPS
_EPS = object()
_TransKey = tuple[_State, StackSymbol, int, _State]


def _cut_masks(
    rules: list[Rule],
    wanted: set[StackSymbol],
    reads: Mapping[StackSymbol, AbstractSet[CallSite]] | None,
    packing: Packing,
    tops: list[_TransKey],
) -> dict[StackSymbol, int]:
    """Per checkpoint, the key mask keeping the sites it reads; empty unless
    the per-checkpoint cut drops a site and is exact (module docstring)."""
    masks = {checkpoint: packing.keep(named) for checkpoint, named in (reads or {}).items()}
    if {-1}.issuperset(masks.values()) or not wanted.isdisjoint(masks):
        return {}
    # a target with rules of its own, or a checkpoint pushed beneath a
    # non-target
    for r in rules:
        pushed = len(r.rhs) == 2 and r.rhs[1] in masks
        if r.lhs in wanted or (pushed and r.rhs[0] not in wanted):
            return {}
    # a target reached other than by a push
    for top in tops:
        if top[3] != _QF and top[3] != top[1:3]:
            return {}
    return masks


def _components(
    root: _State, out_of: dict[_State, list[_TransKey]]
) -> tuple[list[list[_State]], dict[_State, list[_State]]]:
    """The strongly connected components of ``root`` and the states below
    it, each after those below it and in the order its states finished,
    and each state's component, by one iterative pass of Tarjan's
    algorithm."""
    index: dict[_State, int] = {root: 0}
    low: dict[_State, int] = {root: 0}
    comps: list[list[_State]] = []
    comp_of: dict[_State, list[_State]] = {}
    # the finished states not yet in a component, in the order they finish
    done: list[_State] = []
    # the depth-first path: a state, its unread transitions, len(done)
    path = [(root, iter(out_of.get(root, ())), 0)]
    while path:
        q, keys, at = path[-1]
        for key in keys:
            nxt = key[3]
            if nxt not in index:
                index[nxt] = low[nxt] = len(index)
                path.append((nxt, iter(out_of.get(nxt, ())), len(done)))
                break
            # a state found but not yet in a component
            if nxt not in comp_of and index[nxt] < low[q]:
                low[q] = index[nxt]
        else:
            path.pop()
            done.append(q)
            if low[q] == index[q]:
                comp = done[at:]
                del done[at:]
                comps.append(comp)
                for member in comp:
                    comp_of[member] = comp
            elif low[q] < low[path[-1][0]]:
                low[path[-1][0]] = low[q]
    return comps, comp_of


def movp(
    system: ConditionalWPDS,
    targets: Iterable[StackSymbol],
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    reads: Mapping[StackSymbol, AbstractSet[CallSite]] | None = None,
) -> PackedWeight:
    """Meet over all paths from the start stack to any stack topped by a target.

    ``reads`` maps a checkpoint, a symbol pushed right beneath a target,
    to the set of history sites that a query reads there; each value is
    read twice, so it must be a set, not an iterator.  With it, every
    history keeps only the sites in the union of the values, ``{}``
    keeping none, and where that is exact each result digest keeps only
    its own checkpoint's reads; ``None`` cuts nothing (see the module
    docstring).

    Raises ``CapacityError`` when the result holds more than ``tuple_cap``
    merged digests, or when the solve's work passes ``WORK_BUDGET``.
    """
    wanted = set(targets)
    annotated = AnnotatedWPDS(system)
    # no site outside the union of ``reads`` gets a bit
    packing = Packing(None if reads is None else set().union(*reads.values()))
    rule_weights = [packing.pack(r.weight) for r in system.rules]
    trans: dict[_TransKey, Merged] = {}
    # the transitions out of each frame state, which epsilon folds read
    out_of: dict[_State, list[_TransKey]] = defaultdict(list)
    worklist: deque[_TransKey] = deque()
    # spent against WORK_BUDGET; see the module docstring
    work = 0

    def update_trans(key: _TransKey, w: Merged) -> None:
        old = trans.get(key)
        if old is None:
            if key[0] != _P:
                out_of[key[0]].append(key)
            trans[key] = w
            worklist.append(key)
        elif absorb(old, w):
            worklist.append(key)

    # the unit is written {0: 0} at each use: a stored weight grows in place
    update_trans((_P, system.start, 0, _QF), {0: 0})

    while worklist:
        work = _spend(work, 1)
        key = worklist.popleft()
        src, sym, ann, dst = key
        d = trans[key]
        if sym is _EPS:
            # (_P, eps, dst) then (dst, sym', q) gives (_P, sym', q)
            for frame_key in out_of.get(dst, ()):
                f = trans[frame_key]
                work = _spend(work, len(f) * len(d))
                update_trans((_P, *frame_key[1:]), extend_merged(f, d))
        elif src != _P:
            e = trans.get((_P, _EPS, 0, src))
            if e is not None:
                work = _spend(work, len(d) * len(e))
                update_trans((_P, sym, ann, dst), extend_merged(d, e))
        else:
            for rule_idx, rhs in annotated.instances(sym, ann):
                # one pair per digest of d, checked at the next pop
                work += len(d)
                w = extend_merged(d, rule_weights[rule_idx])
                if not rhs:
                    update_trans((_P, _EPS, 0, dst), w)
                elif len(rhs) == 1:
                    ((top, top_below),) = rhs
                    update_trans((_P, top, top_below, dst), w)
                else:
                    opened, (second, second_below) = rhs
                    update_trans((_P, *opened, opened), {0: 0})
                    update_trans((opened, second, second_below, dst), w)

    # the read-out's root: the control location, read through the targets
    out_of[_P] = [key for key in trans if key[0] == _P and key[1] in wanted]
    masks = _cut_masks(system.rules, wanted, reads, packing, out_of[_P])
    comps, comp_of = _components(_P, out_of)

    # the masks, top-down: the reads of the checkpoint a transition reads,
    # or else its source's ``need``, -1 where nothing is cut
    need = {_P: -1} if masks else dict.fromkeys(comp_of, -1)
    for comp in reversed(comps) if masks else ():
        entering = 0
        for q in comp:
            entering |= need.get(q, 0)
        for q in comp:
            need[q] = entering
            for key in out_of.get(q, ()):
                need[key[3]] = need.get(key[3], 0) | masks.get(key[1], entering)

    # value of completing the stack below a state, bottom up, one
    # component at a time, each folded until none of its states grows
    reach: dict[_State, Merged] = {_QF: {0: 0}}
    for comp in comps:
        todo = [key for q in comp for key in out_of.get(q, ())]
        while todo:
            grew, inside = False, []
            for key in todo:
                src, sym, _ann, dst = key
                below, w = reach.get(dst, {}), trans[key]
                work = _spend(work, len(below) * len(w))
                product = extend_merged(below, w, masks.get(sym, need[src]))
                old = reach.setdefault(src, product)
                if old is product or absorb(old, product):
                    grew = True
                if comp_of[dst] is comp:
                    inside.append(key)
            todo = inside if grew else ()

    packed_result = PackedWeight(packing, reach.get(_P, {}))
    check_width(packed_result, tuple_cap)
    return packed_result
