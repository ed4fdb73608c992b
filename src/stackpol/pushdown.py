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
would.  Rule applicability is then a plain lookup on the pair, and the
solver is an ordinary weighted post* saturation over such pairs.  Stacks
that differ only in sites no later condition reads share their pairs, so
on a ladder whose every level is guarded by the level above, each symbol
has at most two annotations instead of one per route to it.

The saturation runs on packed, merged digests (see ``weights``): once
per solve, one ``Packing`` interns the methods of every rule's digest,
so each ``gen`` stays below the first site bit, and then packs each
rule's digest once, into a one-entry merged weight ``{key: gen}``.  A
transition's weight is such a dict.  Digests that share ``(kill,
finished, history)`` are one entry whose ``gen`` is the union of
theirs, so a transition keeps one digest per distinct key however many
routes reach it; ``weights`` proves that the merge changes no grant.
Sequencing is a handful of int operations per pair, and an update ORs
into the stored dict in place and re-queues the transition only when a
key or a ``gen`` bit is new.  The final union is returned as it is,
with the packing that names its bits; ``PackedWeight.decode`` gives the
merged ``Weight``, and nothing on the analyze path calls it.
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
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable, Union

from .contexts import ANY_FAMILY, CallSite, CtxFamily, CtxSet, format_family, holds
from .errors import CapacityError
from .weights import (
    DEFAULT_TUPLE_CAP,
    Merged,
    PackedWeight,
    Packing,
    WeightTuple,
    absorb,
    check_width,
    extend_merged,
)

StackSymbol = Union[str, CallSite]

# the most work one solve may do: one unit per worklist pop and one per
# digest pair sequenced.  The largest benchmark model spends about 16,000
# and the full-bipartite L6xW5 layered model 86,000, 23 times under it;
# at about 0.3-1 us a unit a blowup exits within about two seconds
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


@dataclass(frozen=True, slots=True)
class Rule:
    """One rewrite of the stack top; ``rhs`` has length 0 (pop), 1, or 2."""

    lhs: StackSymbol
    rhs: tuple[StackSymbol, ...]
    cond: CtxFamily = ANY_FAMILY
    weight: WeightTuple = WeightTuple()

    def __post_init__(self) -> None:
        if len(self.rhs) > 2:
            raise ValueError("a pushdown rule may push at most two symbols")

    @property
    def kind(self) -> str:
        return ("pop", "swap", "push")[len(self.rhs)]

    def __str__(self) -> str:
        rhs = " ".join(str(s) for s in self.rhs) if self.rhs else "eps"
        weight = "1" if self.weight == WeightTuple() else self.weight
        return f"{self.lhs} --[{format_family(self.cond)}]--> {rhs} ; {weight}"


@dataclass(slots=True)
class ConditionalWPDS:
    """A rule set plus start symbol."""

    rules: list[Rule] = field(default_factory=list)
    start: StackSymbol = ""

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


_NONE: CtxSet = frozenset()

# one rule instance: (index of the conditional rule, and the
# (symbol, sites_below) pairs it leaves on top of the stack)
Instance = tuple[int, tuple[tuple[StackSymbol, CtxSet], ...]]


class AnnotatedWPDS:
    """Lazy unconditional view of a conditional system.

    Rule instances exist per ``(symbol, sites_below)`` pair and are
    materialized on demand; nothing enumerates the powerset of call sites
    up front.  ``sites_below`` holds only the sites below the symbol that
    are relevant to it.  The relevant sets are the least ones in which
    each symbol's holds the sites named by the conditions of its own rules
    and the relevant set of every symbol on their right-hand sides; a
    worklist fixpoint computes them once.  A system without conditions
    pairs every symbol with the empty set.
    """

    def __init__(self, system: ConditionalWPDS):
        self._by_lhs: dict[StackSymbol, list[tuple[int, Rule]]] = defaultdict(list)
        relevant: dict[StackSymbol, CtxSet] = {}
        for idx, r in enumerate(system.rules):
            self._by_lhs[r.lhs].append((idx, r))
            for member in r.cond:
                if member:
                    relevant[r.lhs] = relevant.get(r.lhs, _NONE) | member
        if relevant:
            lhs_of: dict[StackSymbol, list[StackSymbol]] = defaultdict(list)
            for r in system.rules:
                for sym in r.rhs:
                    lhs_of[sym].append(r.lhs)
            pending = list(relevant)
            while pending:
                sym = pending.pop()
                for lhs in lhs_of[sym]:
                    old = relevant.get(lhs, _NONE)
                    if not relevant[sym] <= old:
                        relevant[lhs] = old | relevant[sym]
                        pending.append(lhs)
        self._relevant = relevant

    def instances(self, base: StackSymbol, below: CtxSet) -> list[Instance]:
        """All rules applicable at top symbol ``base`` with ``below`` sites."""
        out = []
        for idx, r in self._by_lhs.get(base, ()):
            if not holds(r.cond, below):
                continue
            if len(r.rhs) == 2:
                first, second = r.rhs
                rhs = (
                    (first, self._project(first, below, second)),
                    (second, self._project(second, below)),
                )
            else:
                rhs = tuple((sym, self._project(sym, below)) for sym in r.rhs)
            out.append((idx, rhs))
        return out

    def _project(
        self, sym: StackSymbol, below: CtxSet, pushed: CallSite | None = None
    ) -> CtxSet:
        """``below`` plus ``pushed``, cut to the sites relevant to ``sym``."""
        sites = self._relevant.get(sym, _NONE)
        if not below <= sites:
            below = below & sites
        return below | {pushed} if pushed in sites else below


# automaton states: 0 is the control location, 1 accepts the stack bottom,
# and a push opens the state named by the (symbol, sites_below) pair it pushes
_P = 0
_QF = 1
_State = Union[int, tuple[StackSymbol, CtxSet]]

# a transition is keyed by (source state, symbol read, sites below it, target);
# a pop's epsilon-transition (_P, _EPS, {}, q) reads the private symbol _EPS
_EPS = object()
_TransKey = tuple[_State, StackSymbol, CtxSet, _State]


def movp(
    system: ConditionalWPDS,
    targets: Iterable[StackSymbol],
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> PackedWeight:
    """Meet over all paths from the start stack to any stack topped by a target.

    Raises ``CapacityError`` when the result holds more than ``tuple_cap``
    merged digests, or when the solve's work passes ``WORK_BUDGET``.
    """
    wanted = set(targets)
    annotated = AnnotatedWPDS(system)
    packing = Packing(r.weight for r in system.rules)
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
    update_trans((_P, system.start, _NONE, _QF), {0: 0})

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
            e = trans.get((_P, _EPS, _NONE, src))
            if e is not None:
                work = _spend(work, len(d) * len(e))
                update_trans((_P, sym, ann, dst), extend_merged(d, e))
        else:
            for rule_idx, rhs in annotated.instances(sym, ann):
                # one pair per digest of d, checked at the next pop
                work += len(d)
                w = extend_merged(d, rule_weights[rule_idx])
                if not rhs:
                    update_trans((_P, _EPS, _NONE, dst), w)
                elif len(rhs) == 1:
                    ((top, top_below),) = rhs
                    update_trans((_P, top, top_below, dst), w)
                else:
                    opened, (second, second_below) = rhs
                    update_trans((_P, *opened, opened), {0: 0})
                    update_trans((opened, second, second_below, dst), w)

    # value of completing the stack below a state, composed bottom-up
    reach: dict[_State, Merged] = defaultdict(dict)
    reach[_QF] = {0: 0}
    by_dst: dict[_State, list[_TransKey]] = defaultdict(list)
    for key in trans:
        if key[0] != _P:
            by_dst[key[3]].append(key)
    pending = deque([_QF])
    while pending:
        q_done = pending.popleft()
        below = reach[q_done]
        for key in by_dst[q_done]:
            w = trans[key]
            work = _spend(work, len(below) * len(w))
            if absorb(reach[key[0]], extend_merged(below, w)):
                pending.append(key[0])

    result: Merged = {}
    for (src, sym, _ann, dst), w in trans.items():
        if src == _P and sym in wanted:
            below = reach[dst]
            work = _spend(work, len(below) * len(w))
            absorb(result, extend_merged(below, w))
    packed_result = PackedWeight(packing, result)
    check_width(packed_result, tuple_cap)
    return packed_result
