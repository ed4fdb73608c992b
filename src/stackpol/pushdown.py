"""Conditional weighted pushdown systems and a meet-over-all-paths solver.

Stack symbols are method names (``str``) or call sites (``CallSite``); a
configuration is a stack written top-first.  Every rule rewrites the top
symbol and carries two extras beyond a plain pushdown rule:

* a *condition* on the stack **below** the top, a context family: the
  rule fires only when some member of the family is contained in the set
  of call sites sitting under the current top (``contexts.holds``);
* a *weight* from the path-digest semiring, picked up when the rule fires.

``movp(system, targets)`` returns the combine over all rule paths from the
one-symbol start configuration to any configuration whose top matches
``targets``, of the extend-product of the weights along the path, as a
``PackedWeight``.

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

The saturation runs on packed digests (see ``weights``): once per solve,
each rule weight is packed into four-int digests in the one pass that
interns its methods and call sites, and sequencing is a handful of int
operations.  The final union is returned packed, with the packing that
names its bits; ``PackedWeight.decode`` gives the ``Weight`` that the
readable algebra would, and nothing on the analyze path calls it.
Decoding maps distinct packed digests to distinct ``WeightTuple``s, so
``tuple_cap`` counts the same digests either way.

The automaton is the textbook one of weighted post* (Reps, Schwoon, Jha
and Melski, SCP 2005; Schwoon's thesis, 2002): besides the control
location and the final state, a push opens one state per pushed pair
``(symbol, sites_below)``, and the state is named by that pair.  So every
push of one pair shares one frame, and a method called from k sites with
one annotation has its rules instantiated and saturated once, not k
times.

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
    ONE,
    Packed,
    PackedDigest,
    PackedWeight,
    Packing,
    Weight,
    check_width,
    extend_packed,
)

StackSymbol = Union[str, CallSite]

# the solver's fixed step budget
MAX_STEPS = 1_000_000


@dataclass(frozen=True, slots=True)
class Rule:
    """One rewrite of the stack top; ``rhs`` has length 0 (pop), 1, or 2."""

    lhs: StackSymbol
    rhs: tuple[StackSymbol, ...]
    cond: CtxFamily = ANY_FAMILY
    weight: Weight = ONE

    def __post_init__(self) -> None:
        if len(self.rhs) > 2:
            raise ValueError("a pushdown rule may push at most two symbols")

    @property
    def kind(self) -> str:
        return ("pop", "swap", "push")[len(self.rhs)]

    def __str__(self) -> str:
        rhs = " ".join(str(s) for s in self.rhs) if self.rhs else "eps"
        return f"{self.lhs} --[{format_family(self.cond)}]--> {rhs} ; {self.weight}"


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

# a transition is keyed by (source state, symbol read, sites below it, target)
_TransKey = tuple[_State, StackSymbol, CtxSet, _State]


def movp(
    system: ConditionalWPDS,
    targets: Iterable[StackSymbol],
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> PackedWeight:
    """Meet over all paths from the start stack to any stack topped by a target.

    Raises ``CapacityError`` when the result holds more than ``tuple_cap``
    digests, or when saturation takes more than ``MAX_STEPS`` steps.
    """
    wanted = set(targets)
    annotated = AnnotatedWPDS(system)
    packing = Packing()
    rule_weights = [packing.pack(r.weight) for r in system.rules]
    one = packing.pack(ONE)
    zero: Packed = frozenset()
    trans: dict[_TransKey, Packed] = {}
    out_of: dict[_State, list[_TransKey]] = defaultdict(list)
    eps: dict[_State, Packed] = {}
    worklist: deque[_TransKey] = deque()
    steps = 0

    def update_trans(key: _TransKey, w: Packed) -> None:
        old = trans.get(key, zero)
        if w <= old:
            return
        if key not in trans:
            out_of[key[0]].append(key)
        trans[key] = old | w
        worklist.append(key)

    def update_eps(q: _State, w: Packed) -> None:
        old = eps.get(q, zero)
        if w <= old:
            return
        new = eps[q] = old | w
        # re-fold the excursion value into every continuation recorded under q
        for src, sym, ann, dst in list(out_of.get(q, ())):
            update_trans(
                (_P, sym, ann, dst), extend_packed(trans[(src, sym, ann, dst)], new)
            )

    update_trans((_P, system.start, frozenset(), _QF), one)

    while worklist:
        steps += 1
        if steps > MAX_STEPS:
            raise CapacityError(
                f"post* saturation did not stabilize within {MAX_STEPS} steps"
            )
        key = worklist.popleft()
        src, sym, ann, dst = key
        d = trans[key]
        if src == _P:
            for rule_idx, rhs in annotated.instances(sym, ann):
                w = extend_packed(d, rule_weights[rule_idx])
                if not rhs:
                    update_eps(dst, w)
                elif len(rhs) == 1:
                    ((top, top_below),) = rhs
                    update_trans((_P, top, top_below, dst), w)
                else:
                    opened, (second, second_below) = rhs
                    update_trans((_P, *opened, opened), one)
                    update_trans((opened, second, second_below, dst), w)
        else:
            e = eps.get(src)
            if e is not None:
                update_trans((_P, sym, ann, dst), extend_packed(d, e))

    # value of completing the stack below a state, composed bottom-up
    reach: dict[_State, Packed] = defaultdict(frozenset)
    reach[_QF] = one
    by_dst: dict[_State, list[_TransKey]] = defaultdict(list)
    for key in trans:
        if key[0] != _P:
            by_dst[key[3]].append(key)
    pending = deque([_QF])
    while pending:
        q_done = pending.popleft()
        for key in by_dst[q_done]:
            src = key[0]
            w = extend_packed(reach[q_done], trans[key])
            if not w <= reach[src]:
                reach[src] |= w
                pending.append(src)

    # accumulate in one set; combining into a frozenset per transition is quadratic
    digests: set[PackedDigest] = set()
    for (src, sym, _ann, dst), w in trans.items():
        if src == _P and sym in wanted:
            digests |= extend_packed(reach[dst], w)
    result = PackedWeight(packing, frozenset(digests))
    check_width(result, tuple_cap)
    return result
