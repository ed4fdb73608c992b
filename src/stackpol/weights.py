"""The weight domain for the policy-generation pushdown system.

A weight is a finite set of *path digests*.  One digest summarizes a set of
execution paths that agree on four facts:

* ``gen``      methods entered on the path that a stack walk would still
               reach, i.e. candidates for a permission grant,
* ``kill``     one bit: the path ran through a call made by the privilege
               primitive, which cancels every earlier candidate at once,
* ``finished`` methods whose activation already returned; they were entered
               but are no longer on the stack at the path's end,
* ``history``  the call sites the path traversed, as a set.

Sequencing digests is asymmetric: when the right-hand digest kills, the
left-hand candidates are discarded wholesale and only the right-hand ones
survive; otherwise the candidates union.  ``finished`` and ``history``
always union.  Stack inspection stops at a privileged frame, so a kill
never needs to name the frames it cancels.

``WeightTuple`` and ``Weight`` are the readable specification of this
algebra and the form in which rules are written.  The solver works on
*packed* digests: ``Packing.pack`` interns each method and call site the
first time a packed weight names it, and a digest becomes a ``(kill, gen,
finished, history)`` tuple of ints: ``kill`` is ``0`` or ``1``, and the
other fields hold one bit per interned method or site.  A packed weight
is a frozenset of such tuples, and ``extend_packed`` is ``Weight.extend``
on them.  A solver result stays packed: ``PackedWeight`` keeps the
digests with the packing that names their bits, grant extraction reads
the ints, and ``PackedWeight.decode``, the one place that decodes,
builds the ``Weight`` only for a caller that asks for it.

Weights form a bounded idempotent semiring: ``combine`` is set union (the
meet), ``extend`` is the pairwise digest product.  ``ZERO`` (no digests) is
the unit of ``combine`` and annihilates ``extend``; ``ONE`` (the single
empty digest) is the unit of ``extend``.  The natural order is reverse
inclusion of digest sets: lower means more digests, i.e. less precise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .contexts import CallSite
from .errors import CapacityError


DEFAULT_TUPLE_CAP = 10_000


@dataclass(frozen=True, slots=True)
class WeightTuple:
    """One path digest; see module docstring for field meaning."""

    kill: bool = False
    gen: frozenset[str] = frozenset()
    finished: frozenset[str] = frozenset()
    history: frozenset[CallSite] = frozenset()

    def seq(self, after: "WeightTuple") -> "WeightTuple":
        """Digest of running ``self``'s paths, then ``after``'s."""
        if after.kill:
            kill, gen = True, after.gen
        else:
            kill, gen = self.kill, self.gen | after.gen
        return WeightTuple(
            kill=kill,
            gen=gen,
            finished=self.finished | after.finished,
            history=self.history | after.history,
        )

    def _sort_key(self):
        return (
            self.kill,
            sorted(self.gen),
            sorted(self.finished),
            sorted((s.method, s.line) for s in self.history),
        )

    def __str__(self) -> str:
        def braces(items: Iterable[str]) -> str:
            return "{" + ",".join(items) + "}"

        return "(%s|%s|%s|%s)" % (
            "{*}" if self.kill else "{}",
            braces(sorted(self.gen)),
            braces(sorted(self.finished)),
            braces(str(s) for s in sorted(self.history)),
        )


@dataclass(frozen=True, slots=True)
class Weight:
    """A set of path digests; the semiring element."""

    tuples: frozenset[WeightTuple] = frozenset()

    def combine(self, other: "Weight") -> "Weight":
        """Meet: keep every digest from either side."""
        return Weight(self.tuples | other.tuples)

    def extend(self, other: "Weight") -> "Weight":
        """Sequencing: pairwise digest product."""
        return Weight(
            frozenset(t.seq(u) for t in self.tuples for u in other.tuples)
        )

    def width(self) -> int:
        return len(self.tuples)

    def __str__(self) -> str:
        if not self.tuples:
            return "0"
        if self == ONE:
            return "1"
        return " + ".join(
            str(t) for t in sorted(self.tuples, key=WeightTuple._sort_key)
        )


ZERO = Weight(frozenset())
ONE = Weight(frozenset({WeightTuple()}))


def check_width(weight, cap: int = DEFAULT_TUPLE_CAP):
    """Guard against digest-set blowup; raises ``CapacityError`` past the cap.

    ``weight`` is a ``Weight`` or a ``PackedWeight``; both count digests.
    """
    if weight.width() > cap:
        raise CapacityError(
            f"weight grew to {weight.width()} digests (cap {cap}); "
            "the model's branching is too rich for exhaustive tracking"
        )
    return weight


# ---------------------------------------------------------------------------
# packed digests: the solver's working form

# (kill, gen, finished, history); kill is 0 or 1, bit i of gen and finished
# is the i-th interned method, bit j of history the j-th interned call site
PackedDigest = tuple[int, int, int, int]
Packed = frozenset[PackedDigest]


def _intern(names: Iterable, bit: dict) -> int:
    """The mask of ``names``; a name not yet in ``bit`` gets the next bit."""
    out = 0
    for name in names:
        b = bit.get(name)
        if b is None:
            b = bit[name] = 1 << len(bit)
        out |= b
    return out


def _members(bits: int, names: list) -> frozenset:
    out = []
    while bits:
        low = bits & -bits
        out.append(names[low.bit_length() - 1])
        bits ^= low
    return frozenset(out)


class Packing:
    """Bit positions for the methods and call sites of the packed weights.

    ``pack`` gives each name the next free bit the first time it meets
    it, digest by digest and ``gen`` before ``finished``; every digest
    built from packed ones by ``extend_packed`` and set union stays
    within the names met so far.
    """

    def __init__(self):
        # the bit of each interned name, in bit order; extraction reads
        # them directly
        self.method_bit: dict[str, int] = {}
        self.site_bit: dict[CallSite, int] = {}

    def methods(self, bits: int) -> frozenset[str]:
        """The interned methods whose bits are set in ``bits``."""
        return _members(bits, list(self.method_bit))

    def pack(self, weight: Weight) -> Packed:
        """``weight``'s digests as ints; a name first met here gets a new bit."""
        mb, sb = self.method_bit, self.site_bit
        return frozenset(
            (
                int(t.kill),
                _intern(t.gen, mb),
                _intern(t.finished, mb),
                _intern(t.history, sb),
            )
            for t in weight.tuples
        )


def extend_packed(left: Packed, right: Packed) -> Packed:
    """``Weight.extend`` on packed weights: ``WeightTuple.seq`` per pair."""
    return frozenset(
        (1, rg, lf | rf, lh | rh) if rk else (lk, lg | rg, lf | rf, lh | rh)
        for lk, lg, lf, lh in left
        for rk, rg, rf, rh in right
    )


@dataclass(frozen=True, slots=True, eq=False)
class PackedWeight:
    """A packed solver result: its digests and the packing that names their bits."""

    packing: Packing
    digests: Packed

    def width(self) -> int:
        return len(self.digests)

    def decode(self) -> Weight:
        """The same digests as a ``Weight``, built anew on every call."""
        # a dict's insertion order is its bit order
        methods, sites = list(self.packing.method_bit), list(self.packing.site_bit)
        return Weight(
            frozenset(
                WeightTuple(
                    k == 1,
                    _members(g, methods),
                    _members(f, methods),
                    _members(h, sites),
                )
                for k, g, f, h in self.digests
            )
        )
