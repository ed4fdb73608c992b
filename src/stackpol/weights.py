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
algebra.  A rule's weight is one ``WeightTuple``: each rule of the
encoding names at most one caller, one call site and one finished
method.  The solver works on *packed, merged* weights, and this module
alone knows their layout.  A ``Packing`` gives each method and call site
its own bit when a packed digest first names it, so a site that no
packed history holds has no bit, and a ``Packing`` told which sites to
keep drops every other from the histories it packs.  Digests that share
``(kill, finished, history)`` are one digest whose ``gen`` is the union
of theirs.  A merged weight is a dict ``{key: gen}`` whose int key packs
``kill | (finished | history) << 1``: no method shares a bit with a
site, so ``finished`` and ``history`` OR into one field, and ``gen``
holds method bits alone.  ``Packing.pack`` turns a rule's digest into a
one-entry merged weight.  Sequencing two merged digests is
``key = lkey | rkey`` and ``gen = rgen if rkey & 1 else lgen | rgen``
(``extend_merged``, which can also AND each product's key with a mask;
``pushdown``'s read-out cuts histories with the masks of
``Packing.keep``), and union ORs each gen into its key's (``absorb``).
A solver result keeps this form: ``PackedWeight`` holds the dict with
the packing that names its bits, grant extraction reads each digest's
history and live bits from it, and ``PackedWeight.decode``, the one
place that decodes, builds the ``Weight`` only for a caller that asks
for it.

The merge is exact for what the solver is asked.  Write ``[w]`` for
``w`` with its digests merged.  The product of two digests has the key
``lkey | rkey``, a function of the two keys alone, and the gen ``rgen``
or ``lgen | rgen`` as the right key's kill bit decides: ``seq`` reads
the left operand's ``gen`` only to union it into the result's, and the
right one's likewise.  So merging either operand first unions the same
gens into the same keys: ``[[a] . b] = [a . b] = [a . [b]]``, and
``[a + b] = [[a] + [b]]``.  The merge is a semiring homomorphism, and a
solve over merged weights gives the merge of the solve over ``Weight``
values.  Grant extraction reads a
digest's history and its live methods, ``gen & ~finished``, one method
at a time.  Within a class ``finished`` is shared, so a method is live
in the merged digest exactly when it is live in one of the class's
members, and every grant is the same as from the unmerged digests.
The argument needs ``seq`` to compute ``finished`` without reading a
``gen``: a candidate fix for methods re-entered after they returned,
``finished = (lfinished & ~rgen) | rfinished``, reads the right
operand's ``gen``, and with it merging would change the ``finished`` of
later products.  Such a ``seq`` must re-prove exactness or key on
``gen`` as well.

Weights form a bounded idempotent semiring: ``combine`` is set union (the
meet), ``extend`` is the pairwise digest product.  ``ZERO`` (no digests) is
the unit of ``combine`` and annihilates ``extend``; ``ONE`` (the single
empty digest) is the unit of ``extend``.  The natural order is reverse
inclusion of digest sets: lower means more digests, i.e. less precise.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, NamedTuple, Sequence

from .contexts import CallSite
from .errors import CapacityError


DEFAULT_TUPLE_CAP = 10_000


class WeightTuple(NamedTuple):
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


class Weight(NamedTuple):
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

    ``weight`` is a ``Weight`` or a ``PackedWeight``; both count digests,
    and a solver result's digests are merged ones (see module docstring).
    """
    if weight.width() > cap:
        raise CapacityError(
            f"weight grew to {weight.width()} digests (cap {cap}); "
            "the model's branching is too rich for exhaustive tracking"
        )
    return weight


# ---------------------------------------------------------------------------
# merged digests: the solver's working form

# a merged weight: {kill | (finished | history) << 1: gen}
Merged = dict[int, int]


def _intern(bit: dict, names: Iterable) -> int:
    """The mask of ``names`` in ``bit``; a name not yet in it gets the next
    bit.  ``Packing`` and ``pushdown``'s condition sites both number names
    with it."""
    out = 0
    for name in names:
        b = bit.get(name)
        if b is None:
            b = bit[name] = 1 << len(bit)
        out |= b
    return out


def _members(bits: int, names: Sequence) -> frozenset:
    """The names of ``bits``, ``names`` listing them in bit order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(names[low.bit_length() - 1])
        bits ^= low
    return frozenset(out)


class Packing:
    """One bit per method and call site, and the mask of the site bits.

    A method is a ``str`` and a site a ``CallSite``, so one dict holds
    both and no two names share a bit.  ``Packing(digests)`` interns the
    methods of ``digests`` first, ``gen`` before ``finished``, so every
    ``gen`` stays below the first site bit; ``pack`` gives a name it
    meets for the first time the next free bit.  Given ``kept``, a set of
    sites, ``pack`` drops every other site from a history.  So a site has
    a bit only if it is kept and a packed history holds it, and
    ``sites``, the mask of those bits, only grows.  Every digest built
    from packed ones by sequencing and union stays within the names met
    so far.  ``keep`` interns nothing:
    its key mask clears the interned sites that a caller's set leaves out.
    """

    def __init__(
        self, digests: Iterable[WeightTuple] = (), kept: AbstractSet[CallSite] | None = None
    ):
        # the bit of each interned name, in bit order; extraction reads
        # it directly
        self.bit: dict[str | CallSite, int] = {}
        self.sites = 0
        # None keeps every site
        self.kept = kept
        for digest in digests:
            # most rule digests leave one of the two empty; skip its call
            if digest.gen:
                _intern(self.bit, digest.gen)
            if digest.finished:
                _intern(self.bit, digest.finished)

    def pack(self, digest: WeightTuple) -> Merged:
        """``digest`` as a one-entry merged weight, its history cut to
        ``kept``; a name first met here gets a new bit."""
        bit, history = self.bit, digest.history
        gen = _intern(bit, digest.gen) if digest.gen else 0
        finished = _intern(bit, digest.finished) if digest.finished else 0
        if history and self.kept is not None:
            history = history & self.kept
        history = _intern(bit, history) if history else 0
        self.sites |= history
        return {int(digest.kill) | (finished | history) << 1: gen}

    def keep(self, sites: Iterable[CallSite]) -> int:
        """The key mask that clears the bit of every interned site outside
        ``sites``; -1 when ``sites`` names every one."""
        bit = self.bit.get
        named = 0
        for site in sites:
            named |= bit(site, 0)
        return ~((self.sites & ~named) << 1)


def extend_merged(left: Merged, right: Merged, keep: int = -1) -> Merged:
    """``Weight.extend`` on merged weights: ``WeightTuple.seq`` per pair,
    with each product's key ANDed with ``keep`` and the gens of products
    that share a key unioned."""
    out: Merged = {}
    get = out.get
    for rkey, rgen in right.items():
        if rkey & 1:
            # a killing right digest discards every left gen
            for lkey in left:
                key = (lkey | rkey) & keep
                out[key] = get(key, 0) | rgen
        else:
            for lkey, lgen in left.items():
                key = (lkey | rkey) & keep
                out[key] = get(key, 0) | lgen | rgen
    return out


def absorb(into: Merged, weight: Merged) -> bool:
    """Union ``weight`` into ``into`` in place; whether a key or a gen bit
    was new."""
    grew = False
    for key, gen in weight.items():
        old = into.get(key)
        if old is None:
            into[key] = gen
            grew = True
        elif gen & ~old:
            into[key] = old | gen
            grew = True
    return grew


class PackedWeight:
    """A solver result: its merged digests and the packing that names
    their bits.  Compared by identity, as the digests are a mutable dict."""

    __slots__ = ("packing", "digests")

    def __init__(self, packing: Packing, digests: Merged) -> None:
        self.packing = packing
        self.digests = digests

    def width(self) -> int:
        return len(self.digests)

    def histories_and_lives(self) -> list[tuple[int, int]]:
        """Per digest, its history bits and its live methods, ``gen & ~finished``."""
        sites = self.packing.sites
        # gen holds no site bit, so masking with finished | history
        # removes the finished methods alone
        return [
            ((key >> 1) & sites, gen & ~(key >> 1)) for key, gen in self.digests.items()
        ]

    def decode(self) -> Weight:
        """The same digests as a ``Weight``, built anew on every call."""
        # a dict's insertion order is its bit order
        names, sites = list(self.packing.bit), self.packing.sites
        return Weight(
            frozenset(
                WeightTuple(
                    key & 1 == 1,
                    _members(gen, names),
                    _members((key >> 1) & ~sites, names),
                    _members((key >> 1) & sites, names),
                )
                for key, gen in self.digests.items()
            )
        )
