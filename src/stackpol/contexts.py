"""Calling contexts and their order-theoretic abstraction.

A concrete calling context is a call string: the sequence of call sites on
the stack between the program entry and the current frame.  Tracking strings
directly does not scale, so the analysis abstracts a string to the *set* of
sites it visits, and a set of strings to a *family* of site sets.  The family
is deliberately not closed under subset: two members with incomparable site
sets record genuinely different routes, and collapsing them loses precision
when a condition later asks "did the stack come through one of these?".

Orders used throughout:

* strings compare by site-set inclusion (``ctx_leq``),
* string sets compare by the Hoare lift of that (``set_leq``),
* families compare by the Hoare lift of set inclusion (``family_leq``).

``abstract_ctx_set`` and ``concretize`` form a Galois connection between
string sets ordered by ``set_leq`` and families ordered by ``family_leq``:

    family_leq(abstract_ctx_set(S), F)  iff  set_leq(S, concretize(F))

The right-to-left direction needs the full-permutation witness inside
``concretize`` (every member set appears as a string using each site once),
which is why concretization enumerates permutations and not just subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, NamedTuple

from .errors import EnumerationLimitError


class CallSite(NamedTuple):
    """A call site, identified by enclosing method and source line.

    A named tuple, so hashing and comparison run in C: every history,
    context and condition is a frozenset of call sites.  As a tuple it
    also equals, and hashes like, the plain pair ``(method, line)``.
    """

    method: str
    line: int

    def __str__(self) -> str:
        return f"{self.method}:{self.line}"


CallString = tuple[CallSite, ...]
CtxSet = frozenset[CallSite]
CtxFamily = frozenset[CtxSet]

EMPTY_CTX: CtxSet = frozenset()
# the family that constrains nothing: the empty site set is below every stack
ANY_FAMILY: CtxFamily = frozenset({EMPTY_CTX})

DEFAULT_CONCRETIZE_BOUND = 8


def abstract_ctx(string: Iterable[CallSite]) -> CtxSet:
    """Collapse a call string to the set of sites it visits."""
    return frozenset(string)


def abstract_ctx_set(strings: Iterable[Iterable[CallSite]]) -> CtxFamily:
    """Abstract each string separately; no member is dropped or merged."""
    return frozenset(abstract_ctx(s) for s in strings)


def normalize_family(family: Iterable[Iterable[CallSite]]) -> CtxFamily:
    """Canonicalize a context family.

    A member equal to the empty set is satisfied by every stack, so a family
    containing it constrains nothing; it collapses to ``ANY_FAMILY``.
    """
    fam = frozenset(frozenset(c) for c in family)
    if EMPTY_CTX in fam:
        return ANY_FAMILY
    return fam


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


@dataclass(frozen=True, slots=True)
class Condition:
    """A stack condition: some family member must sit below the stack top.

    ``holds`` receives the *set* of sites on the inspected stack fragment;
    the condition asks whether at least one member is entirely present.
    """

    family: CtxFamily

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", normalize_family(self.family))

    @property
    def is_any(self) -> bool:
        return self.family == ANY_FAMILY

    def holds(self, sites: CtxSet) -> bool:
        return any(member <= sites for member in self.family)

    def __str__(self) -> str:
        return format_family(self.family)


ANY = Condition(ANY_FAMILY)


def format_ctx(ctx: CtxSet) -> str:
    return ",".join(str(s) for s in sorted(ctx))


def format_family(family: CtxFamily) -> str:
    if normalize_family(family) == ANY_FAMILY:
        return "any"
    members = sorted(family, key=lambda c: (len(c), sorted(c)))
    return "{" + ";".join(format_ctx(c) for c in members) + "}"
