"""Calling contexts as sets of call sites.

A concrete calling context is a call string: the sequence of call sites on
the stack between the program entry and the current frame.  Tracking strings
directly does not scale, so the analysis abstracts a string to the *set* of
sites it visits, and a set of strings to a *family* of site sets.  The family
is deliberately not closed under subset: two members with incomparable site
sets record genuinely different routes, and collapsing them loses precision
when a condition later asks "did the stack come through one of these?".

A ``Condition`` asks that question of the sites on a stack: it holds when
some member of its family is a subset of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple


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


CtxSet = frozenset[CallSite]
CtxFamily = frozenset[CtxSet]

EMPTY_CTX: CtxSet = frozenset()
# the family that constrains nothing: the empty site set is below every stack
ANY_FAMILY: CtxFamily = frozenset({EMPTY_CTX})


def normalize_family(family: Iterable[Iterable[CallSite]]) -> CtxFamily:
    """Canonicalize a context family.

    A member equal to the empty set is satisfied by every stack, so a family
    containing it constrains nothing; it collapses to ``ANY_FAMILY``.
    """
    fam = frozenset(frozenset(c) for c in family)
    if EMPTY_CTX in fam:
        return ANY_FAMILY
    return fam


@dataclass(frozen=True, slots=True)
class Condition:
    """A stack condition: some family member must sit below the stack top.

    ``holds`` receives the *set* of sites on the inspected stack fragment;
    the condition asks whether at least one member is entirely present.
    """

    family: CtxFamily

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", normalize_family(self.family))

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
