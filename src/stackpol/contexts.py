"""Calling contexts as sets of call sites.

A concrete calling context is a call string: the sequence of call sites on
the stack between the program entry and the current frame.  Tracking strings
directly does not scale, so the analysis abstracts a string to the *set* of
sites it visits, and a set of strings to a *family* of site sets.  The family
is deliberately not closed under subset: two members with incomparable site
sets record genuinely different routes, and collapsing them loses precision
when a condition later asks "did the stack come through one of these?".

A family *holds* for the sites on a stack when some member is a subset of
them; ``holds`` is that test, and a pushdown rule's condition and an
edge's feasibility both read a family through it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class CallSite(NamedTuple):
    """A call site, identified by enclosing method and source line.

    A named tuple, so hashing and comparison run in C: every history and
    context is a frozenset of call sites.  As a tuple it also equals, and
    hashes like, the plain pair ``(method, line)``.
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


def holds(family: CtxFamily, sites: CtxSet) -> bool:
    """Does some member of ``family`` lie entirely within ``sites``?"""
    return any(member <= sites for member in family)


def format_ctx(ctx: CtxSet) -> str:
    return ",".join(str(s) for s in sorted(ctx))


def format_family(family: CtxFamily) -> str:
    if EMPTY_CTX in family:
        return "any"
    members = sorted(family, key=lambda c: (len(c), sorted(c)))
    return "{" + ";".join(format_ctx(c) for c in members) + "}"
