"""Policy generation, emission, checking, and stack-inspection simulation.

``encode`` turns a program model into a conditional weighted pushdown
system whose runs are exactly the valid stacks of the program:

* every call edge becomes a push rule guarded by the edge's context
  family, generating the caller into the weight and recording the call
  site in the history; a call made by the privilege-asserting method
  additionally kills everything below it, because stack inspection stops
  at an asserted privilege;
* every interprocedural *return* edge of the dependency graph witnesses
  that its source method can finish and hand a value back to a call site:
  the source method gains a pop rule (marking it finished in the weight),
  and the receiving call site a swap rule resuming the caller.

Solving meet-over-all-paths from the entry to the check method yields a
set of digests, one per equivalence class of inspectable stacks: which
methods are live on the stack (generated minus finished, minus anything
shadowed by a privilege assertion), and which call sites were traversed
(the history).  ``generate_policy`` grants a permission to the live
methods of every digest that both traversed a checkpoint where the
permission originates and matches one of the permission's demand
contexts; the history carries enough of the route to decide both.  It
hands the solver the sites that a grant at each checkpoint reads, and
the solver cuts the histories to them, so digests that differ only in
sites no grant reads are one digest (see ``pushdown``).  The solver
keeps digests that share their kill bit, finished methods and history
as one digest, whose generated methods are the union of theirs.  It
decides the grants on
each digest's packed history and live methods, as
``PackedWeight.histories_and_lives`` reads them off the solver's result,
so the key layout stays in ``weights``; it decodes to method names only
the distinct live sets of the digests that match, once each, and the
result's ``weight`` decodes the whole digest set only when it is read.

The rest of the module closes the loop: render and parse policies, diff
a given policy against a generated one, and simulate the runtime
stack-inspection walk against a policy.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from .contexts import CallSite
from .errors import PolicyError
from .model import INTER_RETURN, ProgramModel, _strip_comment
from .permissions import Permission, PermissionUniverse
from .pushdown import ConditionalWPDS, Rule, movp
from .weights import DEFAULT_TUPLE_CAP, PackedWeight, Weight, WeightTuple, _members


def encode(model: ProgramModel) -> ConditionalWPDS:
    """Build the conditional weighted pushdown system for a model; every
    push records its call site in the history."""
    rules: list[Rule] = []
    empty: frozenset[str] = frozenset()
    for e in model.call_edges:
        # kill, gen, finished, history
        w = WeightTuple(
            e.caller == model.priv_method, frozenset((e.caller,)), empty, frozenset((e.site,))
        )
        rules.append(Rule(e.caller, (e.callee, e.site), e.ctx, w))
    # one pop per returning method and one swap per return site, in the
    # order first met: a dict used as an ordered set of rules
    returns: dict[Rule, None] = {}
    for d in model.dep_edges:
        if d.inter != INTER_RETURN:
            continue
        src = model.dep_nodes[d.src]
        dst = model.dep_nodes[d.dst]
        finished = WeightTuple(finished=frozenset({src.method}))
        returns[Rule(lhs=src.method, rhs=(), weight=finished)] = None
        returns[Rule(lhs=dst.site, rhs=(dst.method,))] = None
    rules.extend(returns)
    return ConditionalWPDS(rules=rules, start=model.entry_method)


# no protection domains: each method is its own.  Read-only, so no two
# policies share a mutable default
_NO_DOMAINS: Mapping[str, str] = MappingProxyType({})


class Policy(NamedTuple):
    """Per-method permission grants, plus enough model context to use them."""

    grants: dict[str, frozenset[Permission]]
    method_domains: Mapping[str, str] = _NO_DOMAINS
    system_methods: frozenset[str] = frozenset()

    def granted(self, method: str) -> frozenset[Permission]:
        return self.grants.get(method, frozenset())

    def domains(self) -> dict[str, frozenset[Permission]]:
        """Grants unioned per protection domain (default: one per method)."""
        out: dict[str, set[Permission]] = defaultdict(set)
        for method, perms in self.grants.items():
            out[self.method_domains.get(method, method)].update(perms)
        return {d: frozenset(ps) for d, ps in out.items()}


class PolicyResult(NamedTuple):
    """A generated policy and the packed digests it was read from."""

    policy: Policy
    digests: PackedWeight

    @property
    def weight(self) -> Weight:
        """The digests as a ``Weight``, decoded on every read."""
        return self.digests.decode()


def _model_policy(model: ProgramModel, grants: dict[str, set[Permission]]) -> Policy:
    """``grants`` as ``model``'s policy: with each method's protection
    domain, and the check and privilege methods as the system methods,
    which are granted nothing."""
    system = frozenset({model.check_method, model.priv_method})
    return Policy(
        grants={m: frozenset(ps) for m, ps in grants.items() if m not in system},
        method_domains={name: (m.domain or name) for name, m in model.methods.items()},
        system_methods=system,
    )


def _read_sites(universe: PermissionUniverse) -> dict[CallSite, set[CallSite]]:
    """Per checkpoint that permissions originate from, the call sites that
    a grant there reads: the checkpoint and every site of a demand context
    of the permissions it sources.  Their union is every site that grant
    extraction reads."""
    named: dict[CallSite, set[CallSite]] = {}
    for p, pairs in universe.sources.items():
        demanded = set().union(*universe.contexts[p])
        for site, _node in pairs:
            named.setdefault(site, {site}).update(demanded)
    return named


def _grants(solved: PackedWeight, universe: PermissionUniverse) -> dict[str, set[Permission]]:
    """Per method, the permissions that some digest of ``solved`` requires
    while the method is live.

    Each call-site bit of a history maps to the bitset of digests (bit i
    for the i-th) whose history holds it; the histories hold only the
    sites that extraction reads, so every bit indexed is one it needs.
    A permission's origin mask ORs its checkpoints' bitsets; each demand
    context then ANDs its sites' bitsets into what is left of that mask,
    so the empty context (``ANY_FAMILY``) keeps every origin digest, and
    a context naming a site the packing never interned keeps none.  The
    matching digests' live masks, ``gen & ~finished``, are collected per
    permission, and each distinct one is decoded to method names once,
    against one list of the packing's names.
    """
    # a site never interned gets bit 0, which no digest's history holds
    site_bit = solved.packing.bit.get
    digests = solved.histories_and_lives()
    by_site: dict[int, int] = defaultdict(int)
    for i, (history, _live) in enumerate(digests):
        bit = 1 << i
        while history:
            low = history & -history
            by_site[low] |= bit
            history ^= low
    by_live: dict[int, set[Permission]] = defaultdict(set)
    # ``origins`` rebuilds its frozensets on every access; the pairs in
    # ``sources`` name the same checkpoints without that cost
    for p, pairs in universe.sources.items():
        origin = 0
        for site, _node in pairs:
            origin |= by_site[site_bit(site, 0)]
        hit = 0
        for ctx in universe.contexts[p]:
            if hit == origin:
                break
            left = origin & ~hit
            for site in ctx:
                left &= by_site[site_bit(site, 0)]
                if not left:
                    break
            hit |= left
        # distinct live masks first: ints hash faster than permissions
        lives = set()
        while hit:
            low = hit & -hit
            _history, live = digests[low.bit_length() - 1]
            lives.add(live)
            hit ^= low
        for live in lives:
            by_live[live].add(p)
    grants: dict[str, set[Permission]] = {}
    if by_live:
        # the interned names in bit order, listed once for every mask
        names = list(solved.packing.bit)
        for live, perms in by_live.items():
            for method in _members(live, names):
                grants.setdefault(method, set()).update(perms)
    return grants


def generate_policy(
    model: ProgramModel,
    universe: PermissionUniverse,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> PolicyResult:
    """Solve the encoded system and extract minimal per-method grants.

    A digest requires a permission when its history contains a checkpoint
    the permission originates from *and* covers one of the permission's
    demand contexts.  The first clause keeps a permission demanded only
    behind a privilege boundary from leaking to stacks that never cross
    that boundary; the second keeps context-separated demands apart.

    Neither clause reads a site that no checkpoint or demand context
    names.  On a history that holds one checkpoint, a grant tests only
    the permissions it sources, so it reads only the checkpoint and their
    demand-context sites.  ``movp`` is handed those sites per checkpoint
    (``_read_sites``) and cuts the histories to them, so each grant is
    the same as from the exact solve; the ``pushdown`` module docstring
    says how, and where the cut per checkpoint is exact.  The solver also
    merges digests that share ``(kill, finished, history)`` into one
    whose ``gen`` is the union of theirs.  A method is live in a merged
    digest exactly when it is live in one of its members, so every grant
    stays as well (see ``weights``).  ``tuple_cap``, and the result's
    ``digests`` and ``weight``, count and hold the cut, merged digests,
    one per distinct key, not one per route.

    Both clauses are decided for all digests at once, on each digest's
    packed history and live methods, with bitsets of digests indexed by
    call-site bit.
    The methods live in a matching digest are decoded to names once per
    distinct live set; no digest is decoded whole, and the result's
    ``weight`` decodes them only when read.
    """
    solved = movp(
        encode(model),
        targets={model.check_method},
        tuple_cap=tuple_cap,
        reads=_read_sites(universe),
    )
    return PolicyResult(policy=_model_policy(model, _grants(solved, universe)), digests=solved)


# ---------------------------------------------------------------------------
# rendering and parsing


def emit_policy(policy: Policy, fmt: str = "table") -> str:
    """Render a policy as a sorted table or as Java-style grant blocks."""
    if fmt == "table":
        lines = []
        for method in sorted(policy.grants):
            for perm in sorted(policy.grants[method]):
                lines.append(f"method {method}: {perm}")
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "java":
        lines = []
        domains = policy.domains()
        for domain in sorted(domains):
            perms = domains[domain]
            if not perms:
                continue
            lines.append(f"grant codeBase {_java_quote(domain)} {{")
            for perm in sorted(perms):
                if perm.target is None:
                    lines.append(f"  permission {perm.ptype};")
                elif perm.action is None:
                    lines.append(
                        f"  permission {perm.ptype} {_java_quote(perm.target)};"
                    )
                else:
                    lines.append(
                        f"  permission {perm.ptype} {_java_quote(perm.target)},"
                        f" {_java_quote(perm.action)};"
                    )
            lines.append("};")
        return "\n".join(lines) + ("\n" if lines else "")
    raise PolicyError(f"unknown policy format {fmt!r}")


def _java_quote(text: str) -> str:
    """Quote ``text`` for a Java policy file, whose parser reads backslash escapes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_TABLE_LINE_RE = re.compile(r"^method\s+(\S+)\s*:\s*(.+)$")
_PERM_RE = re.compile(
    r'^([A-Za-z_$][A-Za-z0-9_$.]*)'
    r'(?:\(\s*"([^"]*)"\s*(?:,\s*"([^"]*)"\s*)?\))?$'
)


def parse_permission(text: str) -> Permission:
    m = _PERM_RE.match(text.strip())
    if not m:
        raise PolicyError(f"malformed permission {text.strip()!r}")
    ptype, target, action = m.groups()
    return Permission(ptype, target, action)


def parse_policy_table(text: str) -> Policy:
    """Parse the table format back into a policy.

    This inverts ``emit_policy`` on the grants only: a table carries
    neither ``method_domains`` nor ``system_methods``.  ``check_policy``
    needs only the grants, but ``simulate_inspection`` under a read-back
    table fails at the first system frame; restore those first, with
    ``given._replace(system_methods=generated.system_methods)``.
    """
    grants: dict[str, set[Permission]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _TABLE_LINE_RE.match(line)
        if not m:
            raise PolicyError(f"line {lineno}: expected `method <name>: <perm>`")
        method, perm_txt = m.groups()
        try:
            perm = parse_permission(perm_txt)
        except PolicyError as exc:
            raise PolicyError(f"line {lineno}: {exc}") from None
        grants.setdefault(method, set()).add(perm)
    return Policy(grants={m: frozenset(ps) for m, ps in grants.items()})


# ---------------------------------------------------------------------------
# checking


class CheckReport(NamedTuple):
    """Outcome of comparing a given policy against a generated one."""

    passed: bool
    deficits: dict[str, frozenset[Permission]]
    overgrants: dict[str, frozenset[Permission]]

    def lines(self) -> list[str]:
        out = []
        for method in sorted(self.deficits):
            for perm in sorted(self.deficits[method]):
                out.append(f"missing grant: method {method}: {perm}")
        return out


def check_policy(given: Policy, generated: Policy) -> CheckReport:
    """Pass iff every generated grant is covered by the given policy.

    Grants present in the given policy but never needed are reported as
    over-grants; they are informational (least-privilege hints), never a
    failure.
    """
    deficits: dict[str, frozenset[Permission]] = {}
    for method, needed in generated.grants.items():
        missing = needed - given.granted(method)
        if missing:
            deficits[method] = frozenset(missing)
    overgrants: dict[str, frozenset[Permission]] = {}
    for method, have in given.grants.items():
        extra = have - generated.granted(method)
        if extra:
            overgrants[method] = frozenset(extra)
    return CheckReport(
        passed=not deficits, deficits=deficits, overgrants=overgrants
    )


# ---------------------------------------------------------------------------
# stack-inspection simulation


class Frame(NamedTuple):
    """One stack frame: the executing method, and whether it asserted
    privilege for the call it made."""

    method: str
    privileged: bool = False


class InspectionResult(NamedTuple):
    passed: bool
    failed_at: str | None = None


def simulate_inspection(
    stack, perm: Permission, policy: Policy
) -> InspectionResult:
    """Walk a stack top-first the way the runtime access controller does.

    Frames of system methods (the check and privilege primitives) always
    pass; ``policy.system_methods`` names them, and a policy read back by
    ``parse_policy_table`` has none.  A frame that asserted privilege
    ends the walk with success: the assertion vouches for everything
    beneath it, so neither that frame nor anything below is consulted.
    Any other frame must hold the permission in the policy; the first one
    that does not fails the walk.  An empty stack passes vacuously.
    """
    for raw in stack:
        frame = raw if isinstance(raw, Frame) else Frame(*raw)
        if frame.privileged:
            return InspectionResult(True)
        if frame.method in policy.system_methods:
            continue
        if perm not in policy.granted(frame.method):
            return InspectionResult(False, failed_at=frame.method)
    return InspectionResult(True)
