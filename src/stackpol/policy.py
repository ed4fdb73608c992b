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
solves a system whose push rules record only the sites that some
checkpoint or demand context names, ``encode(model, sites=...)``, so
digests that differ only in sites no grant reads are one digest; plain
``encode(model)`` keeps every site.  It decides the grants on the
solver's packed digests and decodes to method names only the distinct
live sets of the digests that match, once each; the result's ``weight``
decodes the whole digest set only when it is read.

The rest of the module closes the loop: render and parse policies, diff
a given policy against a generated one, and simulate the runtime
stack-inspection walk against a policy.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field

from .contexts import CallSite
from .errors import PolicyError
from .model import INTER_RETURN, ProgramModel, _strip_comment
from .permissions import Permission, PermissionUniverse
from .pushdown import ConditionalWPDS, Rule, movp
from .weights import DEFAULT_TUPLE_CAP, ONE, PackedWeight, Weight, WeightTuple


def encode(
    model: ProgramModel, sites: frozenset[CallSite] | None = None
) -> ConditionalWPDS:
    """Build the conditional weighted pushdown system for a model.

    With ``sites``, a push rule records its call site in the history only
    when ``sites`` holds it; without, every push records its site.
    """
    rules: list[Rule] = []
    for e in model.call_edges:
        w = Weight(
            frozenset(
                {
                    WeightTuple(
                        kill=e.caller == model.priv_method,
                        gen=frozenset({e.caller}),
                        history=(
                            frozenset({e.site})
                            if sites is None or e.site in sites
                            else frozenset()
                        ),
                    )
                }
            )
        )
        rules.append(Rule(lhs=e.caller, rhs=(e.callee, e.site), cond=e.ctx, weight=w))
    seen: set[tuple] = set()
    for d in model.dep_edges:
        if d.inter != INTER_RETURN:
            continue
        src = model.dep_nodes[d.src]
        dst = model.dep_nodes[d.dst]
        pop = Rule(
            lhs=src.method,
            rhs=(),
            weight=Weight(
                frozenset({WeightTuple(finished=frozenset({src.method}))})
            ),
        )
        swap = Rule(lhs=dst.site, rhs=(dst.method,), weight=ONE)
        for r in (pop, swap):
            key = (r.lhs, r.rhs)
            if key not in seen:
                seen.add(key)
                rules.append(r)
    return ConditionalWPDS(rules=rules, start=model.entry_method)


@dataclass(frozen=True, slots=True)
class Policy:
    """Per-method permission grants, plus enough model context to use them."""

    grants: dict[str, frozenset[Permission]]
    method_domains: dict[str, str] = field(default_factory=dict)
    system_methods: frozenset[str] = frozenset()

    def granted(self, method: str) -> frozenset[Permission]:
        return self.grants.get(method, frozenset())

    def domains(self) -> dict[str, frozenset[Permission]]:
        """Grants unioned per protection domain (default: one per method)."""
        out: dict[str, set[Permission]] = defaultdict(set)
        for method, perms in self.grants.items():
            out[self.method_domains.get(method, method)].update(perms)
        return {d: frozenset(ps) for d, ps in out.items()}


@dataclass(frozen=True, slots=True)
class PolicyResult:
    """A generated policy and the packed digests it was read from."""

    policy: Policy
    digests: PackedWeight

    @property
    def weight(self) -> Weight:
        """The digests as a ``Weight``, decoded on every read."""
        return self.digests.decode()


def _method_domains(model: ProgramModel) -> dict[str, str]:
    return {
        name: (m.domain or name) for name, m in model.methods.items()
    }


def _read_sites(universe: PermissionUniverse) -> frozenset[CallSite]:
    """The call sites that grant extraction reads: the checkpoints that
    permissions originate from and every site of a demand context."""
    named = {site for pairs in universe.sources.values() for site, _node in pairs}
    for ctxs in universe.contexts.values():
        named.update(*ctxs)
    return frozenset(named)


def _grants(
    solved: PackedWeight, universe: PermissionUniverse, hidden: int
) -> dict[str, set[Permission]]:
    """Per method, the permissions that some digest of ``solved`` requires
    while the method is live; ``hidden`` masks methods never granted.

    Each call-site bit of a history maps to the bitset of digests (bit i
    for the i-th) whose history holds it; the histories hold only the
    sites that extraction reads, so every bit indexed is one it needs.
    A permission's origin mask ORs its checkpoints' bitsets; each demand
    context then ANDs its sites' bitsets into what is left of that mask,
    so the empty context (``ANY_FAMILY``) keeps every origin digest, and
    a context naming a site the packing never interned keeps none.  The
    matching digests' live masks, ``gen & ~finished``, are collected per
    permission, and each distinct one is decoded to method names once.
    """
    # a site never interned gets bit 0, which no digest's history holds
    site_bit = solved.packing.site_bit.get
    digests = list(solved.digests)
    by_site: dict[int, int] = defaultdict(int)
    for i, (_kill, _gen, _fin, history) in enumerate(digests):
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
            _kill, gen, fin, _history = digests[low.bit_length() - 1]
            lives.add(gen & ~fin)
            hit ^= low
        for live in lives:
            by_live[live].add(p)
    grants: dict[str, set[Permission]] = {}
    for live, perms in by_live.items():
        for method in solved.packing.methods(live & ~hidden):
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
    names, so the system is encoded with each history cut to the sites
    that do (``encode(model, sites=...)``).  History is a union along
    the path, so cutting each rule's history cuts every path's, and the
    saturation explores the same pairs, since conditions read the
    annotations, not the weights.  Digests that differ only in unread
    sites merge, and each grant is the same as from the exact solve.
    ``tuple_cap``, and the result's ``digests`` and ``weight``, count and
    hold the cut digests; ``encode(model)`` stays exact.

    Both clauses are decided for all digests at once, on the solver's
    packed digests, with bitsets of digests indexed by call-site bit.
    The methods live in a matching digest are decoded to names once per
    distinct live set; no digest is decoded whole, and the result's
    ``weight`` decodes them only when read.
    """
    system = encode(model, sites=_read_sites(universe))
    solved = movp(system, targets={model.check_method}, tuple_cap=tuple_cap)
    hidden = {model.check_method, model.priv_method}
    grants = _grants(
        solved, universe, sum(solved.packing.method_bit.get(m, 0) for m in hidden)
    )
    policy = Policy(
        grants={m: frozenset(ps) for m, ps in grants.items()},
        method_domains=_method_domains(model),
        system_methods=frozenset(hidden),
    )
    return PolicyResult(policy=policy, digests=solved)


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
    ``dataclasses.replace(given, system_methods=generated.system_methods)``.
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


@dataclass(frozen=True, slots=True)
class CheckReport:
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


@dataclass(frozen=True, slots=True)
class Frame:
    """One stack frame: the executing method, and whether it asserted
    privilege for the call it made."""

    method: str
    privileged: bool = False


@dataclass(frozen=True, slots=True)
class InspectionResult:
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
