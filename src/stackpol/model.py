"""Program model: context-sensitive call graph, dependency graph, facts.

The model is the analysis input.  It is parsed from a line-oriented text
format (one directive per line, ``#`` starts a comment outside quotes,
directives may appear in any order):

    method <name> [entry] [check] [priv] [domain=<name>]
    calledge <id> <caller> <line> <callee> ctx=any
    calledge <id> <caller> <line> <callee> ctx={<m>:<l>,<m>:<l>;<m>:<l>,...}
    depnode <id> <method> <line> kind=alloc form=<1|2|3> type=<T>
            [target=<var>] [action=<var>]
    depnode <id> <method> <line> kind=plain|callsite|return
    depedge <from-id> <to-id> [inter=call|return]
    checkarg <method>:<line> var=<name>
    pta <var>@<method> = {(<Type>, <depnode-id>, {<sites>}); ...}
    sa <var>@<method> = {("<literal>", {<sites>}); ...}

A call edge's context family (``ctx=``) lists the abstract calling contexts
under which the edge is feasible: alternatives are separated by ``;``, the
sites of one alternative by ``,``.  ``ctx=any`` means unconditional.
Exactly one method must carry each of the ``entry``, ``check`` (the
permission-checking primitive) and ``priv`` (the privilege-asserting
primitive) markers, and they must be three different methods.

Names, sites and attributes are resolved and cross-checked at parse
time.  Three checks wait for ``generate_permissions``, since only a
checkpoint's demand needs them: that each checkpoint has a ``checkarg``,
that its argument has ``pta`` facts, and that every string variable its
allocations read has ``sa`` facts.  A model that lacks one still parses,
serializes and dumps.

The parser reads the directives one kind at a time, in the order listed
above, and each kind in file order, so a directive may name anything the
file declares, on an earlier line or a later one.  Each check runs when
the line it is about is read, with two exceptions: unknown directives are
rejected before anything else, and the roles, then each call edge's
callee and context sites, are checked once the last call edge is read.
A file with several faults reports the first one met in that order.

Semantic queries live here too: route context families, and a lint for
declared contexts that no route covers.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .contexts import (
    ANY_FAMILY,
    CallSite,
    CtxFamily,
    CtxSet,
    format_ctx,
    format_family,
    normalize_family,
)
from .errors import ModelError

ALLOC = "alloc"
PLAIN = "plain"
CALLSITE = "callsite"
RETURN = "return"

INTER_CALL = "call"
INTER_RETURN = "return"

_NAME_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$.]*$")
_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass(frozen=True, slots=True)
class Method:
    name: str
    domain: str | None = None


@dataclass(frozen=True, slots=True)
class CallEdge:
    ident: str
    caller: str
    line: int
    callee: str
    ctx: CtxFamily = ANY_FAMILY
    # built once rather than on each read: the oracle reads it for every
    # edge of every path it enumerates
    site: CallSite = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ctx", normalize_family(self.ctx))
        object.__setattr__(self, "site", CallSite(self.caller, self.line))

    @property
    def unconditional(self) -> bool:
        return self.ctx == ANY_FAMILY


@dataclass(frozen=True, slots=True)
class DepNode:
    ident: str
    method: str
    line: int
    kind: str
    form: int | None = None
    perm_type: str | None = None
    target_var: str | None = None
    action_var: str | None = None
    site: CallSite = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "site", CallSite(self.method, self.line))


@dataclass(frozen=True, slots=True)
class DepEdge:
    src: str
    dst: str
    inter: str | None = None


@dataclass(frozen=True, slots=True)
class PtaTriple:
    """One points-to alternative: type, allocation node, calling context."""

    perm_type: str
    node: str
    ctx: CtxSet


@dataclass(frozen=True, slots=True)
class StringFact:
    """One string-analysis alternative: literal value, calling context."""

    value: str
    ctx: CtxSet


@dataclass(frozen=True)
class ProgramModel:
    methods: dict[str, Method]
    call_edges: tuple[CallEdge, ...]
    dep_nodes: dict[str, DepNode]
    dep_edges: tuple[DepEdge, ...]
    checkargs: dict[CallSite, str]
    pta: dict[tuple[str, str], tuple[PtaTriple, ...]]
    sa: dict[tuple[str, str], tuple[StringFact, ...]]
    entry_method: str = ""
    check_method: str = ""
    priv_method: str = ""


# ---------------------------------------------------------------------------
# parsing


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    out = []
    in_quotes = False
    for ch in line:
        if ch == '"':
            in_quotes = not in_quotes
        elif ch == "#" and not in_quotes:
            break
        out.append(ch)
    return "".join(out)


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ModelError(f"{what} must be an integer, got {text!r}", lineno)
    if value < 0:
        raise ModelError(f"{what} must be non-negative, got {value}", lineno)
    return value


def _parse_site(text: str, lineno: int) -> CallSite:
    text = text.strip()
    if ":" not in text:
        raise ModelError(f"call site must look like method:line, got {text!r}", lineno)
    method, _, line = text.rpartition(":")
    if not method:
        raise ModelError(f"call site {text!r} has an empty method name", lineno)
    return CallSite(method, _parse_int(line, "site line", lineno))


def _parse_sites(text: str, lineno: int) -> CtxSet:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(_parse_site(part, lineno) for part in text.split(","))


def _parse_family(text: str, lineno: int) -> CtxFamily:
    text = text.strip()
    if text == "any":
        return ANY_FAMILY
    if not (text.startswith("{") and text.endswith("}")):
        raise ModelError(f"context family must be `any` or braced, got {text!r}", lineno)
    body = text[1:-1].strip()
    if not body:
        raise ModelError(
            "empty context family; use ctx=any for an unconditional edge", lineno
        )
    members = []
    for member in body.split(";"):
        sites = _parse_sites(member, lineno)
        if not sites:
            raise ModelError("context family member is empty", lineno)
        members.append(sites)
    return frozenset(members)


_PTA_TRIPLE_RE = re.compile(
    r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*,\s*\{([^{}]*)\}\s*\)"
)
_SA_PAIR_RE = re.compile(r'\(\s*"([^"]*)"\s*,\s*\{([^{}]*)\}\s*\)')


def _parse_fact_set(rhs: str, item_re: re.Pattern, lineno: int) -> list:
    rhs = rhs.strip()
    if not (rhs.startswith("{") and rhs.endswith("}")):
        raise ModelError("fact set must be braced", lineno)
    body = rhs[1:-1]
    items = item_re.findall(body)
    # every parenthesized group must have matched; leftovers mean a typo
    leftover = item_re.sub("", body).replace(";", "").strip()
    if leftover or body.count("(") != len(items):
        raise ModelError(f"malformed fact set: {rhs!r}", lineno)
    if not items:
        raise ModelError("fact set is empty", lineno)
    return items


class _Parser:
    def __init__(self) -> None:
        self.methods: dict[str, Method] = {}
        self.call_edges: dict[str, CallEdge] = {}
        self.dep_nodes: dict[str, DepNode] = {}
        self.node_lines: dict[str, int] = {}
        self.dep_edges: set[tuple[str, str, str | None]] = set()
        self.checkargs: dict[CallSite, str] = {}
        self.pta: dict[tuple[str, str], tuple[PtaTriple, ...]] = {}
        self.sa: dict[tuple[str, str], tuple[StringFact, ...]] = {}
        # the methods marked with each role, in file order
        self.roles: dict[str, list[str]] = {"entry": [], "check": [], "priv": []}
        # set by close_call_graph, once every method and call edge is in
        self.entry = self.check = self.priv = ""
        self.sites: frozenset[CallSite] = frozenset()
        self.check_sites: frozenset[CallSite] = frozenset()

    def method(self, body: str, lineno: int) -> None:
        tokens = body.split()
        if not tokens:
            raise ModelError("method directive needs a name", lineno)
        name = tokens[0]
        if not _NAME_RE.match(name):
            raise ModelError(f"bad method name {name!r}", lineno)
        if name in self.methods:
            raise ModelError(f"duplicate method {name!r}", lineno)
        seen = set()
        domain = None
        for tok in tokens[1:]:
            if tok in self.roles:
                key = tok
            elif tok.startswith("domain="):
                key = "domain"
            else:
                raise ModelError(f"unknown method attribute {tok!r}", lineno)
            if key in seen:
                raise ModelError(f"duplicate attribute {key!r}", lineno)
            seen.add(key)
            if key == "domain":
                domain = tok[len("domain=") :]
                if not domain:
                    raise ModelError("empty domain name", lineno)
                if '"' in domain:
                    raise ModelError(f"domain name {domain!r} contains a quote", lineno)
            else:
                self.roles[key].append(name)
        self.methods[name] = Method(name, domain)

    def calledge(self, body: str, lineno: int) -> None:
        parts = body.split(None, 4)
        if len(parts) != 5 or not parts[4].startswith("ctx="):
            raise ModelError(
                "calledge needs: <id> <caller> <line> <callee> ctx=...", lineno
            )
        ident, caller, line_txt, callee, ctx_txt = parts
        if not _ID_RE.match(ident):
            raise ModelError(f"bad edge id {ident!r}", lineno)
        if ident in self.call_edges:
            raise ModelError(f"duplicate call edge id {ident!r}", lineno)
        for name in (caller, callee):
            if name not in self.methods:
                raise ModelError(f"unknown method {name!r}", lineno)
        self.call_edges[ident] = CallEdge(
            ident=ident,
            caller=caller,
            line=_parse_int(line_txt, "call line", lineno),
            callee=callee,
            ctx=_parse_family(ctx_txt[len("ctx=") :], lineno),
        )

    def close_call_graph(self, linenos: list[int]) -> None:
        """The checks that need every method and call edge: the three roles,
        then each edge's callee and context sites.  ``linenos`` are the
        calledge lines, one per edge in insertion order."""
        for role, found in self.roles.items():
            if len(found) != 1:
                raise ModelError(
                    f"exactly one {role} method required, found {len(found)}"
                )
        self.entry, self.check, self.priv = (found[0] for found in self.roles.values())
        if len({self.entry, self.check, self.priv}) != 3:
            raise ModelError("entry, check and priv must be three distinct methods")
        edges = self.call_edges.values()
        self.sites = frozenset(e.site for e in edges)
        self.check_sites = frozenset(e.site for e in edges if e.callee == self.check)
        for e, lineno in zip(edges, linenos):
            if e.callee == self.entry:
                raise ModelError(
                    f"entry method has an incoming call edge {e.ident!r}", lineno
                )
            if e.ctx != ANY_FAMILY:
                what = f"edge {e.ident!r}"
                for member in e.ctx:
                    self._known_sites(member, what, lineno)

    def _known_sites(self, ctx: CtxSet, what: str, lineno: int) -> None:
        for s in ctx:
            if s not in self.sites:
                raise ModelError(f"{what} context mentions unknown site {s}", lineno)

    def depnode(self, body: str, lineno: int) -> None:
        tokens = body.split()
        if len(tokens) < 4:
            raise ModelError(
                "depnode needs: <id> <method> <line> kind=... [attrs]", lineno
            )
        ident, method, line_txt = tokens[0], tokens[1], tokens[2]
        if not _ID_RE.match(ident):
            raise ModelError(f"bad node id {ident!r}", lineno)
        if ident in self.dep_nodes:
            raise ModelError(f"duplicate dep node id {ident!r}", lineno)
        if method not in self.methods:
            raise ModelError(f"unknown method {method!r}", lineno)
        attrs = {}
        for tok in tokens[3:]:
            if "=" not in tok:
                raise ModelError(f"expected key=value, got {tok!r}", lineno)
            key, _, value = tok.partition("=")
            if key in attrs:
                raise ModelError(f"duplicate attribute {key!r}", lineno)
            attrs[key] = value
        kind = attrs.pop("kind", None)
        if kind not in (ALLOC, PLAIN, CALLSITE, RETURN):
            raise ModelError(f"bad or missing node kind {kind!r}", lineno)
        form = perm_type = target_var = action_var = None
        if kind == ALLOC:
            form = _parse_int(attrs.pop("form", ""), "alloc form", lineno)
            if form not in (1, 2, 3):
                raise ModelError(f"alloc form must be 1, 2 or 3, got {form}", lineno)
            # a policy table names the type bare, so it must read back as a name
            perm_type = attrs.pop("type", "")
            if not _NAME_RE.match(perm_type):
                raise ModelError(f"alloc node needs type=<PermType>, got {perm_type!r}", lineno)
            target_var = attrs.pop("target", None)
            action_var = attrs.pop("action", None)
            if form == 1 and not (target_var and action_var):
                raise ModelError("form-1 alloc needs target= and action=", lineno)
            if form == 2 and not (target_var and not action_var):
                raise ModelError("form-2 alloc needs target= and no action=", lineno)
            if form == 3 and (target_var or action_var):
                raise ModelError("form-3 alloc takes neither target= nor action=", lineno)
        if attrs:
            raise ModelError(f"unknown depnode attributes {sorted(attrs)}", lineno)
        node = DepNode(
            ident=ident,
            method=method,
            line=_parse_int(line_txt, "node line", lineno),
            kind=kind,
            form=form,
            perm_type=perm_type,
            target_var=target_var,
            action_var=action_var,
        )
        if kind == CALLSITE and node.site not in self.sites:
            raise ModelError(f"callsite node {ident!r} is not at a call site", lineno)
        self.dep_nodes[ident] = node
        self.node_lines[ident] = lineno

    def depedge(self, body: str, lineno: int) -> None:
        tokens = body.split()
        if len(tokens) not in (2, 3):
            raise ModelError("depedge needs: <from-id> <to-id> [inter=call|return]", lineno)
        src, dst = tokens[0], tokens[1]
        inter = None
        if len(tokens) == 3:
            if not tokens[2].startswith("inter="):
                raise ModelError(f"expected inter=..., got {tokens[2]!r}", lineno)
            inter = tokens[2][len("inter=") :]
            if inter not in (INTER_CALL, INTER_RETURN):
                raise ModelError(f"inter must be call or return, got {inter!r}", lineno)
        for ident in (src, dst):
            if ident not in self.dep_nodes:
                raise ModelError(f"unknown dep node {ident!r}", lineno)
        key = (src, dst, inter)
        if key in self.dep_edges:
            raise ModelError(f"duplicate dep edge {src} -> {dst}", lineno)
        if inter == INTER_RETURN and self.dep_nodes[dst].site not in self.sites:
            raise ModelError(f"return dep edge target {dst!r} is not at a call site", lineno)
        if inter == INTER_CALL and self.dep_nodes[src].site not in self.sites:
            raise ModelError(f"call dep edge source {src!r} is not at a call site", lineno)
        if self.dep_nodes[dst].kind == ALLOC:
            raise ModelError(
                f"alloc node {dst!r} has incoming dep edges", self.node_lines[dst]
            )
        self.dep_edges.add(key)

    def checkarg(self, body: str, lineno: int) -> None:
        tokens = body.split()
        if len(tokens) != 2 or not tokens[1].startswith("var="):
            raise ModelError("checkarg needs: <method>:<line> var=<name>", lineno)
        site = _parse_site(tokens[0], lineno)
        var = tokens[1][len("var=") :]
        if not var:
            raise ModelError("empty checkarg variable", lineno)
        if site in self.checkargs:
            raise ModelError(f"duplicate checkarg for site {site}", lineno)
        if site not in self.check_sites:
            raise ModelError(f"checkarg site {site} does not call the check method", lineno)
        self.checkargs[site] = var

    def _fact_key(self, label: str, lhs: str, facts: dict, lineno: int) -> tuple[str, str]:
        lhs = lhs.strip()
        if "@" not in lhs:
            raise ModelError(f"fact key must look like var@method, got {lhs!r}", lineno)
        var, _, method = lhs.partition("@")
        var, method = var.strip(), method.strip()
        if not var or method not in self.methods:
            raise ModelError(f"bad fact key {lhs!r}", lineno)
        if (var, method) in facts:
            raise ModelError(f"duplicate {label} fact for {var}@{method}", lineno)
        return var, method

    def pta_fact(self, body: str, lineno: int) -> None:
        lhs, eq, rhs = body.partition("=")
        if not eq:
            raise ModelError("pta needs: <var>@<method> = {...}", lineno)
        key = self._fact_key("pta", lhs, self.pta, lineno)
        triples = [
            PtaTriple(ptype, node, _parse_sites(sites, lineno))
            for ptype, node, sites in _parse_fact_set(rhs, _PTA_TRIPLE_RE, lineno)
        ]
        for t in triples:
            if not _NAME_RE.match(t.perm_type):
                raise ModelError(f"bad permission type {t.perm_type!r}", lineno)
            if t.node not in self.dep_nodes:
                raise ModelError(f"pta fact points to unknown node {t.node!r}", lineno)
            if self.dep_nodes[t.node].kind != ALLOC:
                raise ModelError(f"pta fact points to non-alloc node {t.node!r}", lineno)
            declared = self.dep_nodes[t.node].perm_type
            if t.perm_type != declared:
                raise ModelError(
                    f"pta fact gives {t.node} type {t.perm_type}, but it "
                    f"allocates {declared}",
                    lineno,
                )
            self._known_sites(t.ctx, "pta", lineno)
        self.pta[key] = tuple(
            sorted(triples, key=lambda t: (t.perm_type, t.node, sorted(t.ctx)))
        )

    def sa_fact(self, body: str, lineno: int) -> None:
        lhs, eq, rhs = body.partition("=")
        if not eq:
            raise ModelError("sa needs: <var>@<method> = {...}", lineno)
        key = self._fact_key("sa", lhs, self.sa, lineno)
        facts = [
            StringFact(value, _parse_sites(sites, lineno))
            for value, sites in _parse_fact_set(rhs, _SA_PAIR_RE, lineno)
        ]
        for f in facts:
            self._known_sites(f.ctx, "sa", lineno)
        self.sa[key] = tuple(sorted(facts, key=lambda f: (f.value, sorted(f.ctx))))

    def model(self) -> ProgramModel:
        return ProgramModel(
            methods={name: self.methods[name] for name in sorted(self.methods)},
            call_edges=tuple(sorted(self.call_edges.values(), key=lambda e: e.ident)),
            dep_nodes={ident: self.dep_nodes[ident] for ident in sorted(self.dep_nodes)},
            dep_edges=tuple(
                DepEdge(src, dst, inter)
                for src, dst, inter in sorted(
                    self.dep_edges, key=lambda t: (t[0], t[1], t[2] or "")
                )
            ),
            checkargs={site: self.checkargs[site] for site in sorted(self.checkargs)},
            pta={key: self.pta[key] for key in sorted(self.pta)},
            sa={key: self.sa[key] for key in sorted(self.sa)},
            entry_method=self.entry,
            check_method=self.check,
            priv_method=self.priv,
        )


def parse_model(text: str) -> ProgramModel:
    """Parse and fully validate a model; raises ``ModelError`` on any flaw."""
    parser = _Parser()
    # dependency order: each kind's checks may use every kind before it
    handlers = {
        "method": parser.method,
        "calledge": parser.calledge,
        "depnode": parser.depnode,
        "depedge": parser.depedge,
        "checkarg": parser.checkarg,
        "pta": parser.pta_fact,
        "sa": parser.sa_fact,
    }
    by_kind: dict[str, list[tuple[str, int]]] = {word: [] for word in handlers}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        word, _, body = line.partition(" ")
        if word not in by_kind:
            raise ModelError(f"unknown directive {word!r}", lineno)
        by_kind[word].append((body.strip(), lineno))
    for word, handler in handlers.items():
        for body, lineno in by_kind[word]:
            handler(body, lineno)
        if word == "calledge":
            parser.close_call_graph([lineno for _, lineno in by_kind[word]])
    return parser.model()


def serialize_model(model: ProgramModel) -> str:
    """Canonical text form; ``parse_model`` of the output reproduces the model."""
    out: list[str] = []
    roles = {
        model.entry_method: "entry",
        model.check_method: "check",
        model.priv_method: "priv",
    }
    for name in sorted(model.methods):
        m = model.methods[name]
        parts = [f"method {name}"]
        if name in roles:
            parts.append(roles[name])
        if m.domain:
            parts.append(f"domain={m.domain}")
        out.append(" ".join(parts))
    for e in model.call_edges:
        out.append(
            f"calledge {e.ident} {e.caller} {e.line} {e.callee} "
            f"ctx={format_family(e.ctx)}"
        )
    for ident in sorted(model.dep_nodes):
        n = model.dep_nodes[ident]
        parts = [f"depnode {n.ident} {n.method} {n.line} kind={n.kind}"]
        if n.kind == ALLOC:
            parts.append(f"form={n.form} type={n.perm_type}")
            if n.target_var:
                parts.append(f"target={n.target_var}")
            if n.action_var:
                parts.append(f"action={n.action_var}")
        out.append(" ".join(parts))
    for e in model.dep_edges:
        suffix = f" inter={e.inter}" if e.inter else ""
        out.append(f"depedge {e.src} {e.dst}{suffix}")
    for site in sorted(model.checkargs):
        out.append(f"checkarg {site} var={model.checkargs[site]}")
    for (var, method), triples in model.pta.items():
        body = "; ".join(
            f"({t.perm_type}, {t.node}, {{{format_ctx(t.ctx)}}})" for t in triples
        )
        out.append(f"pta {var}@{method} = {{{body}}}")
    for (var, method), facts in model.sa.items():
        body = "; ".join(f'("{f.value}", {{{format_ctx(f.ctx)}}})' for f in facts)
        out.append(f"sa {var}@{method} = {{{body}}}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# semantic queries


def compute_phi_meth(model: ProgramModel) -> dict[str, CtxFamily]:
    """Abstract route contexts per method: least fixpoint over the call graph.

    Starts from the empty context at the entry and pushes each edge's site
    into every context reaching the caller.  No member is pruned even when
    another member is a subset: distinct members record distinct routes.
    """
    out_edges: dict[str, list[CallEdge]] = defaultdict(list)
    for e in model.call_edges:
        out_edges[e.caller].append(e)
    fam: dict[str, set[CtxSet]] = {name: set() for name in model.methods}
    start: CtxSet = frozenset()
    fam[model.entry_method].add(start)
    worklist: deque[tuple[str, CtxSet]] = deque([(model.entry_method, start)])
    while worklist:
        method, ctx = worklist.popleft()
        for e in out_edges[method]:
            grown = ctx | {e.site}
            if grown not in fam[e.callee]:
                fam[e.callee].add(grown)
                worklist.append((e.callee, grown))
    return {name: frozenset(members) for name, members in fam.items()}


def lint_model(model: ProgramModel, phi: dict[str, CtxFamily] | None = None) -> list[str]:
    """Warnings about declared contexts that can never hold.

    A context holds when it is a subset of the sites below the stack top,
    which are one of the method's routes in ``phi``; one that no route
    contains is dead.  ``dead-edge`` lists a conditional edge's dead members
    (``ctx=any`` holds below every stack, so it is never flagged);
    ``dead-fact`` flags a points-to or string fact whose context is dead.
    """
    if phi is None:
        phi = compute_phi_meth(model)

    def covered(ctx: CtxSet, method: str) -> bool:
        # a whole route is the usual cover, and one hash lookup finds it
        routes = phi[method]
        return ctx in routes or any(ctx <= r for r in routes)

    warnings: list[str] = []
    for e in model.call_edges:
        if e.unconditional:
            continue
        dead = [c for c in e.ctx if not covered(c, e.caller)]
        if dead:
            warnings.append(
                f"dead-edge: calledge {e.ident}: no route to {e.caller} covers "
                f"{format_family(frozenset(dead))}"
            )
    for label, facts in (("pta", model.pta), ("sa", model.sa)):
        for (var, method), entries in facts.items():
            for entry in entries:
                if not covered(entry.ctx, method):
                    warnings.append(
                        f"dead-fact: {label} {var}@{method}: no route to {method} "
                        f"covers {{{format_ctx(entry.ctx)}}}"
                    )
    return warnings
