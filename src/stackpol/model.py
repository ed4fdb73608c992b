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

The lines are read in one pass: each is split into tokens once, a
comment is stripped only from a line that holds ``#``, and the tokens
are filed under their directive word.  A model holds one ``CallSite``
per distinct method and line text, and one site set per distinct site
list text, shared by every call edge, dependency node, context family,
``checkarg``, ``pta`` and ``sa`` fact that names them.

Semantic queries live here too: route context families, and a lint for
declared contexts that no route covers.  The routes are enumerated as int
masks over the model's call sites; a method's family is decoded to site
sets only when it is read, and the lint tests masks, so it decodes none.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import NamedTuple

from .contexts import (
    ANY_FAMILY,
    CallSite,
    CtxFamily,
    CtxSet,
    format_ctx,
    format_family,
    normalize_family,
)
from .errors import EnumerationLimitError, ModelError
from .weights import _members

ALLOC = "alloc"
PLAIN = "plain"
CALLSITE = "callsite"
RETURN = "return"

INTER_CALL = "call"
INTER_RETURN = "return"

# the most route contexts compute_phi_meth keeps over all methods.  A
# depth-16 diamond ladder has 196,607; a random call DAG of 2000 methods
# passes it after about 0.25 s, at 172 MiB peak for the whole process,
# under Python 3.11 on 2 shared CPUs
ROUTE_BUDGET = 250_000

_NAME_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$.]*$")
_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class Method(NamedTuple):
    name: str
    domain: str | None = None


class CallEdge:
    """One call edge: ``caller`` calls ``callee`` at ``line`` when its
    context family ``ctx`` holds.

    The library's one hand-written slotted record; every other value type
    is a named tuple.  The oracle reads ``caller`` and ``site`` on every
    edge of every walk, and a named-tuple field costs about 11 ns more
    per read than a slot (Python 3.11.7: 4,000,000 reads take 0.024 s
    from a slot and 0.068 s from a named-tuple field).  As a named tuple,
    the edge raised the oracle's CPU time per pass over the ``ctx-ladder``
    benchmark from 7.7-8.4 ms to 8.4-11.1 ms (min of 15, three
    alternating processes, 2 shared CPUs).  So the edge keeps slots; it
    compares, hashes, shows and pickles as the tuple of its five fields,
    and is frozen.  ``site``, ``CallSite(caller, line)``, is built once
    rather than on each read, and is stored but neither compared nor
    shown.
    """

    __slots__ = ("ident", "caller", "line", "callee", "ctx", "site")

    def __init__(
        self, ident: str, caller: str, line: int, callee: str, ctx: CtxFamily = ANY_FAMILY
    ) -> None:
        _set_edge(self, ident, caller, line, callee, normalize_family(ctx), CallSite(caller, line))

    def _key(self) -> tuple:
        return (self.ident, self.caller, self.line, self.callee, self.ctx)

    def __eq__(self, other):
        if other.__class__ is not CallEdge:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "CallEdge(ident=%r, caller=%r, line=%r, callee=%r, ctx=%r)" % self._key()

    def __reduce__(self):
        return CallEdge, self._key()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen call edge")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen call edge")

    @property
    def unconditional(self) -> bool:
        return self.ctx == ANY_FAMILY


# each slot's ``__set__``, in ``__slots__`` order: past the frozen
# ``__setattr__``, for ``__init__`` and for the parser, which has already
# normalized each family and holds each shared site
_EDGE_SLOTS = tuple(getattr(CallEdge, name).__set__ for name in CallEdge.__slots__)


def _set_edge(edge: CallEdge, ident, caller, line, callee, ctx, site) -> CallEdge:
    """``edge`` with each of its slots set."""
    set_ident, set_caller, set_line, set_callee, set_ctx, set_site = _EDGE_SLOTS
    set_ident(edge, ident)
    set_caller(edge, caller)
    set_line(edge, line)
    set_callee(edge, callee)
    set_ctx(edge, ctx)
    set_site(edge, site)
    return edge


class DepNode(NamedTuple):
    """One dependency node; ``site`` is ``CallSite(method, line)``, which
    the parser shares with every directive that names it."""

    ident: str
    method: str
    line: int
    kind: str
    form: int | None
    perm_type: str | None
    target_var: str | None
    action_var: str | None
    site: CallSite


class DepEdge(NamedTuple):
    src: str
    dst: str
    inter: str | None = None


class PtaTriple(NamedTuple):
    """One points-to alternative: type, allocation node, calling context."""

    perm_type: str
    node: str
    ctx: CtxSet


class StringFact(NamedTuple):
    """One string-analysis alternative: literal value, calling context."""

    value: str
    ctx: CtxSet


class ProgramModel(NamedTuple):
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
    # int() would also take a sign, underscores, other scripts' digits and
    # leading zeros, and serialize_model would write them back as another text
    if not (text.isascii() and text.isdigit()) or text.startswith("0") and text != "0":
        raise ModelError(
            f"{what} must be a non-negative integer in the digits 0-9, "
            f"with no leading zero, got {text!r}",
            lineno,
        )
    try:
        return int(text)
    except ValueError:  # longer than sys.get_int_max_str_digits() allows
        raise ModelError(f"{what} has {len(text)} digits, too many to read", lineno) from None


_PTA_TRIPLE_RE = re.compile(
    r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*,\s*\{([^{}]*)\}\s*\)"
)
_SA_PAIR_RE = re.compile(r'\(\s*"([^"]*)"\s*,\s*\{([^{}]*)\}\s*\)')


def _parse_fact_set(rhs: str, item_re: re.Pattern, lineno: int) -> list[list[str]]:
    """The groups of each ``item_re`` match in a braced fact set."""
    rhs = rhs.strip()
    if not (rhs.startswith("{") and rhs.endswith("}")):
        raise ModelError("fact set must be braced", lineno)
    # one pass: the text between matches, then each match's groups
    parts = item_re.split(rhs[1:-1])
    step = item_re.groups + 1
    # every parenthesized group must have matched; leftovers mean a typo
    if "".join(parts[::step]).replace(";", "").strip():
        raise ModelError(f"malformed fact set: {rhs!r}", lineno)
    if len(parts) == 1:
        raise ModelError("fact set is empty", lineno)
    return [parts[i : i + step - 1] for i in range(1, len(parts), step)]


class _Parser:
    def __init__(self) -> None:
        self.methods: dict[str, Method] = {}
        self.call_edges: dict[str, CallEdge] = {}
        self.dep_nodes: dict[str, DepNode] = {}
        self.node_lines: dict[str, int] = {}
        # keyed by (src, dst, inter or ""); no inter= value is empty
        self.dep_edges: dict[tuple[str, str, str], DepEdge] = {}
        self.checkargs: dict[CallSite, str] = {}
        self.pta: dict[tuple[str, str], tuple[PtaTriple, ...]] = {}
        self.sa: dict[tuple[str, str], tuple[StringFact, ...]] = {}
        # the methods marked with each role, in file order
        self.roles: dict[str, list[str]] = {"entry": [], "check": [], "priv": []}
        # set by close_call_graph, once every method and call edge is in
        self.entry = self.check = self.priv = ""
        self.sites: frozenset[CallSite] = frozenset()
        self.check_sites: frozenset[CallSite] = frozenset()
        # one CallSite per distinct (method, line text), and one site set
        # per distinct text between braces or separators, shared by every
        # directive that names them
        self.site_at: dict[tuple[str, str], CallSite] = {}
        self.site_sets: dict[str, CtxSet] = {}

    def _site_at(self, method: str, line: str, what: str, lineno: int) -> CallSite:
        key = (method, line)
        site = self.site_at.get(key)
        if site is None:
            site = self.site_at[key] = CallSite(method, _parse_int(line, what, lineno))
        return site

    def _site(self, text: str, lineno: int) -> CallSite:
        text = text.strip()
        if ":" not in text:
            raise ModelError(f"call site must look like method:line, got {text!r}", lineno)
        method, _, line = text.rpartition(":")
        if not method:
            raise ModelError(f"call site {text!r} has an empty method name", lineno)
        return self._site_at(method, line, "site line", lineno)

    def _sites(self, text: str, lineno: int) -> CtxSet:
        """The sites of a comma-separated list; its text is the key."""
        sites = self.site_sets.get(text)
        if sites is None:
            parts = text.split(",") if text.strip() else ()
            sites = frozenset([self._site(part, lineno) for part in parts])
            self.site_sets[text] = sites
        return sites

    def _family(self, text: str, lineno: int) -> CtxFamily:
        """A ``ctx=`` value; its members are never empty, so it is normal."""
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
            sites = self._sites(member, lineno)
            if not sites:
                raise ModelError("context family member is empty", lineno)
            members.append(sites)
        return frozenset(members)

    # each directive's handler takes its line's tokens, directive word
    # first, the line itself, and its number

    def method(self, tokens: list[str], _line: str, lineno: int) -> None:
        if len(tokens) < 2:
            raise ModelError("method directive needs a name", lineno)
        name = tokens[1]
        if not _NAME_RE.match(name):
            raise ModelError(f"bad method name {name!r}", lineno)
        if name in self.methods:
            raise ModelError(f"duplicate method {name!r}", lineno)
        seen = set()
        domain = None
        for tok in tokens[2:]:
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

    def calledge(self, tokens: list[str], line: str, lineno: int) -> None:
        if len(tokens) < 6 or not tokens[5].startswith("ctx="):
            raise ModelError(
                "calledge needs: <id> <caller> <line> <callee> ctx=...", lineno
            )
        _word, ident, caller, line_txt, callee = tokens[:5]
        # a family may hold blanks; then it is the rest of the line
        ctx_txt = tokens[5] if len(tokens) == 6 else line.split(None, 5)[5]
        if not _ID_RE.match(ident):
            raise ModelError(f"bad edge id {ident!r}", lineno)
        if ident in self.call_edges:
            raise ModelError(f"duplicate call edge id {ident!r}", lineno)
        for name in (caller, callee):
            if name not in self.methods:
                raise ModelError(f"unknown method {name!r}", lineno)
        site = self._site_at(caller, line_txt, "call line", lineno)
        ctx = self._family(ctx_txt[len("ctx=") :], lineno)
        edge = object.__new__(CallEdge)
        self.call_edges[ident] = _set_edge(edge, ident, caller, site.line, callee, ctx, site)

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
            if e.ctx is not ANY_FAMILY:
                what = f"edge {e.ident!r}"
                for member in e.ctx:
                    self._known_sites(member, what, lineno)

    def _known_sites(self, ctx: CtxSet, what: str, lineno: int) -> None:
        if ctx <= self.sites:
            return
        for s in ctx:
            if s not in self.sites:
                raise ModelError(f"{what} context mentions unknown site {s}", lineno)

    def depnode(self, tokens: list[str], _line: str, lineno: int) -> None:
        if len(tokens) < 5:
            raise ModelError(
                "depnode needs: <id> <method> <line> kind=... [attrs]", lineno
            )
        _word, ident, method, line_txt = tokens[:4]
        if not _ID_RE.match(ident):
            raise ModelError(f"bad node id {ident!r}", lineno)
        if ident in self.dep_nodes:
            raise ModelError(f"duplicate dep node id {ident!r}", lineno)
        if method not in self.methods:
            raise ModelError(f"unknown method {method!r}", lineno)
        attrs = {}
        for tok in tokens[4:]:
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
        site = self._site_at(method, line_txt, "node line", lineno)
        if kind == CALLSITE and site not in self.sites:
            raise ModelError(f"callsite node {ident!r} is not at a call site", lineno)
        self.dep_nodes[ident] = DepNode(
            ident, method, site.line, kind, form, perm_type, target_var, action_var, site
        )
        self.node_lines[ident] = lineno

    def depedge(self, tokens: list[str], _line: str, lineno: int) -> None:
        if len(tokens) not in (3, 4):
            raise ModelError("depedge needs: <from-id> <to-id> [inter=call|return]", lineno)
        src, dst = tokens[1], tokens[2]
        inter = None
        if len(tokens) == 4:
            if not tokens[3].startswith("inter="):
                raise ModelError(f"expected inter=..., got {tokens[3]!r}", lineno)
            inter = tokens[3][len("inter=") :]
            if inter not in (INTER_CALL, INTER_RETURN):
                raise ModelError(f"inter must be call or return, got {inter!r}", lineno)
        for ident in (src, dst):
            if ident not in self.dep_nodes:
                raise ModelError(f"unknown dep node {ident!r}", lineno)
        key = (src, dst, inter or "")
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
        self.dep_edges[key] = DepEdge(src, dst, inter)

    def checkarg(self, tokens: list[str], _line: str, lineno: int) -> None:
        if len(tokens) != 3 or not tokens[2].startswith("var="):
            raise ModelError("checkarg needs: <method>:<line> var=<name>", lineno)
        site = self._site(tokens[1], lineno)
        var = tokens[2][len("var=") :]
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

    def pta_fact(self, _tokens: list[str], line: str, lineno: int) -> None:
        lhs, eq, rhs = line.lstrip()[len("pta") :].partition("=")
        if not eq:
            raise ModelError("pta needs: <var>@<method> = {...}", lineno)
        key = self._fact_key("pta", lhs, self.pta, lineno)
        triples = [
            PtaTriple(ptype, node, self._sites(sites, lineno))
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
        if len(triples) > 1:
            triples.sort(key=lambda t: (t.perm_type, t.node, sorted(t.ctx)))
        self.pta[key] = tuple(triples)

    def sa_fact(self, _tokens: list[str], line: str, lineno: int) -> None:
        lhs, eq, rhs = line.lstrip()[len("sa") :].partition("=")
        if not eq:
            raise ModelError("sa needs: <var>@<method> = {...}", lineno)
        key = self._fact_key("sa", lhs, self.sa, lineno)
        facts = [
            StringFact(value, self._sites(sites, lineno))
            for value, sites in _parse_fact_set(rhs, _SA_PAIR_RE, lineno)
        ]
        for f in facts:
            self._known_sites(f.ctx, "sa", lineno)
        if len(facts) > 1:
            facts.sort(key=lambda f: (f.value, sorted(f.ctx)))
        self.sa[key] = tuple(facts)

    def model(self) -> ProgramModel:
        return ProgramModel(
            methods=dict(sorted(self.methods.items())),
            call_edges=tuple(dict(sorted(self.call_edges.items())).values()),
            dep_nodes=dict(sorted(self.dep_nodes.items())),
            dep_edges=tuple(dict(sorted(self.dep_edges.items())).values()),
            checkargs=dict(sorted(self.checkargs.items())),
            pta=dict(sorted(self.pta.items())),
            sa=dict(sorted(self.sa.items())),
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
    by_kind: dict[str, list[tuple[list[str], str, int]]] = {word: [] for word in handlers}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = _strip_comment(line)
        tokens = line.split()
        if tokens:
            lines = by_kind.get(tokens[0])
            if lines is None:
                raise ModelError(f"unknown directive {tokens[0]!r}", lineno)
            lines.append((tokens, line, lineno))
    for word, handler in handlers.items():
        for tokens, line, lineno in by_kind[word]:
            handler(tokens, line, lineno)
        if word == "calledge":
            parser.close_call_graph([lineno for _t, _l, lineno in by_kind[word]])
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


class RouteFamilies(Mapping[str, CtxFamily]):
    """Each method's route contexts, as ``compute_phi_meth`` returns them.

    A route is an int mask over the model's call sites: ``bit[s]`` is site
    ``s``'s bit, and ``sites`` lists the sites by bit, in call-edge order.
    ``masks[m]`` holds ``m``'s routes in the order they were found, a dict
    used as an ordered set.  Reading ``self[m]`` decodes ``m``'s family
    once and keeps it; lint tests contexts against the masks and decodes
    nothing.
    """

    __slots__ = ("masks", "bit", "sites", "_decoded")

    def __init__(self, masks: dict[str, dict[int, None]], bit: dict[CallSite, int]):
        self.masks = masks
        self.bit = bit
        self.sites = tuple(bit)
        self._decoded: dict[str, CtxFamily] = {}

    def __getitem__(self, method: str) -> CtxFamily:
        family = self._decoded.get(method)
        if family is None:
            # a set grown in discovery order, then frozen: tests/randmodels.py
            # draws routes in this iteration order, which
            # tests/bruteforce.py::phi_meth_by_sets pins
            members = {_members(mask, self.sites) for mask in self.masks[method]}
            family = self._decoded[method] = frozenset(members)
        return family

    def __iter__(self):
        return iter(self.masks)

    def __len__(self) -> int:
        return len(self.masks)


def compute_phi_meth(model: ProgramModel) -> RouteFamilies:
    """Abstract route contexts per method: least fixpoint over the call graph.

    Starts from the empty context at the entry and pushes each edge's site
    into every context reaching the caller.  No member is pruned even when
    another member is a subset: distinct members record distinct routes.

    Each method keeps the routes it gained since it was last taken, and
    methods are taken oldest first.  A taken batch is extended through
    each out-edge by one OR with the edge's site bit, so every (route,
    out-edge) pair is extended once; a self-loop's new routes wait in a
    fresh batch.  Past ``ROUTE_BUDGET`` routes, counted over all methods,
    raises ``EnumerationLimitError``.  The routes are int masks, so the
    enumeration builds no object per route; see ``RouteFamilies``.
    """
    bit: dict[CallSite, int] = {}
    out_edges: dict[str, list[tuple[str, int]]] = {name: [] for name in model.methods}
    for e in model.call_edges:
        out_edges[e.caller].append((e.callee, bit.setdefault(e.site, 1 << len(bit))))
    fam: dict[str, dict[int, None]] = {name: {} for name in model.methods}
    fam[model.entry_method][0] = None
    # oldest first: a dict keeps the order in which each method last
    # became pending, and that order fixes the routes' discovery order
    pending: dict[str, list[int]] = {model.entry_method: [0]}
    routes = 1
    while pending:
        method = next(iter(pending))
        batch = pending.pop(method)
        for callee, site in out_edges[method]:
            members = fam[callee]
            before = len(members)
            gained = pending.setdefault(callee, [])
            for ctx in batch:
                grown = ctx | site
                if grown not in members:
                    members[grown] = None
                    gained.append(grown)
            if not gained:
                del pending[callee]
            routes += len(members) - before
            if routes > ROUTE_BUDGET:
                raise EnumerationLimitError(
                    f"more than {ROUTE_BUDGET} route contexts; the call graph "
                    "has too many distinct routes to enumerate"
                )
    return RouteFamilies(fam, bit)


def lint_model(model: ProgramModel, phi: RouteFamilies | None = None) -> list[str]:
    """Warnings about declared contexts that can never hold.

    A context holds when it is a subset of the sites below the stack top,
    which are one of the method's routes in ``phi``; one that no route
    contains is dead.  ``dead-edge`` lists a conditional edge's dead members
    (``ctx=any`` holds below every stack, so it is never flagged);
    ``dead-fact`` flags a points-to or string fact whose context is dead.
    ``phi`` is what ``compute_phi_meth(model)`` returns, computed here when
    it is not given; a context is tested as a mask against the routes'
    masks, so no route is decoded.
    """
    if phi is None:
        phi = compute_phi_meth(model)
    bit, masks = phi.bit, phi.masks

    def covered(ctx: CtxSet, method: str) -> bool:
        c = 0
        for site in ctx:
            if site not in bit:
                return False  # no route holds a site that no call edge has
            c |= bit[site]
        # a whole route is the usual cover, and one hash lookup finds it;
        # c & r == c builds no ~r, a negative int per route
        routes = masks[method]
        return c in routes or any(c & r == c for r in routes)

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
