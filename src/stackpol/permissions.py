"""Permission generation from checkpoint arguments and value facts.

A *checkpoint* is a call site whose edge targets the designated check
method.  The argument passed at a checkpoint is resolved through the
points-to facts to the allocation nodes it may denote; each allocation's
form says how much of the permission's content is statically known:

* form 1 allocates from a target and an action string variable,
* form 2 from a target variable only,
* form 3 from neither (the bare permission type is all we learn).

String facts pair a possible constant value with the calling context in
which the variable holds it.  Forms 1 and 2 read those facts.  Form 3
learns nothing from them: any route that reaches the allocating method
``m`` can produce the (opaque) permission.  Its demand family is one
singleton ``{s}`` per call site ``s`` of an edge whose callee is ``m``,
or the empty context alone when ``m`` is the entry, which no edge calls.

That family is exact, not an approximation of ``m``'s route contexts
(``model.compute_phi_meth``): a stack history matches one exactly when
it matches the other.  A history, as policy extraction reads it, is the
set of sites pushed along one run of the encoded system, returned calls
included, so every site in it was pushed on top of a real call chain
from the entry.

* If the history holds a site ``s`` into ``m``, the sites that were
  below ``s`` when it was pushed are in the history too.  They name a
  call chain from the entry to ``s``'s method, and with the edge from
  ``s`` to ``m`` they form a route to ``m``.  This holds even when the
  run's push at ``s`` went to another callee of ``s``: the route
  families ignore conditions and prune nothing, so that route is one of
  ``m``'s.
* If the history covers a route to ``m`` and ``m`` is not the entry,
  the route's last edge calls ``m``, so its site is a site into ``m``.

A permission's family is the union over its sources, and a history
matches a union when it matches a member, so the equivalence carries
over.  ``policy.generate_policy`` reads histories cut to the sites that
checkpoints and demand contexts name; a cut history holds a named site
exactly when the whole one does, so it matches the same singletons.
The oracle's cover test for form 3 is true under either family: an
allocating stack is a route to ``m`` whose last edge calls ``m``.
The singletons cost one entry per call site into ``m`` where the routes
cost one per path, which is exponential in the call graph's diamonds.

Alongside the permission set, generation records per permission the
family of contexts under which it can be demanded (used to gate policy
extraction) and the checkpoint sites it originated from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contexts import CallSite, CtxFamily, CtxSet, format_ctx
from .errors import ModelError
from .model import ProgramModel


@dataclass(frozen=True, slots=True)
class Permission:
    """A permission demand: type name plus optional target and action."""

    ptype: str
    target: str | None = None
    action: str | None = None

    def _key(self) -> tuple[str, bool, str, bool, str]:
        # an absent value sorts before every present one, "" included
        return (
            self.ptype,
            self.target is not None,
            self.target or "",
            self.action is not None,
            self.action or "",
        )

    def __lt__(self, other: "Permission") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        if self.target is None:
            return self.ptype
        if self.action is None:
            return f'{self.ptype}("{self.target}")'
        return f'{self.ptype}("{self.target}","{self.action}")'


@dataclass(frozen=True, slots=True)
class PermissionUniverse:
    """Generated permissions with their demand contexts and provenance.

    ``sources`` maps each permission to the (checkpoint site, allocation
    node) pairs it was generated from: the checkpoint demanded it, and the
    allocation created it.  ``origins`` projects the checkpoint sites out.
    """

    perms: frozenset[Permission]
    contexts: dict[Permission, CtxFamily]
    sources: dict[Permission, frozenset[tuple[CallSite, str]]]
    diagnostics: tuple[str, ...] = ()

    @property
    def origins(self) -> dict[Permission, frozenset[CallSite]]:
        return {
            p: frozenset(site for site, _node in pairs)
            for p, pairs in self.sources.items()
        }

    def sorted_perms(self) -> list[Permission]:
        return sorted(self.perms)


def checkpoints(model: ProgramModel) -> frozenset[CallSite]:
    """Call sites of edges that invoke the check method."""
    return frozenset(
        e.site for e in model.call_edges if e.callee == model.check_method
    )


def _sa_facts(model: ProgramModel, var: str, method: str, node_id: str):
    facts = model.sa.get((var, method))
    if facts is None:
        raise ModelError(
            f"allocation node {node_id} reads string variable {var} in "
            f"{method}, but the model has no sa facts for it"
        )
    return facts


def generate_permissions(
    model: ProgramModel,
    phi_meth: dict[str, CtxFamily] | None = None,
) -> PermissionUniverse:
    """Derive the permission universe demanded at the model's checkpoints.

    ``phi_meth`` is accepted for existing callers and ignored: form-3
    demand is read off the call edges, not the route contexts.
    """
    # form-3 demand per allocating method (see the module docstring)
    into: dict[str, set[CtxSet]] = {model.entry_method: {frozenset()}}
    for e in model.call_edges:
        into.setdefault(e.callee, set()).add(frozenset({e.site}))

    contexts: dict[Permission, set[CtxSet]] = {}
    sources: dict[Permission, set[tuple[CallSite, str]]] = {}
    diagnostics: list[str] = []

    def add(
        perm: Permission, ctxs: set[CtxSet], site: CallSite, node_id: str
    ) -> None:
        contexts.setdefault(perm, set()).update(ctxs)
        sources.setdefault(perm, set()).add((site, node_id))

    for site in sorted(checkpoints(model)):
        var = model.checkargs.get(site)
        if var is None:
            raise ModelError(
                f"checkpoint {site} has no checkarg binding for the "
                "permission argument"
            )
        triples = model.pta.get((var, site.method))
        if triples is None:
            raise ModelError(
                f"no pta facts for checkpoint argument {var} at {site}"
            )
        for triple in triples:
            node = model.dep_nodes[triple.node]
            if node.form == 3:
                add(
                    Permission(triple.perm_type),
                    into.get(node.method, set()),
                    site,
                    node.ident,
                )
                continue
            targets = _sa_facts(model, node.target_var, node.method, node.ident)
            actions = (
                _sa_facts(model, node.action_var, node.method, node.ident)
                if node.form == 1
                else (None,)
            )
            for tv in targets:
                for av in actions:
                    if av is None or tv.ctx == av.ctx:
                        add(
                            Permission(
                                triple.perm_type,
                                tv.value,
                                None if av is None else av.value,
                            ),
                            {tv.ctx},
                            site,
                            node.ident,
                        )
                    else:
                        diagnostics.append(
                            f"skipped pairing at {node.ident}: target "
                            f'"{tv.value}" under {{{format_ctx(tv.ctx)}}} '
                            f'vs action "{av.value}" under '
                            f"{{{format_ctx(av.ctx)}}} (contexts differ)"
                        )

    return PermissionUniverse(
        perms=frozenset(contexts),
        contexts={p: frozenset(cs) for p, cs in contexts.items()},
        sources={p: frozenset(ss) for p, ss in sources.items()},
        diagnostics=tuple(dict.fromkeys(diagnostics)),
    )
