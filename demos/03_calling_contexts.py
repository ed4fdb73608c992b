"""
Calling contexts as site sets
=============================

A calling context is really a sequence of call sites from the entry.
The analysis abstracts each sequence to the set of sites it traverses;
a family of such sets stands for "one of these routes".  This script
prints the route families of the bundled model and tests a call edge's
condition against them.
"""

from stackpol import CallSite, compute_phi_meth, running_example
from stackpol.contexts import format_family, holds

# per-method route families for the bundled model: one member per
# distinct set of sites on the routes from the entry
model = running_example()
phi = compute_phi_meth(model)
for method in ("checkConnect", "checkAccess", "main"):
    print(f"{method}: {format_family(phi[method])}")

# an edge's family is the condition on its push rule: it holds when some
# member is covered by the sites currently on the stack below the top;
# order and repetition do not matter
(edge,) = [e for e in model.call_edges if e.caller == model.priv_method]
print(f"{edge.caller} -> {edge.callee} needs {format_family(edge.ctx)}")
for route in sorted(phi[edge.caller], key=sorted):
    print(f"  route {format_family(frozenset({route}))}: {holds(edge.ctx, route)}")
mixed = frozenset({CallSite("main", 1), CallSite("connectStudent", 36)})
print(f"  stack {format_family(frozenset({mixed}))}: {holds(edge.ctx, mixed)}")
