"""
Calling contexts as site sets
=============================

A calling context is really a sequence of call sites from the entry.
The analysis abstracts each sequence to the set of sites it traverses;
a family of such sets stands for "one of these routes".  This script
pokes at the abstraction directly.
"""

from stackpol import CallSite, compute_phi_meth, running_example
from stackpol.contexts import (
    Condition,
    abstract_ctx,
    abstract_ctx_set,
    concretize,
    family_leq,
    format_ctx,
    format_family,
    set_leq,
)

z1 = CallSite("main", 1)
z3 = CallSite("connectFaculty", 30)
z5 = CallSite("checkConnect", 5)

# sequences that traverse the same sites collapse to one set
print(format_ctx(abstract_ctx((z1, z3, z5))))
print(abstract_ctx((z1, z3, z1, z5)) == abstract_ctx((z1, z3, z5)))

# abstraction of a set of sequences keeps the distinct routes apart
fam = abstract_ctx_set([(z1, z3), (z1, z5)])
print(format_family(fam))

# concretization enumerates the finite sequences a member stands for
routes = sorted(concretize([frozenset({z1, z3})]), key=lambda s: (len(s), s))
for seq in routes[:6]:
    print("  " + ("->".join(str(s) for s in seq) or "(empty)"))

# the two sides form an adjunction: comparing abstractions of routes is
# the same as comparing the routes against the concretized family
ss = [(z1, z3, z5)]
fam = frozenset({frozenset({z1, z3, z5})})
gamma = set(concretize(list(fam)))
print(family_leq(abstract_ctx_set(ss), fam), set_leq(ss, gamma))

# per-method route families for the bundled model
model = running_example()
phi = compute_phi_meth(model)
for method in ("checkConnect", "checkAccess", "main"):
    print(f"{method}: {format_family(phi[method])}")

# a condition on a rule asks whether some member is covered by the sites
# currently on the stack below the top
cond = Condition(frozenset({frozenset({z1, z3})}))
print(cond.holds(frozenset({z1, z3, z5})))  # True, member covered
print(cond.holds(frozenset({z1, z5})))      # False
