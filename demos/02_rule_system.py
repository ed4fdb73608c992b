"""
Inside the solver: the weighted rule system and its digests
===========================================================
"""

import stackpol as sp
from stackpol.policy import encode
from stackpol.pushdown import movp

model = sp.running_example()

# Every call edge becomes a push rule: calling pushes the return site.
# A permission value that returns out of its maker adds a pop rule (the
# maker's frame leaves the stack) and a swap rule (control stands at the
# site just after the call).  Conditional edges keep their context
# condition, written between the brackets.
system = encode(model)
print(system.dump())
print()

# Rule weights are sets of digests (kill | gen | finished | history).
# gen collects methods put on the stack, finished collects methods whose
# frames already returned, history collects traversed call sites, and a
# kill of * is the privilege wipe: nothing below the asserting frame is
# visible to the walk.
push_into_priv = next(
    r for r in system.rules if r.kind == "push" and r.lhs == model.priv_method
)
print(f"privileged push: {push_into_priv}")
print()

# The meet over all paths into the check method folds rule weights along
# every derivation and combines the results.  The solver keeps digests
# as packed ints; decode() spells them out with method and site names.
weight = movp(system, targets={model.check_method}).decode()
print(f"{weight.width()} stack digests reach {model.check_method}:")
for digest in sorted(weight.tuples, key=lambda d: sorted(map(str, d.history))):
    on_stack = sorted(digest.gen - digest.finished)
    hist = ",".join(str(s) for s in sorted(digest.history, key=str))
    print(f"  on stack {on_stack}  after sites {{{hist}}}")
