"""
Cross-checking the engine against brute-force enumeration
=========================================================

The package carries a second, independent pipeline that never touches
the pushdown machinery: enumerate bounded call paths, walk the value
flows, replay each flow's call and return crossings on the stacks that
can host it, and union up grants.  Diffing both
pipelines is the main correctness instrument.
"""

import stackpol as sp
from stackpol.oracle import dep_paths, extract

model = sp.running_example()
universe = sp.generate_permissions(model)

# valid call paths into the check method; a path starting at the
# privilege asserter is truncated and remembers which full stacks
# validate it
print("paths reaching the check:")
for path in sp.enum_vpaths(model, model.check_method):
    ids = "".join(f"({e.ident})" for e in path.edges)
    if path.truncated:
        exts = ", ".join(
            "".join(f"({e.ident})" for e in ext) for ext in path.extensions
        )
        print(f"  {ids} truncated, stands for: {exts}")
    else:
        print(f"  {ids}")
print()

# value flows from an allocation to a checkpoint, and their crossing
# words; a return crossing must pop the site the hosting path actually
# opened
for flow in dep_paths(model):
    word = extract(model, flow)
    rendered = " ".join(f"{inter}@{site}" for inter, site in word) or "(empty)"
    print(f"flow {flow.start}->{flow.end}: {rendered}")
print()

# both pipelines, same grants
engine = sp.generate_policy(model, universe).policy
reference = sp.oracle_policy(model, universe)
print("engine == oracle:", engine.grants == reference.grants)
print()

# the CLI exposes the same diff: stackpol oracle MODEL --compare
print(sp.emit_policy(reference, "table"))
