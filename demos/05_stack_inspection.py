"""
Replaying stack inspection against the generated policy
=======================================================

The point of the whole exercise: with the inferred grants in place,
every stack the program can actually build passes the runtime walk, and
nothing weaker does.
"""

import stackpol as sp
from stackpol import Frame, Policy

model = sp.running_example()
universe = sp.generate_permissions(model)
policy = sp.generate_policy(model, universe).policy
perm_a = next(p for p in universe.sorted_perms() if p.ptype == "FilePermission")

# take the privileged paths into the file-permission check, those cut at
# a call the privilege asserter makes, and turn each into the runtime
# stack it stands for (top frame first)
privileged_paths = [p for p in sp.enum_vpaths(model, model.check_method) if p.cut]
for path in privileged_paths:
    stack = sp.concrete_stack(model, path)
    shown = ", ".join(
        f.method + ("*" if f.privileged else "") for f in stack
    )
    verdict = sp.simulate_inspection(stack, perm_a, policy)
    print(f"[{shown}] -> {'pass' if verdict.passed else 'FAIL at ' + verdict.failed_at}")
print()

# the starred frame asserted privilege: the walk stops there, so the
# user-code frames beneath it never need the file permission.  Watch it
# fail once the privilege marker is dropped:
unprivileged = tuple(
    Frame(f.method) for f in sp.concrete_stack(model, privileged_paths[0])
)
verdict = sp.simulate_inspection(unprivileged, perm_a, policy)
print(f"without the assertion: fails at {verdict.failed_at}")
print()

# checking a policy file someone handed you
given = sp.parse_policy_table(sp.emit_policy(policy, "table"))
print("self check:", "PASS" if sp.check_policy(given, policy).passed else "FAIL")

# drop one grant and the checker names it
weaker = Policy(
    grants={
        m: (ps - {perm_a} if m == "Priv.run" else ps)
        for m, ps in policy.grants.items()
    }
)
report = sp.check_policy(weaker, policy)
for line in report.lines():
    print(line)
