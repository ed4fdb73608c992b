"""Static generation and checking of stack-inspection access policies.

The pipeline: parse a program model (context-sensitive call graph plus a
permission dependency graph and value facts), generate the permissions
its checkpoints demand, encode the model as a conditional weighted
pushdown system, solve meet-over-all-paths to the check method, and read
per-method permission grants off the resulting stack digests.  A bounded
path-enumeration oracle independently recomputes policies for
cross-checking, and a simulator replays the runtime's stack-inspection
walk against any policy.

This package exports the pipeline and the types it hands back.  The
encoding and solver (``stackpol.policy.encode``, ``stackpol.pushdown``),
the weight constants (``stackpol.weights``), the oracle's steps
(``stackpol.oracle``) and the context families and their ``holds``
test (``stackpol.contexts``) are imported from their modules.
"""

from .contexts import CallSite
from .errors import (
    CapacityError,
    EnumerationLimitError,
    ModelError,
    PolicyError,
    StackpolError,
)
from .model import (
    ProgramModel,
    compute_phi_meth,
    lint_model,
    parse_model,
    serialize_model,
)
from .oracle import CallPath, concrete_stacks, enum_vpaths, oracle_policy
from .permissions import (
    Permission,
    PermissionUniverse,
    checkpoints,
    generate_permissions,
)
from .policy import (
    CheckReport,
    Frame,
    InspectionResult,
    Policy,
    PolicyResult,
    check_policy,
    emit_policy,
    generate_policy,
    parse_permission,
    parse_policy_table,
    simulate_inspection,
)
from .sample import running_example, running_example_text
from .weights import Weight, WeightTuple

__version__ = "0.1.0"

__all__ = [
    # pipeline
    "parse_model",
    "serialize_model",
    "compute_phi_meth",
    "lint_model",
    "generate_permissions",
    "checkpoints",
    "generate_policy",
    "emit_policy",
    "parse_policy_table",
    "parse_permission",
    "check_policy",
    "simulate_inspection",
    "oracle_policy",
    "enum_vpaths",
    "concrete_stacks",
    "running_example",
    "running_example_text",
    # types
    "ProgramModel",
    "CallSite",
    "Permission",
    "PermissionUniverse",
    "Policy",
    "PolicyResult",
    "CheckReport",
    "Frame",
    "InspectionResult",
    "Weight",
    "WeightTuple",
    "CallPath",
    # errors
    "StackpolError",
    "ModelError",
    "PolicyError",
    "CapacityError",
    "EnumerationLimitError",
]
