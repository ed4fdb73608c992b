"""Static generation and checking of stack-inspection access policies.

The pipeline: parse a program model (context-sensitive call graph plus a
permission dependency graph and value facts), generate the permissions
its checkpoints demand, encode the model as a conditional weighted
pushdown system, solve meet-over-all-paths to the check method, and read
per-method permission grants off the resulting stack digests.  A bounded
path-enumeration oracle independently recomputes policies for
cross-checking, and a simulator replays the runtime's stack-inspection
walk against any policy.
"""

from .contexts import (
    ANY,
    ANY_FAMILY,
    CallSite,
    Condition,
    abstract_ctx,
    abstract_ctx_set,
    concretize,
    ctx_leq,
    family_leq,
    set_leq,
)
from .errors import (
    CapacityError,
    EnumerationLimitError,
    ModelError,
    PolicyError,
    StackpolError,
)
from .model import (
    CallEdge,
    DepEdge,
    DepNode,
    Method,
    ProgramModel,
    compute_phi_meth,
    lint_model,
    parse_model,
    phi_route_along,
    serialize_model,
)
from .oracle import (
    Bracket,
    CallPath,
    DepPath,
    concrete_stacks,
    dep_paths,
    enum_vpaths,
    extract,
    match_paths,
    oracle_policy,
    relates,
    well_matched,
)
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
    encode,
    generate_policy,
    parse_permission,
    parse_policy_table,
    simulate_inspection,
)
from .pushdown import (
    AnnotatedWPDS,
    ConditionalWPDS,
    Rule,
    movp,
)
from .sample import running_example, running_example_text
from .weights import ALL, ONE, ZERO, Weight, WeightTuple

__version__ = "0.1.0"

__all__ = [
    "ALL",
    "ANY",
    "ANY_FAMILY",
    "AnnotatedWPDS",
    "Bracket",
    "CallEdge",
    "CallPath",
    "CallSite",
    "CapacityError",
    "CheckReport",
    "Condition",
    "ConditionalWPDS",
    "DepEdge",
    "DepNode",
    "DepPath",
    "EnumerationLimitError",
    "Frame",
    "InspectionResult",
    "Method",
    "ModelError",
    "ONE",
    "Permission",
    "PermissionUniverse",
    "Policy",
    "PolicyError",
    "PolicyResult",
    "ProgramModel",
    "Rule",
    "StackpolError",
    "Weight",
    "WeightTuple",
    "ZERO",
    "abstract_ctx",
    "abstract_ctx_set",
    "check_policy",
    "checkpoints",
    "compute_phi_meth",
    "concrete_stacks",
    "concretize",
    "ctx_leq",
    "dep_paths",
    "emit_policy",
    "encode",
    "enum_vpaths",
    "extract",
    "family_leq",
    "generate_permissions",
    "generate_policy",
    "lint_model",
    "match_paths",
    "movp",
    "oracle_policy",
    "parse_model",
    "parse_permission",
    "parse_policy_table",
    "phi_route_along",
    "relates",
    "running_example",
    "running_example_text",
    "serialize_model",
    "set_leq",
    "simulate_inspection",
    "well_matched",
]
