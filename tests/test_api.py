"""The package's public surface: exactly the pipeline, its types and errors."""

import stackpol

PUBLIC = {
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
}


def test_all_lists_exactly_the_public_names():
    assert len(stackpol.__all__) == len(PUBLIC) == 34
    assert set(stackpol.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace: dict = {}
    # a star import fails on any listed name the package does not define
    exec("from stackpol import *", namespace)
    assert PUBLIC <= set(namespace)
