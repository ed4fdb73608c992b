"""The package's public surface: exactly the pipeline, its types and errors,
and no library definition that the library itself never names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
    "concrete_stack",
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


# Library definitions that no library code names, each with the reason it
# stays.  Everything else a module defines must be named somewhere in
# ``src/stackpol`` outside its own definition and outside every unnamed or
# kept one.
UNNAMED_BUT_KEPT = {
    # argparse calls it on a bad command line
    "_Parser.error",
    # the benchmark's tracing wraps it to count combines
    "Weight.combine",
    # the benchmark's counting pass reads it to count granting digests
    "PermissionUniverse.origins",
    # the readable algebra that tests/bruteforce.py and tests/test_weights.py
    # run; the solver sequences packed digests instead
    "Weight.extend",
    # the benchmark's tracing wraps it to count sequencing, and Weight.extend
    # calls it
    "WeightTuple.seq",
}

SRC = Path(stackpol.__file__).resolve().parent


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each module-level function and
    class, and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub.name, sub


# an attribute ``x.m`` with one of these names may be a builtin container's
# or a string's method, so it does not count as naming a library method
BUILTIN_METHODS = frozenset(
    name
    for kind in (list, dict, set, frozenset, tuple, str)
    for name in dir(kind)
    if not name.startswith("_")
)


def test_every_library_definition_is_named_in_the_library():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    # every ast.Name and ast.Attribute node, by the name it refers to
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    # each definition the guard checks, with the ids of the nodes inside
    # it and of the uses outside it that may name it
    checked: list[tuple[str, set[int], list[int]]] = []
    kept: set[int] = set()
    for tree in trees:
        for qualname, name, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if qualname in UNNAMED_BUT_KEPT:
                kept |= inside
            elif name not in stackpol.__all__ and not (
                name.startswith("__") and name.endswith("__")
            ):
                builtin = "." in qualname and name in BUILTIN_METHODS
                outside = [
                    id(use)
                    for use in uses.get(name, ())
                    if id(use) not in inside
                    and not (builtin and isinstance(use, ast.Attribute))
                ]
                checked.append((qualname, inside, outside))
    # a use inside an unnamed or kept definition names nothing, and
    # discounting it may leave another definition unnamed: iterate
    unnamed: list[tuple[str, set[int], list[int]]] = []
    while True:
        silent = kept.union(*(inside for _, inside, _ in unnamed))
        found = [d for d in checked if all(use in silent for use in d[2])]
        if found == unnamed:
            break
        unnamed = found
    assert [qualname for qualname, _, _ in unnamed] == []


ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    """Names that a module-level import of ``path`` binds and the module
    never reads; a name listed in ``__all__`` is read by a star import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(path.parents[1])}:{line}: {name}"
        for name, line in bound.items()
        if name not in read
    ]


def test_no_module_level_import_goes_unused():
    paths = [
        *sorted(SRC.glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
    ]
    assert [line for path in paths for line in _unused_imports(path)] == []


def test_importing_the_package_loads_no_heavy_standard_module():
    # every CLI run pays for what the import loads: dataclasses pulls in
    # inspect, ast, dis and tokenize, and importlib.resources pathlib and
    # tempfile.  -S keeps site's .pth files from loading them first
    code = (
        "import sys; before = set(sys.modules); import stackpol; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(run.stdout.split())
    assert "stackpol.model" in loaded
    assert loaded & {"dataclasses", "inspect", "importlib.resources"} == set()
