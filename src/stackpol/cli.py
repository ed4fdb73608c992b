"""Command line front end.

Subcommands:

* ``analyze``  generate a policy from a model and render it;
* ``check``    compare a given policy file against the generated one;
* ``oracle``   generate the policy by path enumeration instead of the
  pushdown engine, optionally diffing the two;
* ``dump``     print the encoded rule system and derived tables.

Exit codes: 0 success (and check/compare agreement), 1 usage or input
problem, 2 a failed check or a comparison difference, 3 a resource cap
was exceeded, running out of memory included, with one ``error:`` line
on stderr.  Warnings and progress notes go to stderr; results go to
stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .contexts import format_family
from .errors import CapacityError, EnumerationLimitError, StackpolError
from .model import ProgramModel, compute_phi_meth, lint_model, parse_model
from .oracle import DEFAULT_PATH_BOUND, oracle_policy
from .permissions import checkpoints, generate_permissions
from .policy import (
    check_policy,
    emit_policy,
    encode,
    generate_policy,
    parse_policy_table,
)
from .weights import DEFAULT_TUPLE_CAP

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_CAPACITY = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _read_text(path: str) -> str:
    # drop a byte-order mark after decoding, so error offsets still count it
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise StackpolError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _load_model(path: str) -> ProgramModel:
    return parse_model(_read_text(path))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    for warning in lint_model(model):
        _note(f"warning: {warning}")
    universe = generate_permissions(model)
    for diag in universe.diagnostics:
        _note(f"note: {diag}")
    result = generate_policy(model, universe, tuple_cap=args.tuple_cap)
    _note(f"permissions: {len(universe.perms)}")
    _note(f"stack digests: {result.digests.width()}")
    text = emit_policy(result.policy, args.format)
    if args.emit:
        Path(args.emit).write_text(text, encoding="utf-8")
        _note(f"wrote {args.emit}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    given = parse_policy_table(_read_text(args.policy))
    universe = generate_permissions(model)
    generated = generate_policy(model, universe, tuple_cap=args.tuple_cap).policy
    report = check_policy(given, generated)
    if report.passed:
        for method in sorted(report.overgrants):
            for perm in sorted(report.overgrants[method]):
                _note(f"note: unused grant: method {method}: {perm}")
        print("PASS")
        return EXIT_OK
    for line in report.lines():
        print(line)
    print("FAIL")
    return EXIT_FAIL


def _cmd_oracle(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    universe = generate_permissions(model)
    reference = oracle_policy(model, universe, args.bound)
    if args.compare:
        engine = generate_policy(
            model, universe, tuple_cap=args.tuple_cap
        ).policy
        if engine.grants == reference.grants:
            print("MATCH")
            return EXIT_OK
        for method in sorted(set(engine.grants) | set(reference.grants)):
            ours, theirs = engine.granted(method), reference.granted(method)
            only = {"engine": ours - theirs, "oracle": theirs - ours}
            sides = [
                f"{side} only {', '.join(map(str, sorted(perms)))}"
                for side, perms in only.items()
                if perms
            ]
            if sides:
                print(f"MISMATCH: method {method}: {'; '.join(sides)}")
        return EXIT_FAIL
    sys.stdout.write(emit_policy(reference, "table"))
    return EXIT_OK


def _cmd_dump(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    # before any output, so that a route budget error leaves stdout empty
    phi = compute_phi_meth(model)
    system = encode(model)
    print(system.dump())
    print()
    print("phi_meth:")
    for method in sorted(phi):
        print(f"  {method}: {format_family(phi[method])}")
    print()
    print("checkpoints:")
    for site in sorted(checkpoints(model)):
        print(f"  {site}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="stackpol",
        description="Generate and check stack-inspection access policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def solving(p: _Parser) -> None:
        p.add_argument("model", help="program model file")
        p.add_argument(
            "--tuple-cap",
            type=_positive_int,
            default=DEFAULT_TUPLE_CAP,
            help="abort when the result holds more than this many (merged) digests",
        )

    p = sub.add_parser("analyze", help="generate a policy from a model")
    solving(p)
    p.add_argument("--emit", metavar="PATH", help="write the policy here")
    p.add_argument(
        "--format",
        choices=("table", "java"),
        default="table",
        help="policy rendering (default: table)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("check", help="check a policy file against the model")
    solving(p)
    p.add_argument("--policy", required=True, help="policy table to check")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="generate the policy by enumeration")
    solving(p)
    p.add_argument(
        "--bound",
        type=_positive_int,
        default=DEFAULT_PATH_BOUND,
        help="per-edge repetition bound for path enumeration (default: 2)",
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="diff against the pushdown engine instead of printing",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dump", help="print the encoded rules and tables")
    p.add_argument("model", help="program model file")
    p.set_defaults(func=_cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except (StackpolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
