"""One sha256 per pipeline output over a fixed set of models.

Usage, from the root of a source checkout:

    python3 tests/output_hashes.py > hashes.txt

The models are ``random_model`` 0-2999 and the seed-0 benchmark models
of ``bench/workloads.py``.  Each printed line hashes one output over all
of them, in order: the policy table and java policy, the lint warnings,
the permission diagnostics, ``encode(model).dump()``, the sorted decoded
digests of ``generate_policy`` (cut histories) and of the exact solve
``movp(encode(model), {check})``, the ``oracle_policy`` table where
the benchmark consults the oracle, and the oracle's stacks
``enum_vpaths(model, check)``, one line of edge idents and cut per
stack.  A model whose step raises contributes the exception's type and
message to that output instead.  The last line, ``parse``, hashes the
parser's diagnostic, the canonical text or what it raised, on 10,001
seeded edits of the benchmark texts: 2000 each of deleted, duplicated
and moved lines, of inserted characters, and of line numbers given a
sign, an underscore, another script's digit or a leading zero, then one
line number longer than ``int`` reads.

A change meant to keep every output shows the same lines as its parent.
The random texts depend on string hashing, so the script re-executes
itself under a fixed ``PYTHONHASHSEED``, as ``bench/run.py`` does.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import string
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import randmodels  # noqa: E402
import workloads  # noqa: E402
from stackpol import (  # noqa: E402
    emit_policy,
    enum_vpaths,
    generate_permissions,
    generate_policy,
    lint_model,
    oracle_policy,
    parse_model,
    running_example_text,
    serialize_model,
)
from stackpol.policy import encode  # noqa: E402
from stackpol.pushdown import movp  # noqa: E402

HASH_SEED = "0"
RANDOM_MODELS = 3000
KINDS = (
    "table",
    "java",
    "lint",
    "diagnostics",
    "dump",
    "cut",
    "exact",
    "oracle",
    "paths",
)
MUTANTS_PER_EDIT = 2000
EDITS = ("delete", "duplicate", "move", "insert", "number")
# printable ASCII, a tab and one non-ASCII digit (ARABIC-INDIC DIGIT THREE)
INSERTED = string.ascii_letters + string.digits + string.punctuation + " \t\u0663"
# the line field of a call edge or a dependency node, and the line of a site
_LINE_FIELD_RE = re.compile(r"^\s*(?:calledge|depnode)\s+\S+\s+\S+\s+(\d+)")
_SITE_LINE_RE = re.compile(r"(?<=:)\d+")
# the zeros of ARABIC-INDIC, DEVANAGARI and FULLWIDTH digits
OTHER_ZEROS = (0x0660, 0x0966, 0xFF10)
# more digits than int() reads under the default sys.get_int_max_str_digits()
OVER_LONG = "9" * 5001


def benchmark_cases():
    """The seed-0 models of every benchmark workload, in workload order."""
    for build in workloads.model_sets(randmodels, running_example_text()).values():
        yield from build(0)


def models():
    """``(ident, text, oracle)`` per model, where ``oracle`` asks for the oracle table."""
    for seed in range(RANDOM_MODELS):
        yield f"random_model({seed})", randmodels.random_model_text(seed), True
    for case in benchmark_cases():
        yield case.ident, case.text, case.oracle


def number_places(lines: list[str]) -> list[tuple[int, int, int]]:
    """``(line index, start, end)`` of each line number the lines write."""
    places = []
    for i, line in enumerate(lines):
        field = _LINE_FIELD_RE.match(line)
        if field:
            places.append((i, *field.span(1)))
        places += [(i, *m.span()) for m in _SITE_LINE_RE.finditer(line)]
    return places


def misnumbered(digits: str, rng: random.Random) -> str:
    """``digits`` with a sign, an underscore, another script's digit or a
    leading zero: each a text that ``int`` reads as a number."""
    kind = rng.choice(("sign", "underscore", "script", "zero"))
    if kind == "sign":
        return rng.choice("+-") + digits
    if kind == "underscore":
        return digits[:1] + "_" + (digits[1:] or "0")
    if kind == "script":
        k = rng.randrange(len(digits))
        return digits[:k] + chr(rng.choice(OTHER_ZEROS) + int(digits[k])) + digits[k + 1 :]
    return "0" + digits


def mutants(texts: list[str]):
    """The seeded one-line edits of ``texts``, ``MUTANTS_PER_EDIT`` per edit,
    then one text whose first line number is ``OVER_LONG``."""
    rng = random.Random(0)
    for edit in EDITS:
        for _ in range(MUTANTS_PER_EDIT):
            lines = rng.choice(texts).splitlines()
            if edit == "number":
                i, start, end = rng.choice(number_places(lines))
                lines[i] = lines[i][:start] + misnumbered(lines[i][start:end], rng) + lines[i][end:]
                yield "\n".join(lines) + "\n"
                continue
            i = rng.randrange(len(lines))
            if edit == "delete":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(i, lines[i])
            elif edit == "move":
                lines.insert(rng.randrange(len(lines)), lines.pop(i))
            else:
                k = rng.randrange(len(lines[i]) + 1)
                lines[i] = lines[i][:k] + rng.choice(INSERTED) + lines[i][k:]
            yield "\n".join(lines) + "\n"
    lines = texts[0].splitlines()
    i, start, end = number_places(lines)[0]
    lines[i] = lines[i][:start] + OVER_LONG + lines[i][end:]
    yield "\n".join(lines) + "\n"


def diagnostic(text: str) -> str:
    """The model's canonical text, or what the parser raised."""
    try:
        return serialize_model(parse_model(text))
    except Exception as exc:  # a raise is an output to compare
        return f"raised {type(exc).__name__}: {exc}"


class _Steps(dict):
    """Each step's value, computed from its function when first read."""

    def __init__(self, functions):
        super().__init__()
        self.functions = functions

    def __missing__(self, name):
        value = self[name] = self.functions[name]()
        return value


def outputs(text: str, oracle: bool) -> dict[str, str]:
    """Each output's text for one model, or what its step raised."""

    def digests(weight) -> str:
        return "\n".join(sorted(map(str, weight.tuples)))

    s = _Steps(
        {
            "model": lambda: parse_model(text),
            "universe": lambda: generate_permissions(s["model"]),
            "result": lambda: generate_policy(s["model"], s["universe"]),
            "system": lambda: encode(s["model"]),
            "table": lambda: emit_policy(s["result"].policy, "table"),
            "java": lambda: emit_policy(s["result"].policy, "java"),
            "lint": lambda: "\n".join(lint_model(s["model"])),
            "diagnostics": lambda: "\n".join(s["universe"].diagnostics),
            "dump": lambda: s["system"].dump(),
            "cut": lambda: digests(s["result"].weight),
            "exact": lambda: digests(
                movp(s["system"], {s["model"].check_method}).decode()
            ),
            "oracle": lambda: (
                emit_policy(oracle_policy(s["model"], s["universe"]), "table")
                if oracle
                else ""
            ),
            "paths": lambda: "\n".join(
                " ".join([*(e.ident for e in path.edges), f"cut={path.cut}"])
                for path in enum_vpaths(s["model"], s["model"].check_method)
            ),
        }
    )
    out = {}
    for kind in KINDS:
        try:
            out[kind] = s[kind]
        except Exception as exc:  # a raise is an output to compare
            out[kind] = f"raised {type(exc).__name__}: {exc}"
    return out


def main() -> None:
    hashes = {kind: hashlib.sha256() for kind in KINDS}
    count = 0
    for ident, text, oracle in models():
        count += 1
        for kind, value in outputs(text, oracle).items():
            hashes[kind].update(f"{ident}\0{value}\0".encode())
    print(f"models {count}")
    for kind in KINDS:
        print(f"{kind} {hashes[kind].hexdigest()}")
    parse = hashlib.sha256()
    for i, text in enumerate(mutants([case.text for case in benchmark_cases()])):
        parse.update(f"{i}\0{diagnostic(text)}\0".encode())
    print(f"parse {parse.hexdigest()}")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    main()
