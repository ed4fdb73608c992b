"""Command line behavior: output channels, formats, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_oracle import RANDOM_MODELS
from test_policy import _diamond_ladder
from test_scale import dag_text

import stackpol
from stackpol.cli import main
from stackpol.model import ROUTE_BUDGET

EXPECTED_TABLE = (
    'method Priv.run: FilePermission("C:/log.txt","write")\n'
    'method checkAccess: FilePermission("C:/log.txt","write")\n'
    'method checkConnect: SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
    'method checkConnect: SocketPermission("jaist.ac.jp/student:8080","connect")\n'
    'method connectFaculty: SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
    'method connectStudent: SocketPermission("jaist.ac.jp/student:8080","connect")\n'
    'method main: SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
    'method main: SocketPermission("jaist.ac.jp/student:8080","connect")\n'
)

EXPECTED_JAVA = (
    'grant codeBase "Priv.run" {\n'
    '  permission FilePermission "C:/log.txt", "write";\n'
    '};\n'
    'grant codeBase "checkAccess" {\n'
    '  permission FilePermission "C:/log.txt", "write";\n'
    '};\n'
    'grant codeBase "checkConnect" {\n'
    '  permission SocketPermission "jaist.ac.jp/faculty:8080", "connect";\n'
    '  permission SocketPermission "jaist.ac.jp/student:8080", "connect";\n'
    '};\n'
    'grant codeBase "connectFaculty" {\n'
    '  permission SocketPermission "jaist.ac.jp/faculty:8080", "connect";\n'
    '};\n'
    'grant codeBase "connectStudent" {\n'
    '  permission SocketPermission "jaist.ac.jp/student:8080", "connect";\n'
    '};\n'
    'grant codeBase "main" {\n'
    '  permission SocketPermission "jaist.ac.jp/faculty:8080", "connect";\n'
    '  permission SocketPermission "jaist.ac.jp/student:8080", "connect";\n'
    '};\n'
)

EXPECTED_DUMP = (
    'Priv.run --[{connectFaculty:30,doPrivileged:1,main:1;connectStudent:36,doPrivileged:1,main:2}]--> checkAccess Priv.run:20 ; ({}|{Priv.run}|{}|{Priv.run:20})\n'
    'checkAccess --[any]--> checkPermission checkAccess:24 ; ({}|{checkAccess}|{}|{checkAccess:24})\n'
    'checkConnect --[any]--> checkPermission checkConnect:6 ; ({}|{checkConnect}|{}|{checkConnect:6})\n'
    'checkConnect --[any]--> doPrivileged checkConnect:8 ; ({}|{checkConnect}|{}|{checkConnect:8})\n'
    'checkConnect --[any]--> mkSocketPerm checkConnect:5 ; ({}|{checkConnect}|{}|{checkConnect:5})\n'
    'connectFaculty --[any]--> checkConnect connectFaculty:30 ; ({}|{connectFaculty}|{}|{connectFaculty:30})\n'
    'connectStudent --[any]--> checkConnect connectStudent:36 ; ({}|{connectStudent}|{}|{connectStudent:36})\n'
    'doPrivileged --[{connectFaculty:30,main:1;connectStudent:36,main:2}]--> Priv.run doPrivileged:1 ; ({*}|{doPrivileged}|{}|{doPrivileged:1})\n'
    'main --[any]--> connectFaculty main:1 ; ({}|{main}|{}|{main:1})\n'
    'main --[any]--> connectStudent main:2 ; ({}|{main}|{}|{main:2})\n'
    'checkConnect:5 --[any]--> checkConnect ; 1\n'
    'mkSocketPerm --[any]--> eps ; ({}|{}|{mkSocketPerm}|{})\n'
    '\n'
    'phi_meth:\n'
    '  Priv.run: {checkConnect:8,connectFaculty:30,doPrivileged:1,main:1;checkConnect:8,connectStudent:36,doPrivileged:1,main:2}\n'
    '  checkAccess: {Priv.run:20,checkConnect:8,connectFaculty:30,doPrivileged:1,main:1;Priv.run:20,checkConnect:8,connectStudent:36,doPrivileged:1,main:2}\n'
    '  checkConnect: {connectFaculty:30,main:1;connectStudent:36,main:2}\n'
    '  checkPermission: {checkConnect:6,connectFaculty:30,main:1;checkConnect:6,connectStudent:36,main:2;Priv.run:20,checkAccess:24,checkConnect:8,connectFaculty:30,doPrivileged:1,main:1;Priv.run:20,checkAccess:24,checkConnect:8,connectStudent:36,doPrivileged:1,main:2}\n'
    '  connectFaculty: {main:1}\n'
    '  connectStudent: {main:2}\n'
    '  doPrivileged: {checkConnect:8,connectFaculty:30,main:1;checkConnect:8,connectStudent:36,main:2}\n'
    '  main: any\n'
    '  mkSocketPerm: {checkConnect:5,connectFaculty:30,main:1;checkConnect:5,connectStudent:36,main:2}\n'
    '\n'
    'checkpoints:\n'
    '  checkAccess:24\n'
    '  checkConnect:6\n'
)


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "example.model"
    path.write_text(stackpol.running_example_text(), encoding="utf-8")
    return str(path)


# -------------------------------------------------------------------- analyze


def test_analyze_prints_the_table_and_keeps_notes_on_stderr(model_file, capsys):
    assert main(["analyze", model_file]) == 0
    out, err = capsys.readouterr()
    assert out == EXPECTED_TABLE
    assert "permissions: 3" in err
    assert "stack digests: 8" in err
    assert "note: skipped pairing" in err
    assert all(
        line.startswith(("note:", "permissions:", "stack digests:"))
        for line in err.strip().splitlines()
    )


def test_analyze_emit_writes_the_file_instead_of_stdout(model_file, tmp_path, capsys):
    target = tmp_path / "out.policy"
    assert main(["analyze", model_file, "--emit", str(target)]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert f"wrote {target}" in err
    assert target.read_text(encoding="utf-8") == EXPECTED_TABLE


def test_analyze_java_format(model_file, capsys):
    assert main(["analyze", model_file, "--format", "java"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith('grant codeBase "Priv.run" {\n')
    assert '  permission SocketPermission "jaist.ac.jp/faculty:8080", "connect";\n' in out
    assert out.rstrip().endswith("};")
    assert out == EXPECTED_JAVA


def test_analyze_tiny_tuple_cap_exits_three(model_file, capsys):
    assert main(["analyze", model_file, "--tuple-cap", "1"]) == 3
    _, err = capsys.readouterr()
    assert err.strip().splitlines()[-1].startswith("error:")
    assert "cap 1" in err


def test_running_out_of_memory_exits_three_with_one_error_line(
    model_file, monkeypatch, capsys
):
    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(stackpol.cli, "generate_policy", exhausted)
    assert main(["analyze", model_file]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    # the bundled model's pairing notes come first; the error ends stderr
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: out of memory"] == err.splitlines()[-1:]


def test_analyze_solves_a_deep_form3_ladder_on_cut_histories(tmp_path, capsys):
    # 2^14 routes reach the bottom, more than the default cap of 10,000
    # digests; the histories keep only the checkpoint and the two sites
    # into the allocating method, so two digests remain
    model, names = _diamond_ladder(14)
    path = tmp_path / "ladder.model"
    path.write_text(stackpol.serialize_model(model), encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out == "".join(f"method {n}: P\n" for n in sorted(names))
    assert "stack digests: 2" in err.splitlines()


@pytest.mark.parametrize("command", ["analyze", "dump"])
def test_route_enumeration_past_its_budget_exits_three(command, tmp_path, capsys):
    # lint and dump enumerate the routes of a 2000-method call DAG, which
    # has far more of them than the budget; the solve alone would finish
    path = tmp_path / "dag.model"
    path.write_text(dag_text(2000, 2, 1), encoding="utf-8")
    assert main([command, str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: more than {ROUTE_BUDGET} route contexts; the call graph "
        "has too many distinct routes to enumerate"
    ]


def test_pta_contexts_are_read_by_neither_pipeline(tmp_path, capsys):
    # a known over-grant that both pipelines share: the checkpoint argument
    # denotes n only on the route through main:1 and a:5, yet b, which
    # lies only on the other route, is granted P by both
    text = "\n".join(
        [
            "method main entry",
            "method a",
            "method b",
            "method c",
            "method doPriv priv",
            "method check check",
            "calledge 1 main 1 a ctx=any",
            "calledge 2 main 2 b ctx=any",
            "calledge 3 a 5 c ctx=any",
            "calledge 4 b 6 c ctx=any",
            "calledge 5 c 7 check ctx=any",
            "depnode n c 90 kind=alloc form=3 type=P",
            "depnode k c 7 kind=callsite",
            "depedge n k",
            "checkarg c:7 var=p",
            "pta p@c = {(P, n, {main:1,a:5})}",
        ]
    )
    path = tmp_path / "pta.model"
    path.write_text(text + "\n", encoding="utf-8")
    for command in ("analyze", "oracle"):
        assert main([command, str(path)]) == 0
        out, _ = capsys.readouterr()
        assert "method b: P\n" in out, command


# ---------------------------------------------------------------------- check


def test_check_generated_policy_passes(model_file, tmp_path, capsys):
    policy = tmp_path / "p.policy"
    policy.write_text(EXPECTED_TABLE, encoding="utf-8")
    assert main(["check", model_file, "--policy", str(policy)]) == 0
    out, _ = capsys.readouterr()
    assert out == "PASS\n"


@pytest.mark.parametrize("ptype", ["P.x", "P-x"])
def test_check_reads_back_the_emitted_table(ptype, tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(
        "method main entry\nmethod doPriv priv\nmethod check check\n"
        "calledge 1 main 1 check ctx=any\ncheckarg main:1 var=v\n"
        "depnode a main 50 kind=alloc form=3 type=P.x\n"
        f"pta v@main = {{({ptype}, a, {{}})}}\n",
        encoding="utf-8",
    )
    policy = tmp_path / "p.policy"
    code = main(["analyze", str(model), "--emit", str(policy)])
    if ptype == "P-x":
        # rejected at parse, before anything is written
        assert code == 1 and not policy.exists()
        assert "error: line 7: bad permission type 'P-x'" in capsys.readouterr().err
        return
    assert code == 0
    assert policy.read_text(encoding="utf-8") == "method main: P.x\n"
    assert main(["check", str(model), "--policy", str(policy)]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_check_missing_grant_fails_naming_it(model_file, tmp_path, capsys):
    lines = EXPECTED_TABLE.splitlines(keepends=True)
    removed = 'method main: SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
    assert removed in lines
    policy = tmp_path / "p.policy"
    policy.write_text("".join(l for l in lines if l != removed), encoding="utf-8")
    assert main(["check", model_file, "--policy", str(policy)]) == 2
    out, _ = capsys.readouterr()
    assert out == (
        "missing grant: method main: "
        'SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
        "FAIL\n"
    )


def test_check_reports_unused_grants_without_failing(model_file, tmp_path, capsys):
    policy = tmp_path / "p.policy"
    policy.write_text(
        EXPECTED_TABLE + 'method mkSocketPerm: AllPermission\n', encoding="utf-8"
    )
    assert main(["check", model_file, "--policy", str(policy)]) == 0
    out, err = capsys.readouterr()
    assert out == "PASS\n"
    assert "note: unused grant: method mkSocketPerm: AllPermission" in err


# --------------------------------------------------------------------- oracle


def test_oracle_prints_the_same_table(model_file, capsys):
    assert main(["oracle", model_file]) == 0
    out, _ = capsys.readouterr()
    assert out == EXPECTED_TABLE


def test_oracle_compare_matches_the_engine(model_file, capsys):
    assert main(["oracle", model_file, "--compare"]) == 0
    out, _ = capsys.readouterr()
    assert out == "MATCH\n"


@pytest.mark.parametrize(
    ("seed", "expected"),
    [
        (170, 'MISMATCH: method w1: engine only FilePermission("beta","read")\n'),
        (2309, 'MISMATCH: method w1: engine only NetPermission("alpha","exec")\n'),
    ],
)
def test_oracle_compare_names_what_each_side_grants_alone(
    seed, expected, tmp_path, capsys
):
    # the stored random models on which the engine grants more
    path = tmp_path / f"random{seed}.model"
    path.write_text(RANDOM_MODELS[seed], encoding="utf-8")
    assert main(["oracle", str(path), "--compare"]) == 2
    out, _ = capsys.readouterr()
    assert out == expected


def test_oracle_compare_lists_every_differing_method(model_file, capsys, monkeypatch):
    # an oracle that swaps one grant of a method for another, adds two to
    # another method and grants a method the engine leaves out
    from stackpol import cli

    real = cli.oracle_policy

    def skewed(model, universe, bound):
        policy = real(model, universe, bound)
        grants = dict(policy.grants)
        faculty, student = sorted(grants["main"])
        grants["main"] = grants["checkAccess"] | {student}
        grants["checkAccess"] |= {faculty, student}
        grants["zeta"] = frozenset({faculty})
        return policy._replace(grants=grants)

    monkeypatch.setattr(cli, "oracle_policy", skewed)
    assert main(["oracle", model_file, "--compare"]) == 2
    out, _ = capsys.readouterr()
    assert out == (
        "MISMATCH: method checkAccess: oracle only "
        'SocketPermission("jaist.ac.jp/faculty:8080","connect"), '
        'SocketPermission("jaist.ac.jp/student:8080","connect")\n'
        "MISMATCH: method main: engine only "
        'SocketPermission("jaist.ac.jp/faculty:8080","connect"); '
        'oracle only FilePermission("C:/log.txt","write")\n'
        "MISMATCH: method zeta: oracle only "
        'SocketPermission("jaist.ac.jp/faculty:8080","connect")\n'
    )


def test_oracle_rejects_a_zero_bound(model_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", model_file, "--bound", "0"])
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    assert "must be at least 1" in err


def test_oracle_past_its_flow_path_cap_exits_three(model_file, capsys, monkeypatch):
    # the bundled model has two flow paths from an allocation to a checkpoint
    from stackpol import oracle

    monkeypatch.setattr(oracle, "MAX_ENUMERATED_PATHS", 1)
    assert main(["oracle", model_file]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: more than 1 flow paths at bound 2"]


def test_oracle_enumeration_blowup_exits_three(tmp_path, capsys):
    # four call sites each way between a and b: at the default bound the
    # paths that wind through them to the check method pass the
    # enumeration cap, while the route contexts stay few
    lines = [
        "method main entry",
        "method doPriv priv",
        "method check check",
        "method a",
        "method b",
        "calledge 0 main 1 a ctx=any",
    ]
    for k in range(1, 5):
        lines.append(f"calledge ab{k} a {k} b ctx=any")
        lines.append(f"calledge ba{k} b {k} a ctx=any")
    lines += [
        "calledge z a 9 check ctx=any",
        "depnode n a 90 kind=alloc form=3 type=P",
        "depnode c a 9 kind=callsite",
        "depedge n c",
        "checkarg a:9 var=p",
        "pta p@a = {(P, n, {})}",
    ]
    path = tmp_path / "blowup.model"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["oracle", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: more than 200000 paths from main to check at bound 2"
    ]


def test_oracle_compare_on_a_call_chain_deeper_than_the_recursion_limit(
    tmp_path, capsys
):
    # main -> m1 -> ... -> m1200 -> check, with a form-3 check at the bottom
    n = 1200
    lines = ["method main entry", "method doPriv priv", "method check check"]
    lines += [f"method m{i}" for i in range(1, n + 1)]
    lines.append("calledge 0 main 1 m1 ctx=any")
    lines += [f"calledge {i} m{i} 1 m{i + 1} ctx=any" for i in range(1, n)]
    lines += [
        f"calledge {n} m{n} 2 check ctx=any",
        f"depnode a m{n} 1 kind=alloc form=3 type=P",
        f"depnode c m{n} 2 kind=callsite",
        "depedge a c",
        f"checkarg m{n}:2 var=p",
        f"pta p@m{n} = {{(P, a, {{}})}}",
    ]
    path = tmp_path / "chain.model"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["oracle", str(path), "--compare"]) == 0
    out, _ = capsys.readouterr()
    assert out == "MATCH\n"


# ----------------------------------------------------------------------- dump


def test_dump_lists_rules_tables_and_checkpoints(model_file, capsys):
    assert main(["dump", model_file]) == 0
    out, _ = capsys.readouterr()
    assert "checkConnect:5 --[any]--> checkConnect ; 1" in out
    assert "mkSocketPerm --[any]--> eps ; ({}|{}|{mkSocketPerm}|{})" in out
    rules, phi, chk = out.split("\n\n")
    assert phi.startswith("phi_meth:\n")
    assert "  main: any" in phi
    assert chk.startswith("checkpoints:\n")
    assert chk.rstrip().endswith("  checkAccess:24\n  checkConnect:6".replace("\n", "\n"))
    assert "  checkAccess:24" in chk and "  checkConnect:6" in chk
    # the privileged push renders its kill bit as {*}
    assert "; ({*}|{doPrivileged}|{}|{doPrivileged:1})" in rules
    assert out == EXPECTED_DUMP


def test_dump_prints_the_sites_that_the_solve_cuts(model_file, capsys):
    # generate_policy drops Priv.run:20 from its histories before they are
    # packed, since no checkpoint or demand context names it, so the site
    # gets no bit; dump prints the exact rules
    model = stackpol.running_example()
    result = stackpol.generate_policy(model, stackpol.generate_permissions(model))
    cut = stackpol.CallSite("Priv.run", 20)
    assert cut not in result.digests.packing.bit
    assert main(["dump", model_file]) == 0
    out, _ = capsys.readouterr()
    rules = out.split("\n\n")[0]
    assert "--> checkAccess Priv.run:20 ; ({}|{Priv.run}|{}|{Priv.run:20})" in rules


def test_dump_is_reproducible(model_file, capsys):
    assert main(["dump", model_file]) == 0
    first, _ = capsys.readouterr()
    assert main(["dump", model_file]) == 0
    second, _ = capsys.readouterr()
    assert first == second


def test_dump_takes_no_tuple_cap(model_file, capsys):
    # dump solves nothing, so it has no cap to take
    with pytest.raises(SystemExit) as exc:
        main(["dump", model_file, "--tuple-cap", "1"])
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --tuple-cap" in err


# ------------------------------------------------------------ errors and usage


def test_missing_model_file_is_a_usage_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.model")]) == 1
    _, err = capsys.readouterr()
    assert err.startswith("error:")


def test_malformed_model_reports_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("method main entry\nbogus directive\n", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 1
    _, err = capsys.readouterr()
    assert err.startswith("error: line 2:")


def test_non_utf8_input_is_a_usage_error(model_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"method m\xff entry\n")
    for argv in (["analyze", str(bad)], ["check", model_file, "--policy", str(bad)]):
        assert main(argv) == 1
        _, err = capsys.readouterr()
        assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 8)\n"


def test_a_model_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # editors on Windows often save UTF-8 with a leading BOM
    model = tmp_path / "bom.model"
    model.write_text(stackpol.running_example_text(), encoding="utf-8-sig")
    assert model.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["analyze", str(model)]) == 0
    assert capsys.readouterr().out == EXPECTED_TABLE
    # an offset past the mark still counts the mark's three bytes
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xef\xbb\xbfmethod m\xff entry\n")
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (invalid start byte at byte 11)\n"
    )


def test_a_policy_file_may_start_with_a_byte_order_mark(model_file, tmp_path, capsys):
    policy = tmp_path / "bom.policy"
    policy.write_text(EXPECTED_TABLE, encoding="utf-8-sig")
    assert main(["check", model_file, "--policy", str(policy)]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_no_arguments_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_console_script_end_to_end(model_file):
    proc = subprocess.run(
        [sys.executable, "-m", "stackpol.cli", "analyze", model_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == EXPECTED_TABLE


# an absent target and an empty literal render differently, so their
# order in a policy must not follow set iteration order
EMPTY_LITERAL_MODEL = """\
method main entry
method doPriv priv
method check check
calledge 1 main 1 check ctx=any
depnode a main 50 kind=alloc form=2 type=P target=t
depnode b main 51 kind=alloc form=3 type=P
checkarg main:1 var=p
pta p@main = {(P, a, {}); (P, b, {})}
sa t@main = {("", {})}
"""


def _cli_stdout(argv: list[str], hash_seed: str) -> str:
    src = str(Path(stackpol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "stackpol.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "text",
    [stackpol.running_example_text(), EMPTY_LITERAL_MODEL],
    ids=["bundled", "empty-literal"],
)
def test_cli_output_does_not_depend_on_the_hash_seed(text, tmp_path):
    path = tmp_path / "m.model"
    path.write_text(text, encoding="utf-8")
    for argv in (["analyze"], ["analyze", "--format", "java"], ["dump"]):
        argv = [*argv, str(path)]
        assert _cli_stdout(argv, "1") == _cli_stdout(argv, "7"), argv


# ------------------------------------------------------------------- mutation


def test_tightening_an_edge_condition_shrinks_both_pipelines_alike(
    tmp_path, capsys
):
    # make the student connect call demand a route that can never support
    # it; the student socket permission disappears from both policies
    text = stackpol.running_example_text().replace(
        "calledge 4 connectStudent 36 checkConnect ctx=any",
        "calledge 4 connectStudent 36 checkConnect ctx={main:1}",
    )
    assert text != stackpol.running_example_text()
    path = tmp_path / "tight.model"
    path.write_text(text, encoding="utf-8")

    assert main(["analyze", str(path)]) == 0
    table, _ = capsys.readouterr()
    assert main(["oracle", str(path)]) == 0
    oracle_table, _ = capsys.readouterr()
    assert table == oracle_table
    assert "student" not in table
    assert 'method main: SocketPermission("jaist.ac.jp/faculty:8080","connect")' in table

    assert main(["oracle", str(path), "--compare"]) == 0
    out, _ = capsys.readouterr()
    assert out == "MATCH\n"
