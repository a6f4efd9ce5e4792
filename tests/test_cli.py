"""Command line surface: examples, exit codes, schemas, determinism."""
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliffex
from cliffex import caps
from cliffex.cli import OPERATION_COMMAND, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- documented examples -------------------------------------------------

def test_product_example(capsys):
    code, out, err = run_cli(capsys, "product", "--form", "sig:2,1", "e13", "e3")
    assert (code, err) == (0, "")
    assert out == "e1\n"


def test_classify_example(capsys):
    code, out, err = run_cli(capsys, "classify", "--n", "5", "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["algebra"] == "M(4,C)"
    assert obj["group"] == "U(4)"
    assert obj["pass"] is True


def test_invert_zero_divisor_example(capsys):
    code, out, err = run_cli(capsys, "invert", "--form", "sig:2,1", "e1 + e3")
    assert code == 1
    assert out == ""
    assert err == "NotInvertible: zero divisor\n"


# -- exit codes ----------------------------------------------------------

def test_domain_errors_exit_one_with_error_name(capsys):
    code, _, err = run_cli(capsys, "product", "--form", "diag:1,oops", "e1", "e1")
    assert code == 1
    assert err.startswith("ParseError:")

    code, _, err = run_cli(capsys, "info", "--form", "diag:1,1", "--field", "fp:9")
    assert code == 1
    assert err.startswith("NonPrimeModulus:")

    code, _, err = run_cli(capsys, "info", "--form", "diag:1,1", "--field", "fp:6")
    assert code == 1
    assert err.startswith("EvenCharacteristic:")

    code, _, err = run_cli(capsys, "invert", "--form", "diag:1,1", "0")
    assert code == 1
    assert err.startswith("ZeroElement:")

    # One rank above the table's trace cap.
    above = f"sig:{caps.KILLING_TRACE + 1},0"
    code, _, err = run_cli(capsys, "killing", "--form", above, "--method", "trace")
    assert code == 1
    assert err == f"CapExceeded: KILLING_TRACE capped at n = {caps.KILLING_TRACE}\n"


def test_usage_errors_exit_two():
    for argv in (
        [],
        ["no-such-command"],
        ["product", "--form", "diag:1,1", "e1"],  # missing second operand
        ["classify"],  # missing --n
        ["involute", "--form", "diag:1,1", "e1"],  # missing --kind
        ["center", "--form", "diag:1,1", "--max-n", "2"],  # caps live in one table
        ["killing", "--form", "diag:1,1", "--max-n", "2"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def run_module(argv, **kwargs):
    """Run ``python -m cliffex.cli`` with this checkout's src first on
    PYTHONPATH, where pytest's ``pythonpath`` setting finds the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cliffex.cli", *argv],
                          capture_output=True, env=env, **kwargs)


def test_console_script_runs_as_module():
    proc = run_module(["product", "--form", "sig:2,1", "e13", "e3"], text=True)
    assert proc.returncode == 0
    assert proc.stdout == "e1\n"


# -- output shape --------------------------------------------------------

def test_info_json_matrix_schema(capsys):
    code, out, _ = run_cli(
        capsys, "info", "--form", "sig:2,1", "--format", "json", "e1 + e3"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["dim"] == 8
    assert obj["field"] == "rational"
    elem = obj["element"]
    assert elem["zero_divisor"] is True
    assert elem["left_det"] == "0"
    for key in ("left_matrix", "right_matrix"):
        mat = elem[key]
        assert set(mat) == {"dim", "entries", "field"}
        assert mat["dim"] == 8
        assert len(mat["entries"]) == 8
        assert all(len(row) == 8 for row in mat["entries"])
        assert mat["field"] == "rational"


def test_involute_kinds(capsys):
    for kind, expected in (("grade", "-e1\n"), ("reverse", "e1\n"), ("conj", "-e1\n")):
        code, out, _ = run_cli(
            capsys, "involute", "--form", "diag:1,1", "--kind", kind, "e1"
        )
        assert (code, out) == (0, expected)
    code, out, _ = run_cli(
        capsys, "involute", "--form", "diag:1,1", "--kind", "reverse", "e12"
    )
    assert (code, out) == (0, "-e12\n")


def test_center_reports_method_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "center", "--form", "diag:1,1,-1", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["center"]["dim"] == 2
    assert obj["lie_center"]["dim"] == 0
    assert obj["methods_agree"] is True
    # The solve runs at every rank a form accepts.
    top = f"sig:{caps.GENERATORS},0"
    code, out, _ = run_cli(capsys, "center", "--form", top, "--format", "json")
    assert code == 0
    assert json.loads(out)["methods_agree"] is True


def test_center_agreement_compares_the_solved_blades(capsys, monkeypatch):
    """A solve that returns other blades of the same count disagrees: the
    report compares blades, as check_centers does, not dimensions."""
    from cliffex import structure

    center = structure.center
    argv = ("center", "--form", "diag:1,-2,3")
    assert run_cli(capsys, *argv)[1].endswith("methods agree: yes\n")

    def solved(form, method="closed_form"):
        desc = center(form, method)
        if method != "solve":
            return desc
        return dataclasses.replace(desc, basis=(form.one(), form.generator(1)))

    monkeypatch.setattr(structure, "center", solved)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("center: dim 0, basis []\nmethods agree: no\n")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert json.loads(out)["methods_agree"] is False


def test_lie_membership_flag(capsys):
    code, out, _ = run_cli(
        capsys, "lie", "--form", "diag:1,1,1", "--format", "json", "e12"
    )
    obj = json.loads(out)
    assert (code, obj["member"], obj["lie_dim"]) == (0, True, 6)
    code, out, _ = run_cli(
        capsys, "lie", "--form", "diag:1,1,1", "--format", "json", "1 + e1"
    )
    assert json.loads(out)["member"] is False


def test_killing_trace_agrees_with_count(capsys):
    base = ("killing", "--form", "diag:1,1", "--format", "json")
    _, out_count, _ = run_cli(capsys, *base, "--method", "count")
    _, out_trace, _ = run_cli(capsys, *base, "--method", "trace")
    count = json.loads(out_count)
    trace = json.loads(out_trace)
    assert count["killing"] == trace["killing"]
    by_blade = {r["blade"]: r for r in count["killing"]}
    assert by_blade["e1"]["B"] == "-8"


def test_check_command_reports_all_passes(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--form", "diag:1,1,-1", "--seed", "9", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["failed"] == 0
    assert len(obj["results"]) == 21
    assert all(r["passed"] for r in obj["results"])


def test_isometry_command(capsys):
    code, out, _ = run_cli(
        capsys, "isometry", "--form", "diag:1,1", "--format", "json", "e12"
    )
    obj = json.loads(out)
    assert (code, obj["isometry"]) == (0, True)
    code, out, _ = run_cli(
        capsys, "isometry", "--form", "diag:1,1", "--format", "json", "2"
    )
    assert json.loads(out)["isometry"] is False


# -- determinism ---------------------------------------------------------

def test_identical_invocations_are_byte_identical():
    argv = ["check", "--form", "diag:2,3", "--field", "fp:11", "--seed", "5", "--format", "json"]
    first = run_module(argv)
    second = run_module(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# -- coverage audit ------------------------------------------------------

def test_every_public_function_is_mapped_to_one_command():
    public_functions = {
        name
        for name in cliffex.__all__
        if inspect.isfunction(getattr(cliffex, name))
    }
    assert set(OPERATION_COMMAND) == public_functions


def test_mapped_commands_exist():
    parser = build_parser()
    command_names = set(parser._subparsers._group_actions[0].choices)
    assert command_names == {
        "info",
        "product",
        "involute",
        "invert",
        "center",
        "lie",
        "killing",
        "decompose",
        "classify",
        "isometry",
        "check",
    }
    assert set(OPERATION_COMMAND.values()) - {None} <= command_names
    # The involution command fronts methods on the element type itself,
    # so it is the one subcommand with no module-level function behind it.
    assert command_names - set(OPERATION_COMMAND.values()) == {"involute"}


# One run per subcommand, on a form where each route of its table entries runs.
SPY_RUNS = {
    "product": ["--form", "sig:2,1", "1 + e1", "e12 - 2*e3"],
    "involute": ["--form", "sig:2,1", "--kind", "conj", "e12"],
    "invert": ["--form", "sig:2,1", "2 + e1"],
    "info": ["--form", "sig:2,1", "--format", "json", "1 + e12"],
    "center": ["--form", "sig:2,1"],
    "lie": ["--form", "sig:2,1", "e12"],
    "killing": ["--form", "sig:2,1"],
    "decompose": ["--form", "sig:2,1"],
    "classify": ["--n", "3"],
    "isometry": ["--form", "sig:2,1", "e12"],
    "check": ["--form", "sig:3,0"],
}


def _operations_run(argv) -> set:
    """The names in ``OPERATION_COMMAND`` whose functions run under ``main(argv)``,
    seen by their code objects, so that every import of a function counts."""
    codes = {getattr(cliffex, name).__code__: name for name in OPERATION_COMMAND}
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.add(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        assert main(argv) == 0
    finally:
        sys.setprofile(None)
    return seen


def test_each_operation_runs_under_its_command(capsys):
    assert set(SPY_RUNS) == set(build_parser()._subparsers._group_actions[0].choices)
    # check_killing reads killing_entry at every rank, so one run of check
    # below the trace cap reaches it and ad_matrix alike.
    run = {command: _operations_run([command, *argv]) for command, argv in SPY_RUNS.items()}
    capsys.readouterr()
    assert {name: command for name, command in OPERATION_COMMAND.items()
            if command and name not in run[command]} == {}
    # reorder_sign, the documented exception, is reached by no command.
    assert [name for name, command in OPERATION_COMMAND.items() if command is None] == [
        "reorder_sign"]
    assert not any("reorder_sign" in names for names in run.values())


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("field", ["rational", "fp:7"])
def test_killing_trace_prints_the_count_up_to_the_raised_cap(capsys, n, field):
    base = ("killing", "--form", f"sig:{n - n // 3},{n // 3}", "--field", field)
    code, text, _ = run_cli(capsys, *base, "--method", "trace")
    assert code == 0 and (code, text) == run_cli(capsys, *base, "--method", "count")[:2]
    jsons = [json.loads(run_cli(capsys, *base, "--method", m, "--format", "json")[1])
             for m in ("trace", "count")]
    assert jsons[0]["killing"] == jsons[1]["killing"]


def test_check_at_rank_sixteen_samples_the_killing_trace(capsys):
    code, out, _ = run_cli(capsys, "check", "--form", "sig:16,0")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "all checks passed"
    assert ("PASS killing (2 sampled diagonal entries agree with traces; "
            f"KILLING_TRACE capped at n = {caps.KILLING_TRACE})") in lines
    assert "PASS killing_dichotomy (squared adjoint is 0 or 4 x^2 on each blade)" in lines
    skipped = {line.split()[1] for line in lines if line.startswith("SKIP ")}
    assert skipped == {"invertibility", "adjoint_matrices", "equivalence", "uniqueness"}


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys, monkeypatch):
    from cliffex import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    above = f"sig:{caps.KILLING_TRACE + 1},0"
    assert run_cli(capsys, "killing", "--form", above, "--method", "trace")[0] == 1
    # The failed call leaves nothing behind for the next one.
    code, out, err = run_cli(capsys, "killing", "--form", "diag:1,1,1", "--method", "trace")
    assert (code, err) == (0, "") and out
    assert built == [1]
    cli._parser.cache_clear()


def test_text_decompose_builds_no_killing_records(capsys, monkeypatch):
    from cliffex import structure

    expected = run_cli(capsys, "decompose", "--form", "sig:5,0")
    monkeypatch.setattr(structure, "killing_form", lambda *a, **k: pytest.fail("records built"))
    assert run_cli(capsys, "decompose", "--form", "sig:5,0") == expected
