"""Command line behavior: outputs, exit codes, determinism, wire format."""
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import cherednik.cli as cli
import cherednik.modules as modules

EXAMPLE_ARGS = ["--n", "2", "--P-h", "0,18,-9/2,-2,1/2", "--lambda-plus-rho", "3,0"]
# Child interpreters import the package from this checkout's src.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cherednik", *args],
                          capture_output=True, text=True, env=CHILD_ENV)


def test_transform_example():
    res = run_cli("transform", "--n", "1", "--xi", "0,1", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["derived"]["w"] == ["0", "1", "1"]
    assert doc["derived"]["P_h"] == ["0", "1", "1"]
    assert doc["derived"]["density"] == ["0", "2"]
    assert doc["derived"]["density_sum"] == ["0", "1", "1"]


def test_transform_zero_deformation():
    res = run_cli("transform", "--n", "2", "--xi", "0", "--json")
    doc = json.loads(res.stdout)
    assert all(doc["derived"][k] == [] for k in ("density", "density_sum", "w", "P_h"))


def test_transform_degree_contract():
    res = run_cli("transform", "--n", "2", "--xi", "1", "--json")
    doc = json.loads(res.stdout)
    assert len(doc["derived"]["w"]) == 2  # degree 1 = deg xi + 1


def test_dirac_worked_example():
    res = run_cli("dirac", *EXAMPLE_ARGS, "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["nu"] == [2, 2]
    assert doc["membership"]["member"] is True
    got = {(tuple(e["weight_plus_rho"]), e["multiplicity"])
           for e in doc["cohomology"]["entries"]}
    assert got == {
        (("7/2", "1/2"), 1),
        (("1/2", "1/2"), 1),
        (("5/2", "-1/2"), 4),
        (("7/2", "-5/2"), 1),
        (("1/2", "-5/2"), 1),
    }
    assert doc["L"]["dimension"] == 27
    assert doc["tensor_spin"]["dimension"] == 108
    assert {tuple(g["weight_plus_rho"]) for g in doc["guaranteed"]} == \
        {("7/2", "1/2"), ("7/2", "-5/2")}


def test_dirac_rank_one():
    res = run_cli("dirac", "--n", "1", "--xi", "0,1", "--lambda", "1", "--json")
    doc = json.loads(res.stdout)
    got = {(e["weight"][0], e["multiplicity"]) for e in doc["cohomology"]["entries"]}
    assert got == {("3/2", 1), ("-3/2", 1)}


def test_w_variant_matches_xi_variant():
    by_w = run_cli("dirac", "--n", "1", "--w", "0,1,1", "--lambda", "1", "--json")
    by_xi = run_cli("dirac", "--n", "1", "--xi", "0,1", "--lambda", "1", "--json")
    dw, dx = json.loads(by_w.stdout), json.loads(by_xi.stdout)
    assert dw["cohomology"] == dx["cohomology"]
    assert dw["nu"] == dx["nu"]
    res = run_cli("transform", "--n", "1", "--w", "0,1")
    assert res.returncode == 2  # transform takes the xi variant only


def test_dirac_rejection_exit_code():
    res = run_cli("dirac", "--n", "1", "--xi", "7", "--lambda", "5", "--json")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["error"]["code"] == "not-classified"
    assert "cohomology" not in doc and "L" not in doc


def test_parse_error_exit_code_names_token():
    res = run_cli("dirac", "--n", "1", "--xi", "0,bogus", "--lambda", "1")
    assert res.returncode == 2
    assert "bogus" in res.stderr
    res2 = run_cli("classify", "--n", "2", "--xi", "1", "--w", "0,1",
                   "--lambda", "0,0")
    assert res2.returncode == 2
    res3 = run_cli("dirac", "--n", "2", "--xi", "1", "--lambda", "1")  # wrong length
    assert res3.returncode == 2


def test_classify_limits_output():
    res = run_cli("classify", *EXAMPLE_ARGS, "--json")
    doc = json.loads(res.stdout)
    assert doc["nu"] == [2, 2]
    assert "L" in doc and "cohomology" not in doc


def test_tables_worked_example():
    res = run_cli("tables", *EXAMPLE_ARGS, "--json")
    doc = json.loads(res.stdout)
    grids = doc["grids"]
    assert grids["multiplicity"] == [[1, 2, 2, 1], [2, 4, 4, 2],
                                     [2, 4, 4, 2], [1, 2, 2, 1]]
    assert grids["P"] == [["0", "10", "12", "0"],
                          ["-5", "0", "-4", "-20"],
                          ["-12", "-10", "-16", "-30"],
                          ["0", "4", "3", "0"]]
    assert grids["weight_plus_rho"][0][0] == ["3", "0"]
    assert grids["weight_plus_rho"][3][3] == ["0", "-3"]
    assert grids["orientation_note"]  # asymmetric grid carries the footnote


def test_tables_zero_deformation_all_zero_grid():
    res = run_cli("tables", "--n", "2", "--xi", "0", "--lambda-plus-rho", "2,1",
                  "--json")
    doc = json.loads(res.stdout)
    assert doc["membership"]["degenerate_deformation"] is True
    p_grid = doc["grids"]["P"]
    assert all(v == "0" for row in p_grid for v in row)
    assert doc["grids"]["orientation_note"] == ""


def test_tables_rank_one_flat_list():
    res = run_cli("tables", "--n", "1", "--xi", "0,1", "--lambda", "1", "--json")
    doc = json.loads(res.stdout)
    assert [p["P"] for p in doc["points"]] == ["2", "0", "0", "2"]
    assert [p["multiplicity"] for p in doc["points"]] == [1, 2, 2, 1]


def test_json_round_trip():
    res = run_cli("dirac", *EXAMPLE_ARGS, "--json")
    doc = json.loads(res.stdout)
    again = run_cli("dirac", "--n", str(doc["input"]["n"]),
                    "--P-h", ",".join(doc["input"]["P_h"]),
                    "--lambda-plus-rho", ",".join(doc["input"]["lambda_plus_rho"]),
                    "--json")
    assert again.stdout == res.stdout

    res1 = run_cli("dirac", "--n", "1", "--xi", "0,1", "--lambda", "3/2", "--json")
    doc1 = json.loads(res1.stdout)
    again1 = run_cli("dirac", "--n", "1", "--xi", ",".join(doc1["input"]["xi"]),
                     "--lambda", ",".join(doc1["input"]["lambda"]), "--json")
    assert again1.stdout == res1.stdout


def test_determinism():
    a = run_cli("dirac", *EXAMPLE_ARGS, "--json")
    b = run_cli("dirac", *EXAMPLE_ARGS, "--json")
    assert a.stdout == b.stdout


def test_wire_format_is_float_free():
    for args in (["dirac", *EXAMPLE_ARGS, "--json"],
                 ["transform", "--n", "1", "--xi", "1/3,-2/7", "--json"],
                 ["tables", *EXAMPLE_ARGS, "--json"]):
        res = run_cli(*args)
        # every quoted value is an exact integer or p/q; no decimal points
        assert not re.search(r"\d+\.\d+", res.stdout), args
        doc = json.loads(res.stdout)

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, str) and re.fullmatch(r"-?\d+(/\d+)?", node):
                pass
            elif isinstance(node, bool) or isinstance(node, int) or node is None:
                pass
            elif isinstance(node, str):
                pass
            else:
                raise AssertionError(f"unexpected JSON leaf {node!r}")
        walk(doc)


def test_decimal_render_flag():
    res = run_cli("dirac", *EXAMPLE_ARGS, "--decimal")
    assert "(3.5, 0.5)" in res.stdout
    exact = run_cli("dirac", *EXAMPLE_ARGS)
    assert "(7/2, 1/2)" in exact.stdout


def test_verify_subcommand():
    res = run_cli("verify", "--suite", "jacobi", "--max-n", "2", "--max-deg", "2")
    assert res.returncode == 0
    assert "FAIL" not in res.stdout
    res2 = run_cli("verify", "--suite", "poly", "--json")
    assert res2.returncode == 0
    doc = json.loads(res2.stdout)
    assert doc["ok"] is True and all(r["ok"] for r in doc["results"])


def test_verify_oracle_quick():
    res = run_cli("verify", "--suite", "oracle-n1", "--trials", "5")
    assert res.returncode == 0
    assert res.stdout.count("PASS") == 5


def test_fault_query_answers_within_bit_size_cost():
    # q(t) = t (t - 2) (t - R): the least root 2 gives nu = [1]. A divisor
    # scan of the constant term 2R would run to 1.4e10.
    R = 10 ** 20 + 7
    res = subprocess.run([sys.executable, "-m", "cherednik", "classify", "--n", "1",
                          f"--P-h=0,{2 * R},{R + 2},1", "--lambda=0", "--json"],
                         capture_output=True, text=True, timeout=10, env=CHILD_ENV)
    assert res.returncode == 0
    assert json.loads(res.stdout)["nu"] == [1]


def run_main(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("flag,negative,rest", [
    ("--xi", "-3,0,1", ["--n", "2", "--lambda", "2,0"]),
    ("--w", "-2,1,1", ["--n", "1", "--lambda", "1"]),
    ("--P-h", "-5,18,-9/2,-2,1/2", ["--n", "2", "--lambda-plus-rho", "3,0"]),
    ("--lambda", "-1,-3", ["--n", "2", "--xi", "0,1"]),
    ("--lambda-plus-rho", "-1/2,-5/2", ["--n", "2", "--xi", "0,1"]),
])
def test_leading_negative_list_as_its_own_token(capsys, flag, negative, rest):
    glued = run_main(capsys, "classify", *rest, f"{flag}={negative}", "--json")
    assert glued[0] in (0, 1) and json.loads(glued[1])["command"] == "classify"
    assert run_main(capsys, "classify", *rest, flag, negative, "--json") == glued


def _count_calls(monkeypatch, names):
    """Wrap modules-level functions wherever the CLI or modules reach them."""
    counts = Counter()
    for name in names:
        orig = getattr(modules, name)

        def wrapper(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in (cli, modules):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


STAGES = ["membership_detail", "nu_vector", "L_decomposition", "tensor_with_spin",
          "dirac_cohomology", "select_cohomology", "spin_grid", "guaranteed_classes"]


@pytest.mark.parametrize("cmd,want", [
    ("classify", {"membership_detail": 1, "nu_vector": 1, "L_decomposition": 1}),
    ("dirac", {"membership_detail": 1, "nu_vector": 1, "L_decomposition": 1,
               "tensor_with_spin": 1, "select_cohomology": 1, "spin_grid": 1,
               "guaranteed_classes": 1}),
    ("tables", {"membership_detail": 1, "nu_vector": 1, "spin_grid": 1}),
])
def test_each_stage_runs_once_per_request(monkeypatch, capsys, cmd, want):
    counts = _count_calls(monkeypatch, STAGES)
    assert run_main(capsys, cmd, *EXAMPLE_ARGS, "--json")[0] == 0
    assert dict(counts) == want


@pytest.mark.parametrize("mode", [["--json"], []])
def test_dimensions_computed_once_and_text_only_when_printed(monkeypatch, capsys, mode):
    calls = []
    orig = modules.weyl_dim_formal
    monkeypatch.setattr(modules, "weyl_dim_formal", lambda w: calls.append(w) or orig(w))
    rendered = []
    orig_text = cli._weight_text
    monkeypatch.setattr(cli, "_weight_text", lambda *a: rendered.append(a) or orig_text(*a))
    rc, out = run_main(capsys, "dirac", *EXAMPLE_ARGS, *mode)
    assert rc == 0
    # one formal dimension per entry of L (9), L (x) spin (16) and the
    # cohomology (5); the text lines are built only in text mode
    assert len(calls) == 9 + 16 + 5
    assert bool(rendered) == (not mode)


@pytest.mark.parametrize("command,p_h,nu", [
    ("classify", "0,100000000000000000039,1", 10 ** 20 + 38),
    ("dirac", "0,20000001,1", 20000000),
    ("tables", "0,20000001,1", 20000000),
])
def test_box_over_budget_is_a_diagnostic(command, p_h, nu):
    # nu is found at once; the box it describes (10^20 weights, or 2e7 that
    # would fill memory) is refused before anything is built.
    res = subprocess.run([sys.executable, "-m", "cherednik", command, "--n", "1",
                          f"--P-h={p_h}", "--lambda=0", "--json"],
                         capture_output=True, text=True, timeout=10, env=CHILD_ENV)
    assert res.returncode == 3, res.stderr
    assert res.stderr == ""
    doc = json.loads(res.stdout)
    assert doc["error"]["code"] == "box-too-large"
    assert doc["error"]["grid_size"] == nu + 2
    assert doc["error"]["max_grid"] == modules.MAX_GRID
    assert doc["nu"] == [nu]
    assert [g["weight"] for g in doc["guaranteed"]] == [["1/2"], [f"{-2 * nu - 1}/2"]]
    text = subprocess.run([sys.executable, "-m", "cherednik", command, "--n", "1",
                           f"--P-h={p_h}", "--lambda=0"],
                          capture_output=True, text=True, timeout=10, env=CHILD_ENV)
    assert text.returncode == 3
    assert text.stdout.startswith(f"box too large: nu = [{nu}]")


@pytest.mark.parametrize("argv", [
    ["tables", "--n", "1", "--P-h=0,20001,1", "--lambda=0", "--json"],
    ["dirac", "--n", "1", "--P-h=0,20001,1", "--lambda=0"],
])
def test_closed_stdout_ends_quietly_with_the_commands_exit_code(argv):
    # A reader that takes one line and goes away (as `| head -1` does) while
    # the command is still writing megabytes: no traceback, exit code 0.
    proc = subprocess.Popen([sys.executable, "-m", "cherednik", *argv], env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
    assert stderr == b""
