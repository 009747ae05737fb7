"""Command line behavior: outputs, exit codes, determinism, wire format."""
import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from hashlib import sha256

import pytest

import cherednik.cli as cli
import cherednik.modules as modules
import cherednik.polynomials as polynomials
import cherednik.verify as verify
import cherednik.weights as weights

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


@pytest.mark.parametrize("rank,lam,first_point", [
    (1, "3/2", "mu+rho (1.5)  P = 2.25  multiplicity 1"),
    (3, "13/4,9/4,5/4", "mu+rho (4.25, 2.25, 0.25)  P = 34.375  multiplicity 1"),
])
def test_tables_decimal_outside_rank_two(capsys, rank, lam, first_point):
    # The point list of ranks other than 2 renders its mu+rho coordinates
    # and P values as decimals where they terminate, as the rank-2 grids do.
    rc, out = run_main(capsys, "tables", "--n", str(rank), "--P-h", "0,0,1", "--lambda", lam,
                       "--decimal")
    lines = out.splitlines()
    assert rc == 0 and lines[1] == first_point
    assert len(lines) > 2 and not any("/" in line for line in lines)


# One request per command and per rank of tables, and each diagnostic: the
# not-dominant and not-classified rejections, and a box over the grid
# budget whose guaranteed classes have half-integer coordinates.
JSON_REQUESTS = [
    ["transform", "--n", "2", "--xi", "1/2,1/4"],
    ["classify", *EXAMPLE_ARGS],
    ["dirac", *EXAMPLE_ARGS],
    ["dirac", "--n", "1", "--xi", "0,1", "--lambda", "1/2"],
    *[["tables", "--n", str(rank), "--P-h", "0,0,1", "--lambda", lam]
      for rank, lam in ((1, "3/2"), (2, "19/6,7/6"), (3, "13/4,9/4,5/4"))],
    ["classify", "--n", "2", "--P-h", "0,1", "--lambda", "1/2,1"],
    ["dirac", "--n", "1", "--P-h", "0,1", "--lambda", "1/3"],
    ["tables", "--n", "2", "--P-h=0,20000001,1", "--lambda=3/2,1/2"],
]


@pytest.mark.parametrize("argv", JSON_REQUESTS, ids=lambda argv: " ".join(argv))
def test_decimal_never_changes_a_json_answer(capsys, argv):
    rc, out = run_main(capsys, *argv, "--json")
    assert run_main(capsys, *argv, "--json", "--decimal") == (rc, out)
    assert run_main(capsys, *argv, "--decimal", "--json") == (rc, out)


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


# The usage errors of the list flags, pinned to the byte: each request
# gives no deformation or weight flag, or two of one kind.
ONE_OF_DEFORMATION = "error: give exactly one of --xi, --w, --P-h\n"
ONE_OF_WEIGHT = "error: give exactly one of --lambda, --lambda-plus-rho\n"


@pytest.mark.parametrize("command", ["classify", "dirac", "tables"])
@pytest.mark.parametrize("flags,err", [
    (["--lambda", "0,0"], ONE_OF_DEFORMATION),
    (["--xi", "1", "--w", "0,1", "--lambda", "0,0"], ONE_OF_DEFORMATION),
    (["--xi", "0,1", "--P-h", "0,1", "--lambda", "0,0"], ONE_OF_DEFORMATION),
    (["--xi", "0,1"], ONE_OF_WEIGHT),
    (["--xi", "0,1", "--lambda", "0,0", "--lambda-plus-rho", "1/2,-1/2"], ONE_OF_WEIGHT),
])
def test_exactly_one_of_each_list_kind(capsys, command, flags, err):
    rc = cli.main([command, "--n", "2", *flags])
    assert (rc, *capsys.readouterr()) == (2, "", err)


@pytest.mark.parametrize("flags", [["--w", "0,1"], ["--P-h", "0,1"], []])
def test_transform_takes_only_the_xi_variant(capsys, flags):
    rc = cli.main(["transform", "--n", "1", *flags])
    err = "error: transform requires the --xi variant\n" if flags else ONE_OF_DEFORMATION
    assert (rc, *capsys.readouterr()) == (2, "", err)


def _verify_help(dest: str) -> str:
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return next(a.help for a in commands.choices["verify"]._actions if a.dest == dest)


@pytest.mark.parametrize("dest,suites", [("max_deg", ("jacobi", "oracle-n1")),
                                         ("trials", ("poly", "oracle-n1"))])
def test_verify_help_defaults_are_the_suites_defaults(dest, suites):
    # The help text states each suite's default, which the suite's own
    # signature holds: the one fact the parser repeats.
    runners = {"poly": verify.poly_suite, "jacobi": verify.jacobi_suite,
               "oracle-n1": verify.oracle_suite}
    stated = dict((s, int(v)) for v, s in re.findall(r"(\d+) for ([\w-]+)", _verify_help(dest)))
    assert stated == {s: inspect.signature(runners[s]).parameters[dest].default for s in suites}


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
    """Wrap modules- or weights-level callables wherever the CLI, modules or
    weights reach them."""
    counts = Counter()
    for name in names:
        orig = getattr(modules, name, None) or getattr(weights, name)

        def wrapper(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in (cli, modules, weights):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


STAGES = ["membership_detail", "nu_vector", "dirac_cohomology", "guaranteed_classes",
          "product_dimension", "box_dimension", "grid_numerators", "Box"]


# The CLI checks one Box per request and reads everything from it: the L,
# L (x) spin and cohomology blocks, and one dimension per block, in closed
# form for L and L (x) spin and one walk for the cohomology; the P
# values are walked once, as numerators, and the cohomology is selected on
# that Box (Box.cohomology, not dirac_cohomology's own Box). A rational is
# spelled (_ratio) once per axis value of a class list, in both its views
# (weight and mu+rho), never once per class: the
# example's L has axes of 3 and 3 values (9 classes), L (x) spin and the
# cohomology axes of 4 and 4 (16 and 5 classes); dirac adds the 2 + 2
# coordinates of its 2 guaranteed classes, and tables the 4 + 4 values of
# its grid's axes and one P value per cell. Every request also echoes its
# input once: the 5 P_h coefficients, lambda and lambda + rho (2 + 2).
ECHO = 5 + 2 + 2


@pytest.mark.parametrize("cmd,want", [
    ("classify", {"membership_detail": 1, "nu_vector": 1, "product_dimension": 1, "Box": 1,
                  "_ratio": ECHO + 2 * (3 + 3)}),
    ("dirac", {"membership_detail": 1, "nu_vector": 1, "product_dimension": 2,
               "box_dimension": 1, "Box": 1,
               "grid_numerators": 1, "guaranteed_classes": 1,
               "_ratio": ECHO + 2 * (3 + 3) + 2 * 2 * (4 + 4) + 2 * (2 + 2)}),
    ("tables", {"membership_detail": 1, "nu_vector": 1, "grid_numerators": 1, "Box": 1,
                "_ratio": ECHO + (4 + 4) + 16}),
])
def test_each_stage_runs_once_per_request(monkeypatch, capsys, cmd, want):
    counts = _count_calls(monkeypatch, STAGES)
    orig_ratio = cli._ratio
    monkeypatch.setattr(cli, "_ratio", lambda *a: counts.update(["_ratio"]) or orig_ratio(*a))
    assert run_main(capsys, cmd, *EXAMPLE_ARGS, "--json")[0] == 0
    assert dict(counts) == want


@pytest.mark.parametrize("mode", [["--json"], []])
def test_dimensions_computed_once_and_text_only_when_printed(monkeypatch, capsys, mode):
    counts = _count_calls(monkeypatch, ["product_dimension"])
    calls = []
    orig = weights.weyl_product
    monkeypatch.setattr(weights, "weyl_product", lambda y: calls.append(y) or orig(y))
    rendered = []
    orig_text = cli._weight_text
    monkeypatch.setattr(cli, "_weight_text", lambda *a: rendered.append(a) or orig_text(*a))
    rc, out = run_main(capsys, "dirac", *EXAMPLE_ARGS, *mode)
    assert rc == 0
    # one closed form each for L and L (x) spin, and one Weyl product per
    # class of the cohomology (5); the text lines are built only in text mode
    assert counts["product_dimension"] == 2
    assert len(calls) == 5
    assert bool(rendered) == (not mode)


@pytest.mark.parametrize("command", ["classify", "dirac"])
def test_weight_is_checked_before_the_xi_ladder(command):
    # The ladder at n = 400 takes minutes; a weight of the wrong length is a
    # usage error found before it.
    res = subprocess.run([sys.executable, "-m", "cherednik", command, "--n", "400",
                          "--xi", "0,1", "--lambda", "0"],
                         capture_output=True, text=True, timeout=10, env=CHILD_ENV)
    assert res.returncode == 2
    assert res.stderr == "error: weight has 1 coordinates, expected n = 400\n"


@pytest.mark.parametrize("flag,value,key,echo", [
    ("--xi", "0,1,0", "xi", ["0", "1"]),                  # trimmed as Poly.of trims
    ("--w", "0,1,0", "w", ["0", "1"]),
    ("--P-h", "0,1,0,1", "P_h", ["0", "1", "0", "1"]),    # kept as given
])
def test_input_echo_of_each_deformation(capsys, flag, value, key, echo):
    rc, out = run_main(capsys, "classify", "--n", "1", flag, value, "--lambda", "0", "--json")
    assert json.loads(out)["input"][key] == echo


def test_xi_ladder_runs_once_per_request(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "xi_to_w", lambda *a: calls.append(a) or polynomials.xi_to_w(*a))
    rc, out = run_main(capsys, "dirac", "--n", "1", "--xi", "0,1", "--lambda", "1", "--json")
    assert rc == 0 and json.loads(out)["derived"]["w"] == ["0", "1", "1"]
    assert len(calls) == 1


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


@pytest.mark.parametrize("argv,lam", [
    (["classify", "--n", "2", "--P-h", "0,1", "--lambda", "1/2,0"], "(1/2, 0)"),
    (["dirac", "--n", "2", "--P-h", "0,1", "--lambda", "0,1"], "(0, 1)"),
    (["tables", "--n", "2", "--P-h", "0,1", "--lambda-plus-rho", "0,0"], "(-1/2, 1/2)"),
    (["dirac", "--n", "3", "--xi", "0,1", "--lambda", "2,1,3/2"], "(2, 1, 3/2)"),
])
def test_non_dominant_weight_is_a_diagnostic(capsys, argv, lam):
    # A weight that is not dominant heads no finite-dimensional module: exit
    # 1 with a structured diagnostic and nothing on stderr, not a traceback.
    rc = cli.main(argv + ["--json"])
    out, err = capsys.readouterr()
    assert (rc, err) == (1, "")
    doc = json.loads(out)
    assert doc["error"]["code"] == "not-dominant"
    assert doc["error"]["message"].startswith(f"lambda = {lam} is not dominant")
    assert doc["command"] == argv[0] and "membership" not in doc and "nu" not in doc
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert (rc, err) == (1, "")
    assert out == f"rejected: {doc['error']['message']}\n"


@pytest.mark.parametrize("flag,value,least", [
    ("--trials", "-1", 1), ("--trials", "0", 1), ("--max-n", "0", 1), ("--max-deg", "-1", 0),
])
@pytest.mark.parametrize("mode", [["--json"], []])
def test_verify_rejects_empty_ranges(capsys, flag, value, least, mode):
    # These ranges would run no check and report a vacuous pass.
    rc = cli.main(["verify", "--suite", "oracle-n1", flag, value, *mode])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} must be at least {least}, got {value}\n"


def _oracle_xi_lengths(results):
    return [len(re.search(r"xi=(\[.*?\])", r["name"]).group(1).split(","))
            for r in results]


def test_verify_oracle_honours_max_deg(capsys):
    # The oracle suite used to keep its own degree 3 whatever --max-deg said.
    for max_deg in (1, 2):
        rc = cli.main(["verify", "--suite", "oracle-n1", "--trials", "3",
                       "--max-deg", str(max_deg), "--seed", "5", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0 and doc["ok"] and len(doc["results"]) == 3
        assert max(_oracle_xi_lengths(doc["results"])) <= max_deg + 1
    # without --max-deg the suite keeps its default degree 3
    rc = cli.main(["verify", "--suite", "oracle-n1", "--trials", "3", "--seed", "5", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and max(_oracle_xi_lengths(doc["results"])) == 4


def test_verify_poly_honours_trials(capsys):
    rc = cli.main(["verify", "--suite", "poly", "--trials", "3", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["ok"]
    details = {r["name"]: r["detail"] for r in doc["results"]}
    assert details["nabla-inversion-round-trip"] == "3 random polynomials per step, 4 steps"
    rc = cli.main(["verify", "--suite", "poly", "--json"])
    doc = json.loads(capsys.readouterr().out)
    details = {r["name"]: r["detail"] for r in doc["results"]}
    assert details["nabla-inversion-round-trip"] == "100 random polynomials per step, 4 steps"


@pytest.mark.parametrize("suite", ["poly", "all"])
def test_verify_reports_a_failed_w_ladder_postcondition(monkeypatch, capsys, suite):
    # A half-step transform off by z makes xi_to_w's own postcondition
    # fire: the ladder line reports it as FAIL, and every other check of the
    # run is still reported.
    base = polynomials.half_step_transform
    monkeypatch.setattr(polynomials, "half_step_transform",
                        lambda w, n: base(w, n) + polynomials.Poly.x())
    rc = cli.main(["verify", "--suite", suite, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["ok"] is False
    results = {r["name"]: r for r in doc["results"]}
    ladder = results["w-degree-and-defining-equation"]
    assert ladder["ok"] is False
    assert "half-step transform of w must give density(z + 1/2)" in ladder["detail"]
    assert results["bernoulli-forward-difference"]["ok"] is True
    if suite == "all":
        assert {r["suite"] for r in doc["results"]} == {"poly", "jacobi", "clifford",
                                                        "oracle-n1"}


@pytest.mark.parametrize("suite", ["oracle-n1", "all"])
def test_verify_oracle_max_deg_zero_is_a_usage_error(suite):
    # A rank-one instance needs a nonzero xi tail, so --max-deg 0 leaves the
    # instance generator nothing to draw: a usage error, not a traceback or
    # a hang.
    res = subprocess.run([sys.executable, "-m", "cherednik", "verify", "--suite", suite,
                          "--trials", "3", "--max-deg", "0", "--seed", "5"],
                         capture_output=True, text=True, env=CHILD_ENV, timeout=30)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: --max-deg must be at least 1 for the oracle-n1 suite")


def test_rank_one_instance_rejects_degree_zero():
    import random

    from cherednik.verify import random_rank_one_instance
    with pytest.raises(ValueError, match=r"needs max_deg >= 1, got 0"):
        random_rank_one_instance(random.Random(5), max_deg=0)


def test_verify_jacobi_rank_three_degree_three(capsys):
    # the certificates on kappa(z^d), d <= 3, at ranks 1-3, with the dense xi
    # and the corruption controls
    rc = cli.main(["verify", "--suite", "jacobi", "--max-n", "3", "--max-deg", "3", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["ok"] and len(doc["results"]) == 47
    names = {r["name"] for r in doc["results"]}
    assert {"wedge-identities n=3 xi=z^3", "all-certificates n=3 dense-xi deg=3"} <= names



@pytest.mark.parametrize("tok", ["1_000", "2 / 3", "1e5000", "1E5", "2.5e-1", "1/2e3",
                                 "1.5e3", "0x10", "nan", "inf", ".", "1/", "/2", "1.5/2",
                                 "1/0"])
def test_rational_grammar_rejects_what_interpreters_read_differently(capsys, tok):
    rc = cli.main(["classify", "--n", "1", "--P-h", "0,1", "--lambda", tok])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert f"cannot parse {tok!r}" in err


@pytest.mark.parametrize("tok,value", [
    ("3", 3), ("+3", 3), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)),
    ("1.5", Fraction(3, 2)), (".5", Fraction(1, 2)), ("-5.", -5), ("007", 7),
    (" 2/3 ", Fraction(2, 3)),
])
def test_rational_grammar_accepts_sign_digits_slash_and_point(tok, value):
    assert cli._parse_rational(tok) == value


@contextmanager
def int_str_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


needs_int_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                     reason="no int <-> str digit limit before 3.10.7")


@needs_int_limit
def test_big_exact_answers_print():
    # P = C h_1 + h_2 at n = 1 with lam = 10^3000 and C = 1 - 2 lam: nu = 0,
    # and the two grid values have about 6000 digits, past the default limit.
    lam = 10 ** 3000
    C = 1 - 2 * lam
    with int_str_limit(0):
        argv = ["tables", "--n", "1", "--P-h", f"0,{C},1", "--lambda", str(lam)]
        want = "\n".join([
            "nu = [0]",
            f"mu+rho ({lam})  P = {C * lam + lam ** 2}  multiplicity 1",
            f"mu+rho ({lam - 1})  P = {C * (lam - 1) + (lam - 1) ** 2}  multiplicity 1", ""])
    res = run_cli(*argv)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == want


@needs_int_limit
def test_long_literal_parses_and_the_limit_is_restored(capsys):
    tok = "1" * 5001
    with int_str_limit(5000):
        rc = cli.main(["classify", "--n", "1", "--P-h", "0,1", "--lambda", tok, "--json"])
        assert sys.get_int_max_str_digits() == 5000
    out, err = capsys.readouterr()
    assert (rc, err) == (1, "")
    assert json.loads(out)["input"]["lambda"] == [tok]


@needs_int_limit
@pytest.mark.parametrize("mode,size,digest", [
    (["--json"], 147501, "b0b636ffd5dee16668599f5d96483f540c0a0ba5f179e3461d45774116663dc5"),
    ([], 135588, "62fddc2a5460a9c1983652fc4d7484d572eacb8c0e5cdb1bf1cf0dbb51982074"),
])
def test_answer_past_the_digit_limit_is_written_inside_the_lifted_limit(capsys, mode, size,
                                                                         digest):
    # lambda = (10^5000, 0) under a constant P: nu = (0, 0), and L's dimension,
    # 10^5000 + 1, is turned into digits only as the answer is written.
    with int_str_limit(4300):
        rc, out = run_main(capsys, "dirac", "--n", "2", "--P-h", "5",
                           "--lambda", f"1{'0' * 5000},0", *mode)
        assert sys.get_int_max_str_digits() == 4300
    assert rc == 0
    assert (len(out), sha256(out.encode()).hexdigest()) == (size, digest)


def test_peak_memory_does_not_grow_with_the_classes(monkeypatch):
    # nu = (20, 20, 20) and (40, 40, 40): 8 times the classes and the bytes
    # written, while the answer goes out in batches. What grows is L's list
    # of multiplicities, 8 bytes a class.
    small = ["classify", "--n", "3", "--P-h=-4,-1757,-2,1", "--lambda=39,19,-1", "--json"]
    large = ["classify", "--n", "3", "--P-h=-4,-7477,-2,1", "--lambda=79,39,-1", "--json"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert cli.main(small) == 0  # the parser and the caches, before measuring
        peaks = []
        for argv in (small, large):
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0], peaks


def test_one_process_answers_a_sequence_as_fresh_processes_do(monkeypatch, capsys):
    # main keeps its parser between calls: each answer must still be the one
    # a fresh interpreter gives, whatever came before it in the process.
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["classify", "--n", "2", "--lambda", "1,0"],           # no deformation flag
        ["verify", "--suite", "nope"],                          # rejected by argparse
        ["dirac", "--help"],
        ["classify", *EXAMPLE_ARGS, "--json"],
        ["dirac", *EXAMPLE_ARGS],
        ["verify", "--suite", "poly", "--trials", "5"],
    ]
    for argv in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        child = subprocess.run([sys.executable, "-m", "cherednik", *argv], capture_output=True,
                               text=True, env=dict(CHILD_ENV, COLUMNS="80"))
        assert (code, out) == (child.returncode, child.stdout), argv
