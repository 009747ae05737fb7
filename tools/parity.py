"""
Interpreter parity of the command line driver and of its JSON writer.

    python tools/parity.py --write reference.json
    python3.10 tools/parity.py --against reference.json

Run from the root of a source checkout; the package is imported from ./src
(or from --src), and only the standard library is used, so any interpreter
the package supports can run it without pytest, hypothesis or sympy.

The corpus: the benchmark's dirac-grid and classify-roots CLI queries at
seeds 1-3, each in --json, text and --decimal mode; the worked example,
thirds and sixths, two degenerate deformations (one whose cohomology is
the whole of L (x) spin), the input echo of each deformation flag, tables
at ranks 1-3 with a rational lambda, classify, dirac and tables at ranks 4
and 5 with lambda in 1/3 + Z or 1/4 + Z (each in --json, text and
--decimal mode), the rejection, not-dominant and box-too-large diagnostics
(in text mode through classify, dirac and tables, the box over budget also
with --decimal at a half-integer lambda), transform in --json, text and
--decimal mode (one request whose ladder has terminating decimals), verify
--json at four seeds, the jacobi suite at rank 3 and the oracle-n1 suite
at 40 trials, and verify's text lines (all suites at seed 1, and
the poly suite at five trials), the rational tokens that Fraction reads
differently across interpreters (underscores, inner spaces, exponents), a
5001-digit literal, a tables request whose P values have about 6000
digits, and the four demos. Every request runs in process except the
demos, which run as scripts under the same interpreter. A request that
raises prints its traceback, is recorded with exit code 1 and the stdout
it wrote, as the interpreter would end it, and counts as a problem:
--write still records it, so a checkout whose requests crash can be
compared with, but the run fails.

For every --json output, the parsed document must render through
cli._json and through json.dumps(sort_keys=True, indent=2) to the output
itself. --write records each request's exit code and stdout as JSON;
--against compares them with a recording, made by another interpreter or
from another checkout. The exit code is 0 when every check holds.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXTRA = [
    ["dirac", "--n", "2", "--P-h=-4,551,4,-2", "--lambda=18,4", "--json"],
    ["dirac", "--n", "2", "--P-h", "0,18,-9/2,-2,1/2", "--lambda-plus-rho", "3,0", "--json"],
    ["dirac", "--n", "2", "--P-h", "0,18,-9/2,-2,1/2", "--lambda-plus-rho", "3,0"],
    ["dirac", "--n", "2", "--P-h", "0,0,1", "--lambda-plus-rho", "7/3,1/3", "--json"],
    ["dirac", "--n", "2", "--P-h", "0,0,1", "--lambda-plus-rho", "7/3,1/3"],
    ["dirac", "--n", "2", "--P-h", "0,0,1", "--lambda-plus-rho", "7/3,1/3", "--decimal"],
    ["classify", "--n", "2", "--P-h", "0", "--lambda", "0,0", "--json"],
    ["classify", "--n", "2", "--P-h", "0", "--lambda", "0,0"],
    ["classify", "--n", "1", "--P-h", "0,1", "--lambda", "0", "--json"],
    ["classify", "--n", "1", "--P-h", "0,1", "--lambda", "0"],
    ["classify", "--n", "2", "--P-h", "0,1", "--lambda", "0,1", "--json"],
    ["classify", "--n", "2", "--P-h", "0,1", "--lambda", "0,1"],
    ["classify", "--n", "1", "--P-h=0,100000000000000000039,1", "--lambda=0", "--json"],
    ["dirac", "--n", "1", "--P-h=0,20000001,1", "--lambda=0", "--json"],
    ["tables", "--n", "1", "--P-h=0,20000001,1", "--lambda=0"],
    ["transform", "--n", "3", "--xi", "1,-2/3,0,5", "--json"],
    ["transform", "--n", "3", "--xi", "1,-2/3,0,5"],
    ["transform", "--n", "3", "--xi", "1,-2/3,0,5", "--decimal"],
    ["transform", "--n", "2", "--xi", "1/2,1/4", "--decimal"],
]
for rank, lam in ((1, "3/2"), (2, "19/6,7/6"), (3, "13/4,9/4,5/4")):
    for mode in (["--json"], [], ["--decimal"]):
        EXTRA.append(["tables", "--n", str(rank), "--P-h", "0,0,1", "--lambda", lam, *mode])
# Ranks 4 and 5 with lambda in 1/3 + Z (and 1/4 + Z for tables, whose P
# values then have terminating decimals): the class lists and the tables'
# points at more axes than the benchmark's queries reach.
for argv in (["classify", "--n", "4", "--P-h", "0,5,6", "--lambda", "13/3,10/3,7/3,4/3"],
             ["dirac", "--n", "4", "--P-h", "0,5,6", "--lambda", "13/3,10/3,7/3,4/3"],
             ["classify", "--n", "5", "--P-h", "0,0,1", "--lambda", "13/3,10/3,7/3,4/3,1/3"],
             ["dirac", "--n", "5", "--P-h", "0,0,1", "--lambda", "13/3,10/3,7/3,4/3,1/3"],
             ["tables", "--n", "4", "--P-h", "0,9,4", "--lambda", "13/4,9/4,5/4,1/4"],
             ["tables", "--n", "5", "--P-h", "0,0,1", "--lambda", "13/3,10/3,7/3,4/3,1/3"]):
    for mode in (["--json"], [], ["--decimal"]):
        EXTRA.append([*argv, *mode])
for seed in (1, 2, 3, 7):
    EXTRA.append(["verify", "--suite", "all", "--max-n", "2", "--max-deg", "3",
                  "--seed", str(seed), "--json"])
# The certificates at rank 3 and the rank-one oracle at 40 trials.
EXTRA.append(["verify", "--suite", "jacobi", "--max-n", "3", "--max-deg", "3", "--json"])
EXTRA.append(["verify", "--suite", "oracle-n1", "--trials", "40", "--max-deg", "3", "--seed", "2",
              "--json"])
# verify's text lines.
EXTRA.append(["verify", "--suite", "all", "--max-n", "2", "--max-deg", "3", "--seed", "1"])
EXTRA.append(["verify", "--suite", "poly", "--trials", "5"])
# The diagnostics in text mode through each command that reaches them: the
# not-classified and not-dominant rejections (a rational lambda in the
# message), and a box over budget whose guaranteed classes have half-integer
# mu+rho coordinates, in text and --decimal mode.
for cmd in ("classify", "dirac", "tables"):
    EXTRA.append([cmd, "--n", "1", "--P-h", "0,1", "--lambda", "1/3"])
    EXTRA.append([cmd, "--n", "2", "--P-h", "0,1", "--lambda", "1/2,1"])
    for mode in ([], ["--decimal"]):
        EXTRA.append([cmd, "--n", "2", "--P-h=0,20000001,1", "--lambda=3/2,1/2", *mode])
# A degenerate deformation: the cohomology is all 8 classes of L (x) spin,
# boundary classes included.
for mode in ([], ["--json"], ["--decimal"]):
    EXTRA.append(["dirac", "--n", "3", "--P-h", "5", "--lambda", "2,1,0", *mode])
# The input echo: xi and w trimmed, P_h as given.
for flag in ("--xi", "--w", "--P-h"):
    EXTRA.append(["classify", "--n", "1", flag, "0,1,0", "--lambda", "0", "--json"])
for tok in ("1_000", "2 / 3", "1e5000", "1" * 5001):
    EXTRA.append(["classify", "--n", "1", "--P-h", "0,1", "--lambda", tok])
# lam = 10^3000 and C = 1 - 2 lam, spelled out without int <-> str conversion.
BIG_LAM, BIG_C = "1" + "0" * 3000, "-1" + "9" * 3000
for mode in ([], ["--json"]):
    EXTRA.append(["tables", "--n", "1", "--P-h", f"0,{BIG_C},1", "--lambda", BIG_LAM, *mode])


def bench_queries() -> list[list[str]]:
    """The CLI queries of the dirac-grid and classify-roots workloads at
    seeds 1-3, in --json, text and --decimal mode."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    out = []
    for name in ("dirac-grid", "classify-roots"):
        for seed in (1, 2, 3):
            ops, _, _ = workloads.build(name, seed, "")
            for op in ops:
                argv = op.q.argv()
                base = [tok for tok in argv if tok != "--json"]
                out += [argv, base, base + ["--decimal"]]
    return out


def run(cli, argv: list[str]) -> tuple[int, str, str | None]:
    """(exit code, stdout, the name of the exception raised or None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            return cli.main(argv), buf.getvalue(), None
        except Exception as exc:  # an uncaught exception ends the interpreter with 1
            traceback.print_exc()
            return 1, buf.getvalue(), type(exc).__name__


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--write", help="record the outputs in this file")
    parser.add_argument("--against", help="compare the outputs with this recording")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from cherednik import cli

    problems = []
    outputs = {}
    for argv in bench_queries() + EXTRA:
        label = " ".join(argv)
        rc, out, raised = run(cli, argv)
        outputs[label] = rc, out
        if raised:
            problems.append(f"raised {raised}: {label}")
        elif "--json" in argv:
            doc = json.loads(out)
            text = out[:-1]  # print's newline
            if json.dumps(doc, sort_keys=True, indent=2) != text:
                problems.append(f"json.dumps does not reproduce the output of {label}")
            if cli._json(doc) != text:
                problems.append(f"cli._json does not reproduce the output of {label}")
    env = dict(os.environ, PYTHONPATH=args.src)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                             env=env, timeout=300)
        outputs[f"demo {demo.name}"] = (res.returncode, res.stdout)
    print(f"{len(outputs)} requests on Python {sys.version.split()[0]}")

    if args.write:
        Path(args.write).write_text(json.dumps(outputs, sort_keys=True, indent=1))
    if args.against:
        recorded = {label: tuple(v) for label, v in
                    json.loads(Path(args.against).read_text()).items()}
        if set(recorded) != set(outputs):
            problems.append("the recording holds a different set of requests")
        problems += [f"differs from the recording: {label}" for label in sorted(outputs)
                     if recorded.get(label) != outputs[label]]
    for line in problems:
        print(line)
    print("parity holds" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
