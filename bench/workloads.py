"""
The three workloads: their operations, and the independent check of every
operation's output.

Each workload is a fixed schedule of query shapes (ranks, box sizes,
membership constants); the seed only chooses the coefficients and weights
that realise each shape, so the work done per round is the same for every
seed. A check returns a list of problems; an empty list means the output is
correct. Checks use `ref` (independent arithmetic) or sympy, never a stored
copy of an earlier output.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import gen
import ref
from cherednik import cli, enveloping, modules, rank_one
from cherednik.polynomials import Poly
from cherednik.weights import CentralCharPoly, Weight

HALF = Fraction(1, 2)

# dirac-grid: (command, nu, deformation given by --xi, degree of P), after
# the worked example. |L (x) S| = prod(nu_i + 2) runs from 12 to 4913 over
# ranks 2-6. The shapes are chosen so that the middle of a round (the 10th to
# 17th fastest operation) is operations of nearly equal cost: a median that
# fell on a gap between two unlike operations would jump between them with
# the machine's speed.
DIRAC_GRID = [
    ("dirac", (2, 1), True, 3),
    ("dirac", (3, 3), False, 4), ("dirac", (6, 4), True, 3),
    ("dirac", (14, 12), False, 3), ("dirac", (1, 1, 1), True, 3),
    ("dirac", (2, 2, 2), False, 4), ("dirac", (3, 2, 4), True, 3),
    ("dirac", (4, 4, 4), False, 3), ("dirac", (1, 1, 1, 1), True, 4),
    ("dirac", (2, 1, 2, 1), False, 3), ("dirac", (2, 2, 2, 2), False, 3),
    ("dirac", (1, 0, 1, 0, 1), True, 3), ("dirac", (1, 1, 1, 1, 1), False, 3),
    ("dirac", (0, 1, 0, 1, 0, 1), True, 3),
    ("tables", (3, 3), True, 3), ("tables", (30, 30), False, 4),
    ("tables", (40, 30), True, 3), ("tables", (6, 6, 6), False, 3),
    ("tables", (15, 15, 15), False, 3), ("tables", (1, 1, 1, 1), False, 4),
    ("tables", (4, 4, 4, 4), True, 3), ("tables", (2, 2, 2, 2, 2), False, 3),
    ("tables", (1, 0, 1, 0, 1, 0), False, 3), ("tables", (2, 2, 2, 2, 2, 2), True, 3),
]

# classify-roots: (rank, dominance gaps, least root r1 so nu_n = r1 - 1,
# trial-division length sqrt(cleared constant), member?). Thin boxes: one gap
# of 10^2-10^3, nu_n <= 2; 6 of the 25 weights are rejected. As in
# DIRAC_GRID, the 9th to 16th fastest operations are of nearly equal cost.
CLASSIFY_ROOTS = [
    (1, (), 1, 10 ** 6, True), (1, (), 2, 500_000, True), (1, (), 3, 200_000, True),
    (1, (), 1, 100_000, True), (1, (), 2, 10 ** 6, False), (1, (), 1, 300_000, False),
    (2, (100,), 1, 200_000, True), (2, (200,), 2, 300_000, True),
    (2, (400,), 1, 100_000, True), (2, (700,), 1, 500_000, True),
    (2, (1000,), 1, 200_000, True), (2, (150,), 3, 200_000, True),
    (2, (300,), 1, 10 ** 6, False), (2, (1000,), 1, 200_000, False),
    (3, (0, 100), 2, 100_000, True), (3, (250, 0), 1, 100_000, True),
    (3, (0, 600), 1, 200_000, True), (3, (1000, 0), 2, 100_000, True),
    (3, (0, 400), 1, 300_000, True), (3, (50, 0), 3, 100_000, True),
    (3, (500, 0), 1, 700_000, True), (3, (0, 800), 2, 400_000, True),
    (3, (0, 200), 1, 700_000, True),
    (3, (200, 0), 1, 500_000, False), (3, (0, 800), 1, 10 ** 6, False),
]

# The known fault: _positive_integer_roots trial-divides up to sqrt|c0|
# before taking the least root. Here q(t) = t (t - 2) (t - R) with
# R = 10^20 + 7, so the answer is nu = [1] but the scan runs to 1.4e10.
# The query does not depend on the seed.
FAULT_R = 10 ** 20 + 7
FAULT_ARGV = ["classify", "--n", "1", f"--P-h=0,{2 * FAULT_R},{FAULT_R + 2},1",
              "--lambda=0", "--json"]
FAULT_LIMIT_S = 1.5

# verify-certificates: the oracle's rank-one modules, three after each of the
# first two certificate operations and two after the third. The three
# certificate operations are the slowest of a round; with eight oracle
# operations in a ladder of nu = 40-54 below them, the round's median latency
# lies among oracle operations of nearly equal cost (nu = 48-52), not between
# two unlike operations, and its samples are spread over the round.
ORACLE_NU = ((40, 46, 52), (42, 48, 54), (44, 50))


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _w(coords) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coords)


def _decomp(doc: dict) -> Counter:
    out: Counter = Counter()
    for e in doc["entries"]:
        out[_w(e["weight"])] += e["multiplicity"]
    return out


def _mu_point(mu, n: int) -> tuple[Fraction, ...]:
    """mu + rho - (1/2, ..., 1/2), where P decides Dirac cohomology."""
    return tuple(c - HALF for c in ref.shift(mu, n))


class CliOp:
    """A CLI query given to `cherednik.cli.main` with stdout captured."""

    def __init__(self, query: gen.Query):
        self.q = query
        self.label = " ".join(query.argv())
        self.want = None

    def call(self):
        return _cli(self.q.argv())

    def prepare(self) -> None:
        """Compute the independent answer before the timed loop."""
        self.want = self.expected()

    def head(self, rc: int, doc: dict) -> list[str]:
        q = self.q
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        if not doc["membership"]["member"] or doc.get("nu") != list(q.nu):
            problems.append(f"nu {doc.get('nu')} != planted {list(q.nu)}")
        return problems


class DiracOp(CliOp):
    def expected(self):
        q, n = self.q, self.q.n
        target = ref.p_value(q.P, ref.shift(q.lam, n))
        box = Counter(ref.box(q.lam, q.nu))
        ls = ref.spin_tensor(q.lam, q.nu)
        coh = Counter({mu: m for mu, m in ls.items()
                       if ref.p_value(q.P, _mu_point(mu, n)) == target})
        dim_l = sum(ref.weyl_dim(w) for w in box)
        dim_ls = sum(m * ref.weyl_dim(mu) for mu, m in ls.items())
        return box, ls, coh, dim_l, dim_ls

    def inspect(self, result) -> tuple[list[str], dict]:
        rc, out = result
        doc = json.loads(out)
        problems = self.head(rc, doc)
        if problems:
            return problems, {}
        n = self.q.n
        box, ls, coh, dim_l, dim_ls = self.want
        L, LS, C = _decomp(doc["L"]), _decomp(doc["tensor_spin"]), _decomp(doc["cohomology"])
        if L != box or not all(ref.is_dominant(w) for w in L):
            problems.append("L is not the dominant box lambda - [0, nu]")
        if doc["L"]["dimension"] != dim_l:
            problems.append(f"dim L {doc['L']['dimension']} != {dim_l}")
        if doc["tensor_spin"]["dimension"] != 2 ** n * dim_l or dim_ls != 2 ** n * dim_l:
            problems.append("dim(L (x) S) != 2^n dim L")
        if LS != ls:
            problems.append("L (x) S multiplicities differ from the enumerated tensor")
        if C != coh:
            problems.append("cohomology differs from the P(lambda) = P(mu - 1/2) selection")
        for g in doc["guaranteed"]:
            if C.get(_w(g["weight"])) != 1:
                problems.append(f"guaranteed class {g['weight']} not of multiplicity one")
        if self.q.xi is not None:
            w = [Fraction(c) for c in doc["derived"]["w"]]
            rhs = ref.poly_shift(ref.density(self.q.xi, n), HALF)
            if (w[:1] != [0] or ref.half_step(w, n) != rhs
                    or doc["derived"]["P_h"] != doc["derived"]["w"]):
                problems.append("derived w fails half_step_transform(w) = density(z + 1/2)")
        return problems, {"modules.box_weights": len(L), "modules.spin_classes": len(LS),
                          "modules.cohomology_classes": len(C)}


def _table_points(doc: dict) -> dict:
    if "grids" in doc:
        g = doc["grids"]
        cells = zip(sum(g["weight_plus_rho"], []), sum(g["P"], []), sum(g["multiplicity"], []))
    else:
        cells = ((p["weight_plus_rho"], p["P"], p["multiplicity"]) for p in doc["points"])
    return {_w(pt): (Fraction(v), m) for pt, v, m in cells}


class TablesOp(CliOp):
    def expected(self):
        q, n = self.q, self.q.n
        ls = ref.spin_tensor(q.lam, q.nu)
        mult = Counter({_mu_point(mu, n): m for mu, m in ls.items()})
        grid_nu = tuple(v + 1 for v in q.nu)
        top = ref.shift(q.lam, n)
        return {pt: (ref.p_value(q.P, pt), mult[pt]) for pt in ref.box(top, grid_nu)}

    def inspect(self, result) -> tuple[list[str], dict]:
        rc, out = result
        doc = json.loads(out)
        problems = self.head(rc, doc)
        if problems:
            return problems, {}
        got, want = _table_points(doc), self.want
        if set(got) != set(want):
            problems.append("grid points are not lambda + rho - [0, nu + 1]")
        elif any(got[p][0] != want[p][0] for p in want):
            problems.append("P grid differs from the independent evaluator")
        elif any(got[p][1] != want[p][1] for p in want):
            problems.append("multiplicity grid differs from the enumerated L (x) S")
        return problems, {"modules.spin_classes": len(got)}


class ClassifyOp(CliOp):
    def __init__(self, query: gen.Query):
        super().__init__(query)
        self._verified: dict = {}

    def prepare(self) -> None:
        if self.q.nu is not None:
            self.verified(self.q.nu)

    def verified(self, nu: tuple[int, ...]):
        """(problems with nu, the box lambda - [0, nu], its dimension)."""
        if nu not in self._verified:
            box = Counter(ref.box(self.q.lam, nu))
            self._verified[nu] = (self.nu_ok(nu), box, sum(ref.weyl_dim(w) for w in box))
        return self._verified[nu]

    def nu_ok(self, nu: tuple[int, ...]) -> list[str]:
        """nu_n + 1 is the least positive root of q(t) = P(s) - P(s - t e_n);
        each nu_i (i < n) is the first P-hit or the dominance gap."""
        q, n = self.q, self.q.n
        s = ref.shift(q.lam, n)
        target = ref.p_value(q.P, s)
        problems = []
        last = ref.difference_poly(q.P, s, n - 1)
        if ref.poly_eval(last, nu[-1] + 1) != 0 or any(
                ref.poly_eval(last, t) == 0 for t in range(1, nu[-1] + 1)):
            problems.append(f"nu_n = {nu[-1]} is not the least root of q minus one")
        for i in range(n - 1):
            for t in range(1, nu[i] + 2):
                low = ref.lowered(q.lam, i, t)
                stop = not ref.is_dominant(low) or ref.p_value(q.P, ref.shift(low, n)) == target
                if stop != (t == nu[i] + 1):
                    problems.append(f"nu_{i + 1} = {nu[i]} is not the first hit or gap")
                    break
        return problems

    def inspect(self, result) -> tuple[list[str], dict]:
        rc, out = result
        doc = json.loads(out)
        m = doc["membership"]
        if self.q.nu is None:
            if rc != 1 or m["member"] or doc.get("error", {}).get("code") != "not-classified":
                return [f"expected a rejection, got exit {rc}"], {}
            return [], {}
        if rc != 0 or not m["member"] or m["degenerate_deformation"]:
            return [f"expected a member, got exit {rc}"], {}
        nu = tuple(doc["nu"])
        if m["nu_last"] != nu[-1]:
            return ["membership nu_last differs from nu"], {}
        problems, box, dim_l = self.verified(nu)
        L = _decomp(doc["L"])
        if L != box or doc["L"]["dimension"] != dim_l:
            problems = problems + ["L is not the box lambda - [0, nu]"]
        return problems, {"modules.box_weights": len(L)}

    def rejection_ok(self) -> list[str]:
        """sympy's rational roots of q(t) include no positive integer."""
        import sympy
        q, n = self.q, self.q.n
        coeffs = ref.difference_poly(q.P, ref.shift(q.lam, n), n - 1)
        t = sympy.Symbol("t")
        poly = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                         for c in coeffs])), t, domain="QQ")
        bad = [r for r in poly.ground_roots() if r.is_integer and r > 0]
        return [f"q has positive integer roots {bad}"] if bad else []


class FaultOp:
    """The known-fault query, in a child interpreter under a time limit;
    a timeout counts the operation as failed."""

    label = " ".join(FAULT_ARGV)

    def __init__(self, src: str):
        self.src = src

    def run(self) -> list[str]:
        code = "import sys; from cherednik.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=self.src)
        try:
            res = subprocess.run([sys.executable, "-c", code, *FAULT_ARGV], env=env,
                                 capture_output=True, text=True, timeout=FAULT_LIMIT_S)
        except subprocess.TimeoutExpired:
            return [f"no answer within {FAULT_LIMIT_S} s"]
        try:
            nu = json.loads(res.stdout).get("nu")
        except ValueError:
            nu = None
        return [] if res.returncode == 0 and nu == [1] else [
            f"exit {res.returncode}, expected nu = [1]"]


class VerifyOp:
    def __init__(self, argv: list[str]):
        self.argv = argv
        self.label = " ".join(argv)

    def call(self):
        return _cli(self.argv)

    def prepare(self) -> None:
        pass

    def inspect(self, result) -> tuple[list[str], dict]:
        rc, out = result
        doc = json.loads(out)
        failing = [r["name"] for r in doc["results"] if not r["ok"]]
        problems = [f"check failed: {name}" for name in failing]
        if rc != 0 or not doc["ok"]:
            problems.append(f"verdict not ok (exit {rc})")
        controls = [r for r in doc["results"] if r["name"].startswith("negative-control")]
        if not controls:
            problems.append("no corruption control was run")
        return problems, {"verify.checks": len(doc["results"])}


def _top_degree(entry, m: int) -> dict:
    """Length-m PBW monomials of a U(gl_n) element with E_lk -> a_kl, as a
    commutative polynomial {sorted (k, l) tuple: coefficient}."""
    out: dict = {}
    for mono, c in entry.terms.items():
        if len(mono) == m:
            key = tuple(sorted((l, k) for k, l in mono))
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


class RMatrixOp:
    N, M = 3, 5
    label = f"r_matrix({N}, {M})"

    def __init__(self):
        self.first = None

    def call(self):
        return enveloping.r_matrix(self.N, self.M)

    def prepare(self) -> None:
        pass

    def inspect(self, result) -> tuple[list[str], dict]:
        top = [[_top_degree(e, self.M) for e in row] for row in result]
        if self.first is None:
            self.first = top
        return ([] if top == self.first else ["r_matrix differs between rounds"]), {}

    def series_ok(self) -> list[str]:
        """The tau^M coefficient of (1 - tau A)^-1 det(1 - tau A)^-1 over
        sympy's polynomial ring: sum_k A^k g_{M-k}, where g = 1/det(1 - tau A)
        comes from the principal-minor sums e_j by g_m = sum_j (-1)^(j+1)
        e_j g_(m-j)."""
        from itertools import combinations, permutations
        from sympy import QQ, ring
        n, M = self.N, self.M
        names = [f"a{k}{l}" for k in range(1, n + 1) for l in range(1, n + 1)]
        R, *gens = ring(names, QQ)
        A = [[gens[n * k + l] for l in range(n)] for k in range(n)]

        def det(rows):
            total = R.zero
            for perm in permutations(range(len(rows))):
                sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                                   for j in range(i + 1, len(perm)))
                term = R.one
                for i, p in enumerate(perm):
                    term *= A[rows[i]][rows[p]]
                total += sign * term
            return total

        e = [R.one] + [sum((det(c) for c in combinations(range(n), j)), R.zero)
                       for j in range(1, n + 1)]
        g = [R.one]
        for m in range(1, M + 1):
            g.append(sum(((-1) ** (j + 1) * e[j] * g[m - j]
                          for j in range(1, min(m, n) + 1)), R.zero))
        powers = [[[R.one if i == j else R.zero for j in range(n)] for i in range(n)]]
        for _ in range(M):
            prev = powers[-1]
            powers.append([[sum((prev[i][k] * A[k][j] for k in range(n)), R.zero)
                            for j in range(n)] for i in range(n)])
        problems = []
        for i in range(n):
            for j in range(n):
                series = sum((powers[k][i][j] * g[M - k] for k in range(M + 1)), R.zero)
                want = {}
                for exps, c in series.terms():
                    key = tuple(sorted((1 + idx // n, 1 + idx % n)
                                       for idx, e_ in enumerate(exps) for _ in range(e_)))
                    want[key] = Fraction(int(c.numerator), int(c.denominator))
                if want != self.first[i][j]:
                    problems.append(f"r_matrix entry ({i + 1}, {j + 1}) top degree "
                                    "differs from the generating series")
        return problems


class OracleOp:
    def __init__(self, xi, lam, nu: int):
        self.xi, self.lam = Poly.of(*xi), lam
        self.label = f"oracle_cohomology(nu={nu})"
        self.closed = None

    def call(self):
        return rank_one.oracle_cohomology(self.xi, self.lam)

    def prepare(self) -> None:
        self.closed = modules.dirac_cohomology(
            CentralCharPoly.from_xi(self.xi, 1), Weight.of(self.lam))

    def inspect(self, result) -> tuple[list[str], dict]:
        return ([] if result == self.closed else ["oracle differs from dirac_cohomology"]), {}


def build(name: str, seed: int, src: str):
    """(operations of one round, fault operations, after) where after() runs
    the checks that need sympy once the timed loop is over and returns
    {operation label: problem} for the operations that fail them."""
    rng = random.Random(f"{name}:{seed}")
    if name == "dirac-grid":
        ops = [DiracOp(gen.worked_example(rng, "dirac"))]
        ops += [(DiracOp if cmd == "dirac" else TablesOp)(gen.plant_box(rng, cmd, nu, xi, deg))
                for cmd, nu, xi, deg in DIRAC_GRID]
        return ops, [], dict
    if name == "classify-roots":
        ops = [ClassifyOp(gen.plant_roots(rng, *shape)) for shape in CLASSIFY_ROOTS]

        def after():
            return {op.label: p for op in ops if op.q.nu is None for p in op.rejection_ok()}
        return ops, [FaultOp(src)], after
    if name == "verify-certificates":
        vseed = str(rng.randrange(10 ** 9))
        rmat = RMatrixOp()
        certificates = [
            VerifyOp(["verify", "--suite", "all", "--max-n", "2", "--max-deg", "3",
                      "--seed", vseed, "--json"]),
            VerifyOp(["verify", "--suite", "jacobi", "--max-n", "3", "--max-deg", "2",
                      "--json"]),
            rmat]
        ops = []
        for op, nus in zip(certificates, ORACLE_NU):
            ops.append(op)
            ops += [OracleOp(*gen.rank_one_instance(rng, nu), nu) for nu in nus]

        def after():
            problems = rmat.series_ok() if rmat.first else []
            return {rmat.label: "; ".join(problems)} if problems else {}
        return ops, [], after
    raise KeyError(name)


WORKLOADS = ("dirac-grid", "classify-roots", "verify-certificates")
