"""
Named verification suites over the symbolic engines.

Each suite returns a list of CheckResult records (suite, check name, pass or
fail, one-line detail), so the command line driver and the test suite share
one source of truth. Negative controls are phrased so that PASS means "the
corrupted object was correctly rejected".

Each fact is defined once: the suites and their run order (SUITES, which
run_suites dispatches from and the command line's --suite offers), the
bounds of a run (check_bounds, which run_suites applies before any suite
runs, each suite to the bounds it reads, and the command line reports as a
usage error), the PBW certificates (CERTIFICATES, read by the per-degree
lines and the dense-xi line of jacobi_suite), the corrupted deformation maps
of the controls (_doubled: xi = z^m with one coefficient of r_m doubled) and
the twisted substitution identity (twisted_identity_check from polynomials,
run over Q by poly_suite and with a rank-one Clifford gamma by
clifford_suite).

Two corruption facts worth knowing before reading the controls (both are
machine-checked here and provable by hand): doubling the E_ii coefficient
inside the diagonal entry r_1[i][i] perturbs the deformation map by a
multiple of E_ii on the pair (y_i, x_i), which is itself a map with the
Jacobi property, so the Jacobi check alone cannot see it; it breaks adjoint
linearity instead. Every other single-coefficient corruption of r_1 breaks
the Jacobi identity directly. The wedge identities only have content once
monomials of length >= 2 appear, so their negative control corrupts r_2
under xi = z^2.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .clifford import (
    CliffordElement,
    commutator_matches_action,
    gamma_lie_hom_check,
    gamma_rank_one,
    spin_weights,
)
from .enveloping import (
    KappaMap,
    UEAElement,
    h_linearity_check,
    higher_jacobi_checks,
    jacobi_check,
    kappa_from_r_matrices,
    kappa_of,
    r_matrix,
    v_basis,
)
from .modules import Block, axis_points, dirac_cohomology
from .polynomials import (
    InvariantViolation,
    Poly,
    bernoulli,
    nabla,
    nabla_inverse,
    twisted_identity_check,
    xi_to_density,
    xi_to_w,
)
from .rank_one import oracle_cohomology
from .weights import CentralCharPoly, Weight

DEFAULT_SEED = 20260811


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _random_poly(rng: random.Random, max_deg: int) -> Poly:
    deg = rng.randint(0, max_deg)
    return Poly.of(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(deg + 1)))


def poly_suite(seed: int = DEFAULT_SEED, trials: int = 100) -> list[CheckResult]:
    check_bounds("poly", trials=trials)
    rng = random.Random(seed)
    out = []

    ok = all(nabla(1, bernoulli(k)) == Poly.of(*([0] * (k - 1) + [k]))
             for k in range(1, 13)) and nabla(1, bernoulli(0)).is_zero()
    out.append(CheckResult("poly", "bernoulli-forward-difference", ok, "k <= 12"))

    ok = True
    for eps in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-3, 7)):
        for _ in range(trials):
            p = _random_poly(rng, 10)
            f = nabla_inverse(eps, p)
            if nabla(eps, f) != p or f.coeff(0) != 0:
                ok = False
    out.append(CheckResult("poly", "nabla-inversion-round-trip", ok,
                           f"{trials} random polynomials per step, 4 steps"))

    ok = all(twisted_identity_check(Poly.of(*([0] * k + [1]))) for k in range(9))
    out.append(CheckResult("poly", "twisted-substitution-identity", ok, "monomials up to degree 8"))

    # xi_to_w checks the defining equation itself; when that fails, its
    # InvariantViolation is this check's FAIL and ends no other check.
    ok, detail = True, "random xi, deg <= 4, n <= 3"
    for n in (1, 2, 3):
        for _ in range(20):
            xi = _random_poly(rng, 4)
            try:
                w = xi_to_w(xi, n)
            except InvariantViolation as exc:
                ok, detail = False, f"xi={list(map(str, xi.coeffs))} n={n}: {exc}"
                continue
            ok = ok and (w.is_zero() if xi.is_zero()
                         else w.degree == xi.degree + 1 and w.coeff(0) == 0)
    out.append(CheckResult("poly", "w-degree-and-defining-equation", ok, detail))
    return out


# The PBW certificates, by check name: each takes (kappa, n) and returns a
# CheckReport.
CERTIFICATES = (("jacobi", jacobi_check),
                ("wedge-identities", higher_jacobi_checks),
                ("adjoint-linearity", h_linearity_check))


def jacobi_suite(max_n: int = 2, max_deg: int = 2) -> list[CheckResult]:
    check_bounds("jacobi", max_n=max_n, max_deg=max_deg)
    out = []
    for n in range(1, max_n + 1):
        for deg in range(max_deg + 1):
            kappa = kappa_of(Poly.of(*([0] * deg + [1])), n)
            for name, check in CERTIFICATES:
                rep = check(kappa, n)
                out.append(CheckResult("jacobi", f"{name} n={n} xi=z^{deg}",
                                       bool(rep), "" if rep else f"witness {rep.witness}"))
        kappa = kappa_of(Poly.of(*(Fraction(1, d + 1) for d in range(max_deg + 1))), n)
        ok = all(check(kappa, n) for _, check in CERTIFICATES)
        out.append(CheckResult("jacobi", f"all-certificates n={n} dense-xi deg={max_deg}", ok))

    out.extend(corruption_controls())
    return out


def _doubled(n: int, m: int, i: int, j: int, mono) -> KappaMap:
    """kappa for xi = z^m with the coefficient of mono in r_m[i][j] (0-based)
    doubled: the one corrupted deformation map of the controls."""
    rm = [r_matrix(n, k) for k in range(m + 1)]
    entry = UEAElement(dict(rm[m][i][j].terms))
    entry.terms[mono] *= 2
    rows = [list(row) for row in rm[m]]
    rows[i][j] = entry
    return kappa_from_r_matrices(Poly.of(*([0] * m + [1])), [*rm[:m], rows], n)


def r1_corruptions(n: int = 2) -> list[tuple[tuple, KappaMap]]:
    """Every single-coefficient corruption of r_1 (coefficient doubled),
    paired with the corrupted deformation map for xi = z."""
    r1 = r_matrix(n, 1)
    return [(((i + 1, j + 1), mono), _doubled(n, 1, i, j, mono))
            for i in range(n) for j in range(n) for mono in sorted(r1[i][j].terms)]


def corruption_controls(n: int = 2) -> list[CheckResult]:
    out = []
    jacobi_invisible = 0
    for label, kappa in r1_corruptions(n):
        (i, j), mono = label
        jac = jacobi_check(kappa, n)
        lin = h_linearity_check(kappa, n)
        trace_aligned = i == j and mono == ((i, i),)
        if trace_aligned:
            # provably a Jacobi map; only the linearity certificate can reject it
            ok = bool(jac) and not bool(lin)
            jacobi_invisible += 1
            detail = "jacobi-invisible sigma-type perturbation, rejected by linearity"
        else:
            ok = (not bool(jac)) and bool(jac.residual) and not bool(lin)
            detail = f"jacobi residual at triple {jac.witness}" if not jac else "UNEXPECTED PASS"
        out.append(CheckResult("jacobi", f"negative-control r1[{i}][{j}] {mono} doubled",
                               ok, detail))
    out.append(CheckResult("jacobi", "negative-control coverage",
                           jacobi_invisible == n,
                           f"{jacobi_invisible} trace-aligned corruptions seen, expected {n}"))

    # wedge identities need length-2 monomials to bite: corrupt r_2 under z^2
    kappa = _doubled(n, 2, 0, 0, ((1, 1), (2, 2)))
    ok = (not bool(higher_jacobi_checks(kappa, n))) and not bool(jacobi_check(kappa, n))
    out.append(CheckResult("jacobi", "negative-control r2 corruption breaks wedge identities", ok))
    return out


def clifford_suite(max_n: int = 3) -> list[CheckResult]:
    check_bounds("clifford", max_n=max_n)
    out = []
    for n in range(1, max_n + 1):
        ws = spin_weights(n)
        coords = sorted(tuple(w.coords) for w, _ in ws)
        ok = (len(ws) == 2 ** n and len(set(coords)) == 2 ** n
              and all(m == 1 for _, m in ws)
              and all(abs(c) == Fraction(1, 2) for t in coords for c in t))
        out.append(CheckResult("clifford", f"spin-weights n={n}", ok, "{+-1/2}^n, each once"))
        out.append(CheckResult("clifford", f"gamma-lie-homomorphism n={n}",
                               bool(gamma_lie_hom_check(n))))
        out.append(CheckResult("clifford", f"gamma-commutator-matches-action n={n}",
                               bool(commutator_matches_action(n))))

        ok = True
        basis = [CliffordElement.vector(v) for v in v_basis(n)]
        pair = {("x", "y"): 1, ("y", "x"): 1}
        for a, va in zip(basis, v_basis(n)):
            for b, vb in zip(basis, v_basis(n)):
                expected = 2 if (va[1] == vb[1] and pair.get((va[0], vb[0]))) else 0
                if a * b + b * a != CliffordElement.scalar(expected):
                    ok = False
        out.append(CheckResult("clifford", f"defining-relations n={n}", ok,
                               "vw + wv = 2<v,w> on all basis pairs"))

    units = [(Fraction(1),), (Fraction(3, 5), Fraction(4, 5)),
             (Fraction(5, 13), Fraction(12, 13)),
             (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))]
    ok = all(gamma_rank_one(v) * gamma_rank_one(v) == CliffordElement.scalar(Fraction(1, 4))
             for v in units)
    out.append(CheckResult("clifford", "rank-one-gamma-squares-to-1/4", ok,
                           f"{len(units)} rational unit vectors"))

    # the twisted identity with a rank-one gamma (squaring to 1/4) for g
    ok = all(twisted_identity_check(Poly.of(*([0] * k + [1])), (gamma_rank_one(v),),
                                    CliffordElement.scalar)
             for v in units[:2] for k in range(5))
    out.append(CheckResult("clifford", "twisted-identity-with-clifford-gamma",
                           ok, "p = z^k, k <= 4, n <= 2"))
    return out


def random_rank_one_instance(rng: random.Random, max_deg: int = 3,
                             max_nu: int = 8) -> tuple[Poly, Fraction]:
    """A random (xi, lam) with lam in the classification and box size <= max_nu:
    the closing sum over the box is linear in xi_0, so solve for it. The tail
    of xi must be nonzero, so max_deg must be at least 1."""
    if max_deg < 1:
        raise ValueError(f"a rank-one instance needs max_deg >= 1, got {max_deg}")
    while True:
        deg = rng.randint(1, max_deg)
        nu = rng.randint(0, max_nu)
        lam = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        tail = [Fraction(rng.randint(-4, 4)) for _ in range(deg)]
        if all(c == 0 for c in tail):
            continue
        p_tail = xi_to_density(Poly.of(0, *tail), 1)
        s = sum(p_tail(lam - k) for k in range(nu + 1))
        xi = Poly.of(Fraction(-s, nu + 1), *tail)
        if not xi.is_zero():
            return xi, lam


def _difference(oracle: Block, closed: Block) -> str:
    """Where the oracle's Block first differs from the closed form's: their
    axes, or else the first class, in product order, whose multiplicities
    differ ("" when there is none)."""
    if oracle.axes != closed.axes:
        return f"axes differ: oracle {_axes(oracle)}, closed form {_axes(closed)}"
    for point, a, b in zip(axis_points(oracle.axes), oracle.multiplicities,
                           closed.multiplicities):
        if a != b:
            return f"class {Weight(point)}: oracle multiplicity {a}, closed form {b}"
    return ""


def _axes(block: Block) -> str:
    return ", ".join(f"{a.top} - o for o < {a.count}" for a in block.axes)


def oracle_suite(trials: int = 20, seed: int = DEFAULT_SEED,
                 max_deg: int = 3) -> list[CheckResult]:
    check_bounds("oracle-n1", max_deg=max_deg, trials=trials)
    rng = random.Random(seed)
    out = []
    for idx in range(trials):
        xi, lam = random_rank_one_instance(rng, max_deg)
        name = f"oracle-vs-closed-form #{idx} xi={list(map(str, xi.coeffs))} lam={lam}"
        try:
            oracle = oracle_cohomology(xi, lam)  # checks kernel + eigenvalue laws
            closed = dirac_cohomology(CentralCharPoly.from_xi(xi, 1), Weight.of(lam))
            out.append(CheckResult("oracle-n1", name, oracle == closed,
                                   _difference(oracle, closed)))
        except InvariantViolation as exc:
            out.append(CheckResult("oracle-n1", name, False, str(exc)))
    return out


class BoundsError(ValueError):
    """A run's bounds do not hold; the message names the verify flag."""


def check_bounds(selector: str, max_n: int | None = None, max_deg: int | None = None,
                 trials: int | None = None) -> None:
    """The bounds of a run, as the verify command's flags name them
    (BoundsError otherwise): max_n >= 1, max_deg >= 0, trials >= 1, and
    max_deg >= 1 when oracle-n1 runs. run_suites checks the bounds of a run
    before any suite runs, and each suite the bounds it reads (None is not
    checked), so a suite called directly runs no empty range either. A run's
    max_n bounds jacobi from above, but the clifford suite it floors at 3: a
    run of clifford (or all) checks n = 1..max(max_n, 3)."""
    for flag, value, least in (("--max-n", max_n, 1), ("--max-deg", max_deg, 0),
                               ("--trials", trials, 1)):
        if value is not None and value < least:
            raise BoundsError(f"{flag} must be at least {least}, got {value}")
    if max_deg == 0 and selector in ("oracle-n1", "all"):
        raise BoundsError("--max-deg must be at least 1 for the oracle-n1 suite, whose "
                         "instances have a nonconstant xi, got 0")


def _given_bounds(**bounds) -> dict:
    """The bounds a run gives; None keeps a suite's own default."""
    return {k: v for k, v in bounds.items() if v is not None}


# The suites by name, in the order a run of "all" takes them: each runner
# takes a run's options (max_n, max_deg, trials, seed) and passes on those
# its suite reads. The clifford runner floors max_n at 3, so a run checks
# the Clifford algebra at n = 1..3 at least, whatever its --max-n.
SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "poly": lambda seed, trials, **_: poly_suite(seed, **_given_bounds(trials=trials)),
    "jacobi": lambda max_n, max_deg, **_: jacobi_suite(max_n, **_given_bounds(max_deg=max_deg)),
    "clifford": lambda max_n, **_: clifford_suite(max(max_n, 3)),
    "oracle-n1": lambda seed, trials, max_deg, **_: oracle_suite(
        seed=seed, **_given_bounds(trials=trials, max_deg=max_deg)),
}


def run_suites(selector: str, max_n: int = 2, max_deg: int | None = None,
               trials: int | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run one suite of SUITES or all of them, once check_bounds holds.
    max_deg reaches jacobi and oracle-n1, trials reaches poly and oracle-n1;
    None keeps each suite's own default."""
    check_bounds(selector, max_n, max_deg, trials)
    if selector != "all" and selector not in SUITES:
        raise ValueError(f"unknown suite {selector!r}")
    options = dict(max_n=max_n, max_deg=max_deg, trials=trials, seed=seed)
    return [result for name in (SUITES if selector == "all" else [selector])
            for result in SUITES[name](**options)]
