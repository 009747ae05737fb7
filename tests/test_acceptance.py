"""
Acceptance gate. One test per criterion; every comparison is exact rational
equality (zero tolerance), and each test prints a single pass line on
success (pytest -s shows them; failures raise).

Criterion 4 carries one documented caveat, pinned in its test body: two of
the six single-coefficient corruptions of r_1 at rank 2 (doubling the E_ii
coefficient inside the diagonal entry r_1[i][i]) perturb the deformation map
by a multiple of E_ii on the pair (y_i, x_i), which is itself a map with the
Jacobi property, so the Jacobi certificate alone provably cannot reject
them; adjoint linearity does, so the flatness certificate (Jacobi together
with linearity) fails for every corruption. The four corruptions the Jacobi
identity can see are asserted to fail it with a nonzero reported residual.
"""
import random
import time
from fractions import Fraction
from itertools import product

from cherednik.clifford import (
    CliffordElement,
    commutator_matches_action,
    gamma_lie_hom_check,
    gamma_rank_one,
    spin_weights,
)
from cherednik.enveloping import (
    h_linearity_check,
    higher_jacobi_checks,
    jacobi_check,
    kappa_of,
)
from cherednik.modules import (
    L_decomposition,
    dirac_cohomology,
    membership_detail,
    nu_vector,
    tensor_with_spin,
)
from cherednik.polynomials import (
    Poly,
    bernoulli,
    nabla,
    nabla_inverse,
    twisted_identity_check,
    xi_to_w,
)
from cherednik.rank_one import (
    build_module,
    dirac_matrix,
    mat_mul,
    mat_rank,
    nullity,
    oracle_cohomology,
    weight_labels,
)
from cherednik.verify import r1_corruptions, random_rank_one_instance
from cherednik.weights import CentralCharPoly, Weight, weyl_dim_formal

F = Fraction

EXAMPLE_P = CentralCharPoly.from_h_coeffs([0, 18, F(-9, 2), -2, F(1, 2)], 2)
EXAMPLE_LAM = Weight.of(F(5, 2), F(1, 2))  # rho-shifted coordinates (3, 0)


def test_criterion_1_rank_two_worked_example_end_to_end():
    start = time.monotonic()

    nu = nu_vector(EXAMPLE_P, EXAMPLE_LAM)
    assert nu == (2, 2)
    L = L_decomposition(EXAMPLE_LAM, nu)
    assert {w.shifted() for w in L.entries} == \
        {(F(a), F(b)) for a in (3, 2, 1) for b in (0, -1, -2)}
    assert len(L.entries) == 9 and all(m == 1 for m in L.entries.values())

    grid = [[EXAMPLE_P.evaluate([F(a), F(b)]) for a in (3, 2, 1, 0)]
            for b in (0, -1, -2, -3)]
    reference = [
        [F(0), F(10), F(12), F(0)],
        [F(-5), F(0), F(-4), F(-20)],
        [F(-12), F(-10), F(-16), F(-30)],
        [F(0), F(4), F(3), F(0)],
    ]
    assert grid == reference
    assert grid[0][0] == grid[0][3] == grid[3][0] == grid[3][3] == 0
    # this table also circulates transposed; diagonal (hence corner)
    # entries agree either way
    transposed_variant = [[reference[j][i] for j in range(4)] for i in range(4)]
    assert grid == [[transposed_variant[j][i] for j in range(4)] for i in range(4)]
    assert EXAMPLE_P.evaluate([F(2), F(0)]) == 10
    assert EXAMPLE_P.evaluate([F(3), F(-1)]) == -5
    assert EXAMPLE_P.evaluate([F(1), F(-1)]) == -4
    assert EXAMPLE_P.evaluate([F(2), F(-2)]) == -10
    assert EXAMPLE_P.evaluate([F(1), F(-2)]) == -16

    LS = tensor_with_spin(EXAMPLE_LAM, nu)
    expected_mult = [[1, 2, 2, 1], [2, 4, 4, 2], [2, 4, 4, 2], [1, 2, 2, 1]]
    for i2, b in enumerate((F(1, 2), F(-1, 2), F(-3, 2), F(-5, 2))):
        for i1, a in enumerate((F(7, 2), F(5, 2), F(3, 2), F(1, 2))):
            w = Weight.of(a - F(1, 2), b + F(1, 2))  # un-shift by rho
            assert LS.multiplicity(w) == expected_mult[i2][i1]

    coh = dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM)
    got = sorted((w.shifted(), m) for w, m in coh.entries.items())
    assert got == sorted([
        ((F(7, 2), F(1, 2)), 1),
        ((F(1, 2), F(1, 2)), 1),
        ((F(5, 2), F(-1, 2)), 4),
        ((F(7, 2), F(-5, 2)), 1),
        ((F(1, 2), F(-5, 2)), 1),
    ])

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"end-to-end example took {elapsed:.3f}s"
    print(f"\n[criterion 1] PASS rank-2 worked example end-to-end ({elapsed:.3f}s)")


def test_criterion_2_rank_one_closed_form_family():
    for c in (F(1), F(3), F(-2, 5)):
        xi = Poly.of(0, c)
        assert xi_to_w(xi, 1) == Poly.of(0, c, c)  # w = c(z^2 + z)
        P = CentralCharPoly.from_xi(xi, 1)
        # membership = nonnegative half-integers, box bound 2*lam
        for lam in (F(0), F(1, 2), F(1), F(3, 2), F(5, 2), F(4)):
            assert membership_detail(P, Weight.of(lam))[0] == 2 * lam
            assert nu_vector(P, Weight.of(lam)) == (2 * lam,)
            m = build_module(xi, lam)
            assert m.nu + 1 == 2 * lam + 1  # dim L = 2 lam + 1
            coh = dirac_cohomology(P, Weight.of(lam))
            assert {w.coords[0]: mult for w, mult in coh.entries.items()} == \
                {lam + F(1, 2): 1, -lam - F(1, 2): 1}
        for lam in (F(1, 3), F(2, 7), F(-1, 2), F(-1), F(5, 3)):
            assert membership_detail(P, Weight.of(lam))[0] is None

    for c in (F(1), F(-4), F(2, 3)):
        Pconst = CentralCharPoly.from_xi(Poly.of(c), 1)
        for lam in (F(0), F(1), F(7, 2), F(-5, 4), F(12)):
            assert membership_detail(Pconst, Weight.of(lam))[0] is None
    print("\n[criterion 2] PASS rank-1 closed-form family")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20260811)
    instances = 0
    for _ in range(20):
        xi, lam = random_rank_one_instance(rng, max_deg=3, max_nu=8)
        module = build_module(xi, lam)
        d = dirac_matrix(module)
        d2 = mat_mul(d, d)
        assert nullity(d) == nullity(d2)          # ker D = ker D^2
        assert mat_rank(d) == mat_rank(d2)        # ker D meets im D trivially

        P = CentralCharPoly.from_xi(xi, 1)
        p_lam = P.value(Weight.of(lam))
        labels = weight_labels(module)
        for i, mu_i in enumerate(labels):         # eigenblock law
            for j, mu_j in enumerate(labels):
                if i == j:
                    assert d2[i][j] == 2 * p_lam - 2 * P.value(Weight.of(mu_i - F(1, 2)))
                else:
                    assert d2[i][j] == 0 or mu_i == mu_j
                    if mu_i == mu_j and i != j:
                        assert d2[i][j] == 0

        oracle = oracle_cohomology(xi, lam)
        closed = dirac_cohomology(P, Weight.of(lam))
        assert oracle == closed
        instances += 1
    assert instances >= 20
    print(f"\n[criterion 3] PASS oracle equivalence on {instances} random instances")


def test_criterion_4_jacobi_certificate():
    for n in (1, 2):
        for deg in (0, 1, 2):
            xi = Poly.of(*([0] * deg + [1]))
            kappa = kappa_of(xi, n)
            assert jacobi_check(kappa, n)
            assert higher_jacobi_checks(kappa, n)
            assert h_linearity_check(kappa, n)

    jacobi_visible = 0
    for ((i, j), mono), kappa in r1_corruptions(2):
        jac = jacobi_check(kappa, 2)
        lin = h_linearity_check(kappa, 2)
        assert not (jac and lin), "every corruption must break the flatness certificate"
        if i == j and mono == ((i, i),):
            # provably Jacobi-invisible (a sigma-type Jacobi map); see module docstring
            assert jac and not lin
        else:
            assert not jac
            assert jac.witness is not None and jac.residual, "residual must be reported"
            jacobi_visible += 1
    assert jacobi_visible == 4
    print("\n[criterion 4] PASS jacobi certificate (4 corruptions rejected by "
          "jacobi with residuals; 2 provably jacobi-invisible ones rejected by linearity)")


def test_criterion_5_clifford_suite():
    for n in (1, 2, 3):
        ws = spin_weights(n)
        assert len(ws) == 2 ** n and all(m == 1 for _, m in ws)
        assert sorted(tuple(w.coords) for w, _ in ws) == \
            sorted(set(product((F(1, 2), F(-1, 2)), repeat=n)))
        assert gamma_lie_hom_check(n)
        assert commutator_matches_action(n)
    for v in [(F(1),), (F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)),
              (F(1, 3), F(2, 3), F(2, 3))]:
        g = gamma_rank_one(v)
        assert g * g == CliffordElement.scalar(F(1, 4))
    print("\n[criterion 5] PASS clifford suite")


def test_criterion_6_polynomial_suite():
    for k in range(13):
        expected = Poly.of(*([0] * (k - 1) + [k])) if k >= 1 else Poly.zero()
        assert nabla(1, bernoulli(k)) == expected

    rng = random.Random(101)
    count = 0
    for _ in range(100):
        eps = F(rng.randint(-6, 6), rng.randint(1, 4))
        p = Poly.of(*(F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(rng.randint(1, 11))))
        f = nabla_inverse(eps, p)
        assert nabla(eps, f) == p and f.coeff(0) == 0
        count += 1
    assert count == 100

    for k in range(9):
        assert twisted_identity_check(Poly.of(*([0] * k + [1])))

    for _ in range(30):
        n = rng.randint(1, 3)
        xi = Poly.of(*(F(rng.randint(-9, 9), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 5))), 1)
        assert xi_to_w(xi, n).degree == xi.degree + 1
    print("\n[criterion 6] PASS polynomial suite")


def test_criterion_7_dimension_conservation():
    cases = [
        (Weight.of(F(3, 2)), (3,)),
        (EXAMPLE_LAM, (2, 2)),
        (Weight.of(1, 1), (0, 3)),
        (Weight.of(2, 1, 0), (1, 1, 3)),
        (Weight.of(5, 2, 0), (2, 1, 3)),
        (Weight.of(0, 0, 0), (0, 0, 0)),
    ]
    rng = random.Random(103)
    for _ in range(10):
        xi, lam = random_rank_one_instance(rng, max_nu=6)
        P = CentralCharPoly.from_xi(xi, 1)
        cases.append((Weight.of(lam), nu_vector(P, Weight.of(lam))))

    half = F(1, 2)
    for lam, nu in cases:
        L = L_decomposition(lam, nu)
        n = L.rank
        # zero-dimension-aware formulation: sum over ALL sign vectors of the
        # formal Weyl dimension (boundary candidates contribute 0)
        formal = 0
        for w, mult in L.entries.items():
            for signs in product((half, -half), repeat=n):
                cand = Weight(tuple(c + s for c, s in zip(w.coords, signs)))
                formal += mult * weyl_dim_formal(cand)
        assert formal == 2 ** n * L.total_dimension()
        assert tensor_with_spin(lam, nu).total_dimension() == 2 ** n * L.total_dimension()
    print(f"\n[criterion 7] PASS dimension conservation on {len(cases)} instances, ranks 1-3")
