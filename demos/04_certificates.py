"""Machine certificates behind the construction.

Three independent engines cross-check the theory: the PBW engine certifies
that the deformation maps built from the generating series satisfy the
Jacobi identity and adjoint linearity (flatness), the Clifford engine
certifies the spin lemmas, and the rank-one matrix oracle recomputes Dirac
cohomology from scratch and compares it with the closed-form selection rule.
"""
import random
from fractions import Fraction

from cherednik import (
    CentralCharPoly,
    Poly,
    Weight,
    dirac_cohomology,
    gamma_lie_hom_check,
    gamma_rank_one,
    h_linearity_check,
    higher_jacobi_checks,
    jacobi_check,
    kappa_of,
    oracle_cohomology,
    spin_weights,
)
from cherednik.clifford import CliffordElement
from cherednik.modules import axis_points
from cherednik.verify import r1_corruptions, random_rank_one_instance

F = Fraction

print("Flatness certificates for kappa built from xi (ranks 1-2, degrees 0-2):")
for n in (1, 2):
    for deg in (0, 1, 2):
        xi = Poly.of(*([0] * deg + [1]))
        kappa = kappa_of(xi, n)
        ok = bool(jacobi_check(kappa, n)) and bool(higher_jacobi_checks(kappa, n)) \
            and bool(h_linearity_check(kappa, n))
        print(f"  n={n} xi=z^{deg}: {'all certificates pass' if ok else 'FAILED'}")

print("\nNegative controls: doubling one coefficient of r_1 (rank 2, xi = z):")
for ((i, j), mono), kappa in r1_corruptions(2):
    jac = jacobi_check(kappa, 2)
    lin = h_linearity_check(kappa, 2)
    tag = "jacobi rejects" if not jac else "jacobi-invisible, linearity rejects"
    print(f"  entry ({i},{j}), monomial {mono}: {tag}")

print("\nSpin module weights (each with multiplicity one):")
for n in (1, 2, 3):
    ws = sorted(tuple(str(c) for c in w.coords) for w, _ in spin_weights(n))
    print(f"  n={n}: {ws}")
print("gamma is a Lie algebra map:", all(bool(gamma_lie_hom_check(n)) for n in (1, 2, 3)))

g = gamma_rank_one((F(3, 5), F(4, 5)))
print("rank-one gamma squares to 1/4:", g * g == CliffordElement.scalar(F(1, 4)))

print("\nRank-one oracle vs closed form on random admissible (xi, lam):")
rng = random.Random(2)
for _ in range(5):
    xi, lam = random_rank_one_instance(rng, max_deg=3, max_nu=6)
    oracle = oracle_cohomology(xi, lam)
    closed = dirac_cohomology(CentralCharPoly.from_xi(xi, 1), Weight.of(lam))
    coords = sorted(str(point[0]) for point, m in
                    zip(axis_points(oracle.axes), oracle.multiplicities) if m)
    print(f"  xi coeffs {[str(c) for c in xi.coeffs]}, lam={lam}: "
          f"agree={oracle == closed}, classes at {coords}")
