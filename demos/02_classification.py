"""Which highest weights head finite-dimensional modules, and what they
look like as gl_n modules.

A dominant weight lam qualifies iff some nonnegative integer v satisfies
P(lam) = P(lam - (0,...,0,v+1)); the box bounds nu then give
L(lam) = (+) over 0 <= nu' <= nu of V_{lam - nu'}.
"""
from fractions import Fraction

from cherednik import (
    CentralCharPoly,
    L_decomposition,
    Poly,
    Weight,
    membership_detail,
    nu_vector,
)

F = Fraction

print("Rank 1, xi = z (so P(z) = z^2 + z): membership is the half-integers.")
P1 = CentralCharPoly.from_xi(Poly.of(0, 1), 1)
for lam in (F(0), F(1, 2), F(1), F(3, 2), F(1, 3), F(-1), F(7, 2)):
    v = membership_detail(P1, Weight.of(lam))[0]
    verdict = f"member, box bound nu = {v}, dim L = {v + 1}" if v is not None else "not a member"
    print(f"  lam = {str(lam):5}  ->  {verdict}")

print()
print("Rank 1, constant xi = 7: P(z) = 7z is injective on steps, nothing is finite-dimensional.")
Pc = CentralCharPoly.from_xi(Poly.of(7), 1)
for lam in (F(0), F(3), F(-5, 2)):
    print(f"  lam = {str(lam):5}  ->  member: {membership_detail(Pc, Weight.of(lam))[0] is not None}")

print()
print("Rank 2 with P = 18h1 - (9/2)h2 - 2h3 + (1/2)h4 and lam + rho = (3, 0):")
P2 = CentralCharPoly.from_h_coeffs([0, 18, F(-9, 2), -2, F(1, 2)], 2)
lam = Weight.of(F(5, 2), F(1, 2))
nu = nu_vector(P2, lam)
print(f"  nu = {nu}")
L = L_decomposition(lam, nu)
print(f"  L(lam) is the {nu[0] + 1} x {nu[1] + 1} box, total dimension {L.total_dimension()}:")
for w, m in L.sorted_items():
    print(f"    {m} x V at mu+rho = {tuple(str(c) for c in w.shifted())}")
