"""The rank-2 worked example, end to end: grids and Dirac cohomology.

After tensoring L(lam) with the 2^n-dimensional spin module, the Dirac
cohomology keeps exactly the classes mu with P(lam) = P(mu - (1/2,...,1/2)).
The grids below make the selection visible: the cohomology classes sit at
the zeros of the P grid (P(lam) = 0 here).
"""
from fractions import Fraction

from cherednik import (
    CentralCharPoly,
    L_decomposition,
    Weight,
    dirac_cohomology,
    guaranteed_classes,
    nu_vector,
    tensor_with_spin,
)

F = Fraction

P = CentralCharPoly.from_h_coeffs([0, 18, F(-9, 2), -2, F(1, 2)], 2)
lam = Weight.of(F(5, 2), F(1, 2))  # mu+rho = (3, 0)
nu = nu_vector(P, lam)
print(f"nu = {nu}; P(lam) = {P.value(lam)}")

cols = [F(3) - k for k in range(nu[0] + 2)]
rows = [F(0) - k for k in range(nu[1] + 2)]

print("\nP over the mu+rho grid (columns: first coordinate descending; "
      "rows: second descending):")
for b in rows:
    print("   " + "  ".join(f"{str(P.evaluate([a, b])):>4}" for a in cols))

print("\nFormal multiplicities of V at mu+rho+(1/2,1/2) in L (x) spin:")
L = L_decomposition(lam, nu)
LS = tensor_with_spin(lam, nu)
for b in rows:
    line = []
    for a in cols:
        w = Weight.of(a + F(1, 2), b + F(1, 2)) - Weight.of(F(1, 2), F(-1, 2))
        line.append(str(LS.multiplicity(w)))
    print("   " + "  ".join(f"{v:>4}" for v in line))

print(f"\ndim L = {L.total_dimension()}, dim L (x) spin = {LS.total_dimension()} "
      f"= 2^2 * {L.total_dimension()}")

print("\nDirac cohomology (classes at the zeros of the P grid):")
coh = dirac_cohomology(P, lam)
for w, m in coh.sorted_items():
    s = tuple(str(c) for c in w.shifted())
    print(f"   {m} x V at mu+rho = {s}")
print("note: the class at (1/2, 1/2) is a boundary class of formal Weyl "
      "dimension 0; it is kept so the tables close up exactly.")

print("\nClasses guaranteed to appear with multiplicity one:")
for w in guaranteed_classes(P, lam):
    print(f"   V at mu+rho = {tuple(str(c) for c in w.shifted())}")
